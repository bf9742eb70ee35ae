"""The slot-batched backward pass against a per-option reference loop."""
import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paces import (Battery, Decision, InfeasibleError, Instance,
                   NonSchedulableAppliance, PriceSignal, PrivacyPolicy,
                   PrivacyScenario, ScenarioSet, SchedulableAppliance,
                   SolveConfig, StateSpaceError, SystemState, TimeGrid,
                   backward_recursion, candidate_scenarios, load_config,
                   load_table, open_table, parse_config, preset_names,
                   random_small_instance, save_table,
                   scenario_load, scenarios, serialize, state_count,
                   sweep_battery)
from paces import table as table_module
from paces.cli import main
from paces.table import (_Engine, _engines, _option_tables, _tie_key_shifts,
                         _vectors)
from raw_model import (all_states, appliance_load, reference_cell,
                       reference_replay, step_remaining, sum_left_to_right)
from table_checks import (assert_same_table, dense_windows,
                          window_rows_envelope)


# ---------------------------------------------------------------------------
# Reference: one option at a time, one numpy pass per option


def reference_options(eng, r_combo, t):
    """Start options ``(mask, skey, n_starts, y_w, r_next)``, or ``None``.

    ``y_w`` adds the power of every starting or running appliance from 0
    in appliance order."""
    startable = []
    for i, (r, dur) in enumerate(zip(r_combo, eng.durations)):
        if r == dur:
            if t + dur - 1 > eng.tau:
                return None
            startable.append(i)
    options = []
    for size in range(len(startable) + 1):
        for subset in itertools.combinations(startable, size):
            y = sum_left_to_right(
                p for i, (r, dur, p) in enumerate(zip(r_combo, eng.durations,
                                                      eng.powers))
                if i in subset or 0 < r < dur)
            nxt = []
            for i, (r, dur) in enumerate(zip(r_combo, eng.durations)):
                running = i in subset or 0 < r < dur
                nxt.append(r - 1 if running and r > 0 else r)
            mask = sum(1 << i for i in subset)
            skey = sum(1 << (eng.n_app - 1 - i) for i in subset)
            options.append((mask, skey, size, y, eng.r_index[tuple(nxt)]))
    return options


def solve_slot(eng, config, t, f_next):
    """The engine's slot solve under ``config``'s windows, into arrays
    that start as garbage, so a cell it leaves unwritten shows."""
    out = (np.full(f_next.shape, np.nan),
           np.full(f_next.shape, 7, dtype=np.int32),
           np.full(f_next.shape, 7, dtype=np.int32))
    eng.solve_slot(t, f_next, *-config._windows, *out)
    return out


def reference_window(eng, config, t, y_w):
    # every move within the rate limits, scanned: the least whose load at
    # the slot's least draw reaches the band's floor and the greatest whose
    # load at its greatest draw stays under the band's ceiling, with the
    # replay's bits; the empty scenario set's infinite envelope bounds
    # nothing
    pol = config.instance.policy
    bound = pol.lambda_w + pol.tolerance_w
    (w_min,), (w_max,) = config._envelope[t]

    def gap(k, w):
        return ((y_w + (k * eng.step) / eng.h) + w) - pol.l_bar_w

    moves = range(eng.k_rate_lo, eng.k_rate_hi + 1)
    return (min((k for k in moves if gap(k, w_min) >= -bound),
                default=eng.k_rate_hi + 1),
            max((k for k in moves if gap(k, w_max) <= bound),
                default=eng.k_rate_lo - 1))


def reference_solve_slot(eng, config, t, f_next):
    c_t = config.instance.price.at(t)
    values = np.full((eng.n_r, eng.m), np.inf)
    dec_mask = np.full((eng.n_r, eng.m), -1, dtype=np.int32)
    dec_step = np.zeros((eng.n_r, eng.m), dtype=np.int32)
    b_idx = np.arange(eng.m)
    for r_i, combo in enumerate(eng.r_combos):
        options = reference_options(eng, combo, t)
        if options is None:
            continue
        best_v = values[r_i]
        best_n = np.zeros(eng.m, dtype=np.int64)
        best_absk = np.zeros(eng.m, dtype=np.int64)
        best_mask = dec_mask[r_i]
        for mask, skey, n_starts, y, r_next_idx in sorted(
                options, key=lambda o: (o[2], o[1])):
            k_lo, k_hi = reference_window(eng, config, t, y)
            if k_lo > k_hi:
                continue
            ks = np.array(sorted(range(k_lo, k_hi + 1),
                                 key=lambda k: (abs(k), k)), dtype=np.int64)
            stage = c_t * (y * eng.h + ks * eng.step)
            succ = b_idx[:, None] + ks[None, :]
            valid = (succ >= 0) & (succ < eng.m)
            cont = f_next[r_next_idx][np.clip(succ, 0, eng.m - 1)]
            cand = np.where(valid, stage[None, :] + cont, np.inf)
            col = np.argmin(cand, axis=1)
            vals = cand[b_idx, col]
            k_pick = ks[col]
            finite = np.isfinite(vals)
            tie = (finite & (vals == best_v) & (n_starts == best_n)
                   & (np.abs(k_pick) < best_absk))
            take = (finite & (vals < best_v)) | tie
            best_v[take] = vals[take]
            best_n[take] = n_starts
            best_absk[take] = np.abs(k_pick[take])
            best_mask[take] = mask
            dec_step[r_i][take] = k_pick[take]
    return values, dec_mask, dec_step


def assert_bit_identical(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def assert_every_slot_matches(config, f_rng):
    """Random continuations at each slot, then the chained recursion."""
    eng = config._engine
    for t in range(1, eng.tau + 1):
        f_next = random_continuation(f_rng, (eng.n_r, eng.m))
        assert_bit_identical(solve_slot(eng, config, t, f_next),
                             reference_solve_slot(eng, config, t, f_next))
    f_next = eng.terminal_continuation()
    for t in range(eng.tau, 0, -1):
        want = reference_solve_slot(eng, config, t, f_next)
        assert_bit_identical(solve_slot(eng, config, t, f_next), want)
        f_next = want[0]


def random_continuation(rng, shape):
    """inf, small integers (ties) and arbitrary floats, mixed."""
    kind = rng.integers(0, 3, size=shape)
    return np.where(kind == 0, np.inf,
                    np.where(kind == 1, rng.integers(0, 4, size=shape),
                             rng.uniform(-5.0, 5.0, size=shape)))


# ---------------------------------------------------------------------------
# Random instances


def real_or_integer(lo, hi):
    return st.one_of(st.integers(math.ceil(lo), int(hi)).map(float),
                     st.floats(lo, hi, allow_nan=False, allow_infinity=False))


@st.composite
def instances(draw):
    tau = draw(st.integers(1, 4))
    appliances = []
    for i in range(draw(st.integers(0, 3))):
        power = draw(real_or_integer(0.5, 300.0))
        duration = draw(st.integers(1, min(tau, 3)))
        appliances.append(SchedulableAppliance(
            id=f"a{i}", power_w=power, workload_wh=power * duration,
            duration_slots=duration))
    ns = []
    for j in range(draw(st.integers(0, 2))):
        lo = draw(st.integers(1, tau))
        hi = draw(st.integers(lo, tau))
        ns.append(NonSchedulableAppliance(
            id=f"n{j}", power_w=draw(real_or_integer(0.5, 200.0)),
            runtime_slots=draw(st.integers(1, hi - lo + 1)), zone=(lo, hi)))
    step = draw(st.sampled_from([0.5, 1.0, 2.5, 7.3, 33.3, 50.0]))
    battery = Battery(
        b_max_wh=step * draw(st.integers(0, 4)), b_init_wh=0.0,
        z_discharge_max_wh=step * draw(st.sampled_from([0.0, 0.4, 1.0, 2.7])),
        z_charge_max_wh=step * draw(st.sampled_from([0.0, 1.0, 1.6, 3.0])),
        grid_step_wh=step)
    inst = Instance(
        grid=TimeGrid(tau=tau, slot_hours=draw(st.sampled_from([1.0, 0.5]))),
        appliances=tuple(appliances), ns_appliances=tuple(ns),
        battery=battery,
        price=PriceSignal(tuple(draw(real_or_integer(0.0, 3.0))
                                for _ in range(tau))),
        policy=PrivacyPolicy(lambda_w=draw(real_or_integer(0.0, 400.0)),
                             l_bar_w=draw(real_or_integer(0.0, 400.0))))
    omega = ScenarioSet.empty()
    if draw(st.booleans()):
        omega = ScenarioSet((PrivacyScenario.inactive(len(ns)),))
        for sc in candidate_scenarios(inst.ns_appliances, inst.grid):
            if draw(st.booleans()):
                omega = omega.with_scenario(sc)
    return SolveConfig(instance=inst, scenarios=omega)


@settings(max_examples=150, deadline=None)
@given(config=instances(), seed=st.integers(0, 2**32 - 1))
def test_batched_slot_matches_the_per_option_loop(config, seed):
    assert_every_slot_matches(config, np.random.default_rng(seed))


def edge_case(name):
    two = (SchedulableAppliance(id="a", power_w=1.5, workload_wh=3.0,
                                duration_slots=2),
           SchedulableAppliance(id="b", power_w=2.25, workload_wh=6.75,
                                duration_slots=3))
    battery = Battery(b_max_wh=7.5, b_init_wh=0.0, z_discharge_max_wh=5.0,
                      z_charge_max_wh=7.5, grid_step_wh=2.5)
    policy = PrivacyPolicy(lambda_w=0.5, l_bar_w=2.0)
    if name == "zero-rate":
        battery = Battery(b_max_wh=7.5, b_init_wh=0.0, z_discharge_max_wh=0.0,
                          z_charge_max_wh=0.0, grid_step_wh=2.5)
    inst = Instance(grid=TimeGrid(tau=3), appliances=two, ns_appliances=(),
                    battery=battery, price=PriceSignal((0.3, 0.1, 0.2)),
                    policy=policy)
    scenarios = (ScenarioSet.empty() if name == "doomed"
                 else ScenarioSet((PrivacyScenario.inactive(0),)))
    return SolveConfig(instance=inst, scenarios=scenarios)


def tie_heavy(l_bar):
    """Price 0 under a 2 W band: start sets and moves tie on value.

    Two 3 W and two 1 W appliances make equal-size start sets of equal
    draw, so only the start vector tells them apart.  A start set with
    less draw needs a larger charge to reach the band's floor, so a
    later row of a block can win on ``|k|`` alone.
    """
    appliances = tuple(
        SchedulableAppliance(id=name, power_w=power,
                             workload_wh=power * duration,
                             duration_slots=duration)
        for name, power, duration in (("a", 3.0, 1), ("b", 1.0, 1),
                                      ("c", 3.0, 2), ("d", 1.0, 1)))
    inst = Instance(
        grid=TimeGrid(tau=3), appliances=appliances, ns_appliances=(),
        battery=Battery(b_max_wh=6.0, b_init_wh=0.0, z_discharge_max_wh=3.0,
                        z_charge_max_wh=3.0, grid_step_wh=1.0),
        price=PriceSignal((0.0, 0.0, 0.0)),
        policy=PrivacyPolicy(lambda_w=1.0, l_bar_w=l_bar))
    return SolveConfig(instance=inst,
                       scenarios=ScenarioSet((PrivacyScenario.inactive(0),)))


@pytest.mark.parametrize("l_bar", [1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
def test_ties_break_as_the_per_option_loop_breaks_them(l_bar):
    config = tie_heavy(l_bar)
    eng = config._engine
    flat = np.zeros((eng.n_r, eng.m))
    tied = 0
    for t in range(1, eng.tau + 1):
        want = reference_solve_slot(eng, config, t, flat)
        assert_bit_identical(solve_slot(eng, config, t, flat), want)
        tied += int((want[1] > 0).sum() + (want[2] != 0).sum())
    # the flat continuation still leaves starts and moves to pick
    assert tied > 0
    f_next = eng.terminal_continuation()
    for t in range(eng.tau, 0, -1):
        want = reference_solve_slot(eng, config, t, f_next)
        assert_bit_identical(solve_slot(eng, config, t, f_next), want)
        f_next = want[0]


def built_tables(config, tmp_dir):
    """Each table ``config`` makes: the build and its dump loaded back, or
    the solved slots of a failed build."""
    try:
        table = backward_recursion(config)
    except InfeasibleError as err:
        return [err._tail.values[err._tail.dies_at - 1:]]
    path = str(tmp_dir / "table.json")
    save_table(table, path)
    return [table.values, load_table(path, config).values]


def assert_no_negative_zero(values):
    # the slot solver's running minimum is np.minimum, which may return
    # either of -0.0 and 0.0 where they meet: bit-equal only without -0.0
    assert not (np.signbit(values) & (values == 0)).any()


@settings(max_examples=100, deadline=None)
@given(config=instances())
def test_no_cell_of_a_table_is_negative_zero(config, tmp_path_factory):
    for values in built_tables(config, tmp_path_factory.mktemp("dump")):
        assert_no_negative_zero(values)


@pytest.mark.parametrize("l_bar", [1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
def test_no_cell_of_a_tie_heavy_table_is_negative_zero(l_bar, tmp_path):
    config = tie_heavy(l_bar)
    eng = config._engine
    # price 0 and a discharge: the stage itself is -0.0
    assert np.signbit(eng.stage_cost(1, 0.0, np.array(eng._moves))).any()
    for values in built_tables(config, tmp_path):
        assert_no_negative_zero(values)


@pytest.mark.parametrize("name", ["empty-window", "doomed", "zero-rate"])
def test_batched_slot_matches_on_edge_cases(name):
    config = edge_case(name)
    eng = config._engine
    if name == "empty-window":
        windows = [reference_window(eng, config, t, option[3])
                   for t in range(1, eng.tau + 1) for combo in eng.r_combos
                   for option in reference_options(eng, combo, t) or ()]
        assert any(lo > hi for lo, hi in windows)
    elif name == "doomed":
        doomed = [r_i for r_i, combo in enumerate(eng.r_combos)
                  if reference_options(eng, combo, eng.tau) is None]
        assert doomed
        opts = eng.options(eng.tau)
        assert not np.isin(doomed, opts.r_first[opts.block]).any()
    else:
        assert eng.k_rate_lo == eng.k_rate_hi == 0
    assert_every_slot_matches(config, np.random.default_rng(0))


def test_moves_on_the_band_edge_pass_within_its_tolerance():
    # 1e-10 W narrower than 0.5 W, inside the band's 2e-9 W tolerance
    config = edge_case("empty-window")
    policy = PrivacyPolicy(lambda_w=0.5 - 1e-10, l_bar_w=2.0)
    config = SolveConfig(instance=dataclasses.replace(config.instance,
                                                      policy=policy),
                         scenarios=config.scenarios)
    eng = config._engine
    # idle at slot 1, one 2.5 Wh charge puts the load 0.5 W over 2 W
    assert reference_window(eng, config, 1, 0.0) == (1, 1)
    assert_every_slot_matches(config, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# The privacy band: a build reads its scenario set as its draw envelope


@st.composite
def placement_subsets(draw):
    """An instance and any subset of its placements, inactive ones too."""
    inst = draw(instances()).instance
    placements = (candidate_scenarios(inst.ns_appliances, inst.grid,
                                      include_inactive=True)
                  or [PrivacyScenario.inactive(0)])
    keep = draw(st.lists(st.booleans(), min_size=len(placements),
                         max_size=len(placements)))
    return inst, ScenarioSet(tuple(sc for sc, k in zip(placements, keep)
                                   if k))


@settings(max_examples=150, deadline=None)
@given(case=placement_subsets())
def test_the_envelope_is_the_extreme_scenario_load(case):
    inst, omega = case
    envelope = SolveConfig(instance=inst, scenarios=omega)._envelope
    slots = range(1, inst.grid.tau + 1)
    draws = [[scenario_load(sc, inst.ns_appliances, t) for sc in omega]
             for t in slots]
    want_min = np.array([math.inf] + [min(d, default=math.inf)
                                      for d in draws])
    want_max = np.array([-math.inf] + [max(d, default=-math.inf)
                                       for d in draws])
    assert envelope.shape == (inst.grid.tau + 1, 2, 1)
    assert envelope[:, 0, 0].tobytes() == want_min.tobytes()
    assert envelope[:, 1, 0].tobytes() == want_max.tobytes()


@settings(max_examples=150, deadline=None)
@given(config=instances(),
       y_w=st.lists(st.floats(0.0, 1e12), min_size=1, max_size=6))
def test_an_empty_scenario_set_leaves_the_rate_window(config, y_w):
    empty = SolveConfig(instance=config.instance)
    eng = empty._engine
    for t in range(1, eng.tau + 1):
        rows = np.concatenate((eng.options(t).y_w, y_w))
        k_lo, k_hi = eng.k_windows(rows, empty.instance.policy,
                                   empty._envelope[t])
        assert (k_lo == eng.k_rate_lo).all()
        assert (k_hi == eng.k_rate_hi).all()


@st.composite
def bands_and_envelopes(draw):
    """An engine's config, any band and any per-slot envelope.

    The bounds reach 1e308, so ``l_bar + bound_w`` can overflow (no
    instance validates with such a band, so the policy is made alone),
    and a slot's envelope is either the empty set's ``(+inf, -inf)`` or
    two draws of any size.
    """
    config = draw(instances())
    size = st.one_of(real_or_integer(0.0, 400.0),
                     st.floats(0.0, 1e308, allow_nan=False))
    band = PrivacyPolicy(lambda_w=draw(size), l_bar_w=draw(size))
    envelope = np.empty((config.instance.grid.tau + 1, 2, 1))
    envelope[0] = [[math.inf], [-math.inf]]
    for t in range(1, len(envelope)):
        if draw(st.booleans()):
            envelope[t] = [[math.inf], [-math.inf]]
        else:
            pair = sorted(draw(st.lists(size, min_size=2, max_size=2)))
            envelope[t] = [[pair[0]], [pair[1]]]
    return config, band, envelope


@settings(max_examples=200, deadline=None)
@given(case=bands_and_envelopes(),
       extra=st.lists(st.floats(0.0, 1e308), max_size=4))
def test_both_bounds_fall_along_the_window_order(case, extra):
    # the slot solver's row slices rest on this: the rows that admit a
    # move are the ones with k_lo <= k (a suffix) and k_hi >= k (a prefix)
    config, band, envelope = case
    eng = config._engine
    for t in range(1, eng.tau + 1):
        opts = eng.options(t)
        y_w = np.sort(np.concatenate((opts.y_w, extra)), kind="stable")
        for rows in (opts.y_w[opts.order], y_w):
            k_lo, k_hi = eng.k_windows(rows, band, envelope[t])
            assert (np.diff(k_lo) <= 0).all()
            assert (np.diff(k_hi) <= 0).all()


def full_candidate_set(inst):
    """The base scenario and every placement."""
    return ScenarioSet(
        (PrivacyScenario.inactive(len(inst.ns_appliances)),)
        + tuple(candidate_scenarios(inst.ns_appliances, inst.grid)))


def with_grid_step(inst, grid_step_wh):
    return dataclasses.replace(inst, battery=dataclasses.replace(
        inst.battery, grid_step_wh=grid_step_wh))


def closed_form_windows(config):
    """Each bound's closed-form guess, rounded inwards and clamped."""
    eng = config._engine
    pol = config.instance.policy
    y_w, envelope = window_rows_envelope(config)
    band = np.array([[pol.l_bar_w - pol.bound_w], [pol.l_bar_w + pol.bound_w]])
    q = (((band - y_w) - envelope.T) * eng.h) / eng.step
    return np.stack((np.clip(np.ceil(q[0]), eng.k_rate_lo, eng.k_rate_hi + 1),
                     np.clip(np.floor(q[1]), eng.k_rate_lo - 1, eng.k_rate_hi)))


def assert_windows_are_the_band_test(inst, scenarios):
    omega = (ScenarioSet.base(len(inst.ns_appliances)) if scenarios == "base"
             else full_candidate_set(inst))
    config = SolveConfig(instance=inst, scenarios=omega)
    windows = config._windows
    assert windows.tobytes() == dense_windows(config).tobytes()
    assert np.abs(windows - closed_form_windows(config)).max() <= 1


@pytest.mark.parametrize("scenarios", ["base", "full"])
@pytest.mark.parametrize("grid_step_wh", [25.0, 5.0, 1.0])
@pytest.mark.parametrize("preset", ["motivating-example", "section-iv-a",
                                    "table-ii"])
def test_windows_are_the_band_test_on_the_presets(preset, grid_step_wh,
                                                  scenarios):
    assert_windows_are_the_band_test(
        with_grid_step(load_config(preset).instance, grid_step_wh),
        scenarios)


@pytest.mark.parametrize("scenarios", ["base", "full"])
def test_windows_are_the_band_test_on_the_seeded_suite(scenarios):
    for seed in range(60):
        assert_windows_are_the_band_test(
            random_small_instance(seed, ns_count=1 + seed % 2), scenarios)


# a 0 Wh battery has one level and one move: the path of a sweep's
# infeasible point, where the fixed per-slot cost dominates
@pytest.mark.parametrize("grid_step_wh, b_max_wh", [
    pytest.param(25.0, None, id="25.0"), pytest.param(5.0, None, id="5.0"),
    pytest.param(2.5, None, id="2.5"), pytest.param(25.0, 0.0, id="0Wh")])
@pytest.mark.parametrize("preset", ["section-iv-a", "table-ii"])
def test_batched_slot_matches_on_the_presets(preset, grid_step_wh, b_max_wh):
    inst = with_grid_step(load_config(preset).instance, grid_step_wh)
    if b_max_wh is not None:
        inst = dataclasses.replace(inst, battery=dataclasses.replace(
            inst.battery, b_max_wh=b_max_wh))
    config = SolveConfig(instance=inst, scenarios=full_candidate_set(inst))
    if b_max_wh == 0.0:
        assert (config._engine.m, config._engine._moves) == (1, [0])
    assert_every_slot_matches(config, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# The move rank


def wide_moves():
    """One appliance on a 300 Wh, 1 Wh grid battery with 150 Wh rates:
    301 moves, under a band that admits every one of them."""
    inst = Instance(
        grid=TimeGrid(tau=3),
        appliances=(SchedulableAppliance(id="a", power_w=10.0,
                                         workload_wh=20.0, duration_slots=2),),
        ns_appliances=(),
        battery=Battery(b_max_wh=300.0, b_init_wh=0.0,
                        z_discharge_max_wh=150.0, z_charge_max_wh=150.0,
                        grid_step_wh=1.0),
        price=PriceSignal((0.3, 0.1, 0.2)),
        policy=PrivacyPolicy(lambda_w=1000.0, l_bar_w=0.0))
    return SolveConfig(instance=inst,
                       scenarios=ScenarioSet((PrivacyScenario.inactive(0),)))


def assert_moves_in_rank_order(eng):
    # rank 0 is move 0, which the slot solver adds without a compare
    assert eng._moves[0] == 0
    assert eng._moves == sorted(eng._moves, key=lambda k: (abs(k), k))
    assert eng._moves_i32.tolist() == eng._moves


def test_a_rank_wider_than_one_byte_matches_the_per_option_loop():
    config = wide_moves()
    eng = config._engine
    assert len(eng._moves) == 301 and eng._rank_dtype == np.uint16
    assert_moves_in_rank_order(eng)
    assert_every_slot_matches(config, np.random.default_rng(0))
    # some cell picks a move ranked past 255: |k| >= 128
    f_next = random_continuation(np.random.default_rng(1), (eng.n_r, eng.m))
    _, _, dec_step = solve_slot(eng, config, 1, f_next)
    assert np.abs(dec_step).max() >= 128


@pytest.mark.parametrize("preset", preset_names())
def test_preset_ranks_fit_one_byte(preset):
    eng = SolveConfig(instance=load_config(preset).instance)._engine
    assert eng._rank_dtype == np.uint8
    assert_moves_in_rank_order(eng)


# ---------------------------------------------------------------------------
# The tie-break key


def test_the_tie_key_fits_63_bits_and_no_more():
    # 3 bits of n_starts, 30 of |k| and 30 of row: 63 bits
    assert _tie_key_shifts(7, 1 << 30, (1 << 30) - 1) == (30, 60)
    # one row and no moves: nothing but n_starts
    assert _tie_key_shifts(0, 1, 0) == (0, 0)
    for n_app, n_rows, k_max in ((8, 1 << 30, (1 << 30) - 1),
                                 (7, (1 << 30) + 1, (1 << 30) - 1),
                                 (7, 1 << 30, 1 << 30)):
        with pytest.raises(StateSpaceError, match="needs 64 bits") as err:
            _tie_key_shifts(n_app, n_rows, k_max)
        assert err.value.count == 64 and err.value.cap == 63


def test_tie_key_fields_are_as_wide_as_the_engine_needs():
    # section-iv-a: 3 appliances, moves of up to 10 steps, at most
    # 4 * 5 * 6 = 120 rows per slot
    eng = SolveConfig(instance=load_config("section-iv-a").instance)._engine
    assert (eng._k_shift, eng._n_shift) == (7, 11)
    assert len(eng.options(1).mask) == 120


def test_a_shape_whose_tie_key_overflows_exits_2_before_any_solve(
        monkeypatch, tmp_path, capsys):
    # every row count taken 2^60 times larger: 2 + 4 + 67 bits
    check = table_module._tie_key_shifts
    monkeypatch.setattr(table_module, "_tie_key_shifts",
                        lambda n_app, n_rows, k_max:
                        check(n_app, n_rows << 60, k_max))
    solved = []
    monkeypatch.setattr(_Engine, "solve_slot",
                        lambda self, t, *args: solved.append(t))
    _engines.cache_clear()
    code = main(["solve", "--config", "section-iv-a",
                 "--out", str(tmp_path / "run")])
    assert code == 2 and solved == []
    assert ("the slot solver's tie-break key needs 73 bits"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Option tables


def test_option_tables_are_built_once_per_instance_shape():
    inst = load_config("section-iv-a").instance
    _option_tables.cache_clear()
    # 0 Wh is infeasible and runs the lambda bisection
    points = sweep_battery(inst, (0.0, 250.0))
    assert [p.feasible for p in points] == [False, True]
    info = _option_tables.cache_info()
    assert info.misses == 1
    assert info.hits > 0


def test_making_an_engine_builds_no_option_tables():
    _engines.cache_clear()
    _option_tables.cache_clear()
    SolveConfig(instance=load_config("section-iv-a").instance)._engine
    assert _engines.cache_info().misses == 1
    assert _option_tables.cache_info().currsize == 0


def test_option_tables_are_read_only():
    eng = SolveConfig(instance=load_config("table-ii").instance)._engine
    opts = eng.options(1)
    names = [f.name for f in dataclasses.fields(opts)]
    assert names == ["mask", "y_w", "r_next", "block", "r_first",
                     "n_starts", "order", "rank", "row_of"]
    for name in names:
        arr = getattr(opts, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_option_tables_hold_the_block_layout():
    eng = SolveConfig(instance=load_config("table-ii").instance)._engine
    for t in range(1, eng.tau + 1):
        opts = eng.options(t)
        n_rows = len(opts.mask)
        # the window order sorts the rows by draw, ties in row order
        assert opts.order.tolist() == sorted(range(n_rows),
                                             key=lambda i: opts.y_w[i])
        assert opts.rank[opts.order].tolist() == list(range(n_rows))
        # blocks are numbered in row order, with no gap
        assert opts.block[0] == 0
        assert set(np.diff(opts.block).tolist()) <= {0, 1}
        # each block is one vector's, vectors ascending
        assert (np.diff(opts.r_first) > 0).all()


@pytest.mark.parametrize("source", ["presets", "random", "tie-heavy"])
def test_blocks_align_to_their_size_when_sorted_by_it(source):
    # the slot solver's min-tree rests on this: a vector with s startable
    # appliances has one row per start set, 2**s, or none when doomed, so
    # with the blocks listed largest first each starts at a multiple of
    # its own size
    instances = {
        "presets": lambda: [load_config(name).instance
                            for name in preset_names()],
        "random": lambda: [random_small_instance(seed) for seed in range(50)],
        "tie-heavy": lambda: [tie_heavy(2.0).instance]}[source]()
    largest = 0
    for inst in instances:
        durations = tuple(a.duration_slots for a in inst.appliances)
        r_combos = _vectors(durations)[0]
        for opts in _option_tables(durations,
                                   tuple(a.power_w for a in inst.appliances),
                                   inst.grid.tau):
            sizes = np.bincount(opts.block)
            for r_i, size in zip(opts.r_first.tolist(), sizes.tolist()):
                startable = [r == d for r, d in zip(r_combos[r_i], durations)]
                assert size == 1 << startable.count(True)
            sizes = np.sort(sizes)[::-1]
            assert ((np.cumsum(sizes) - sizes) % sizes == 0).all()
            largest = max(largest, int(sizes[0]))
    if source == "tie-heavy":
        # four appliances, all startable at slot 1
        assert largest == 16


def section_iv_a(capacity_wh, lambda_w=100.0):
    inst = load_config("section-iv-a").instance
    return dataclasses.replace(
        inst, battery=dataclasses.replace(inst.battery, b_max_wh=capacity_wh),
        policy=dataclasses.replace(inst.policy, lambda_w=lambda_w))


def test_engines_of_one_shape_share_the_option_tables():
    engines = [SolveConfig(instance=section_iv_a(cap, lam),
                           scenarios=ScenarioSet.base(2))._engine
               for cap in (0.0, 250.0, 750.0) for lam in (80.0, 200.0)]
    # one engine per capacity, whatever the lambda
    assert len({eng.m for eng in engines}) == len(set(map(id, engines))) == 3
    assert all(a is b for a, b in zip(engines[::2], engines[1::2]))
    one = engines[0]
    for eng in engines:
        assert eng.r_combos is one.r_combos and eng.r_index is one.r_index
        for t in range(1, one.tau + 1):
            assert eng.options(t) is one.options(t)


def test_interleaved_builds_equal_standalone_builds():
    # consecutive builds change the scenario set, then lambda, then the
    # capacity, so a build that read another build's band or envelope off
    # the shared engine would show
    placement = candidate_scenarios(section_iv_a(0.0).ns_appliances,
                                    section_iv_a(0.0).grid)[0]
    omegas = (ScenarioSet.base(2), ScenarioSet.base(2).with_scenario(placement))
    configs = [SolveConfig(instance=section_iv_a(cap, lam), scenarios=omega)
               for cap in (0.0, 250.0) for lam in (100.0, 200.0)
               for omega in omegas]
    alone = []
    for config in configs:
        _engines.cache_clear()
        _option_tables.cache_clear()
        _vectors.cache_clear()
        alone.append(backward_recursion(config))
    # every standalone table differs from every other
    assert len({t.values.tobytes() + t.dec_mask.tobytes()
                + t.dec_step.tobytes() for t in alone}) == len(alone)
    for config, want in zip(configs + configs[::-1], alone + alone[::-1]):
        assert_same_table(backward_recursion(config), want)


# ---------------------------------------------------------------------------
# One engine per instance


def count_engines(monkeypatch) -> list:
    """Clear the engine cache; the list grows by one per engine made."""
    made = []
    init = _Engine.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    _engines.cache_clear()
    monkeypatch.setattr(_Engine, "__init__", counted)
    return made


def test_a_cold_sweep_makes_one_engine_per_capacity(monkeypatch):
    # sweep-tight's capacities: 23 builds, 15 of them lambda probes
    cfg = load_config("section-iv-a")
    builds = []
    build = scenarios.backward_recursion

    def traced(config, *held):
        builds.append(config.instance.policy.lambda_w)
        return build(config, *held)

    monkeypatch.setattr(scenarios, "backward_recursion", traced)
    made = count_engines(monkeypatch)
    points = sweep_battery(cfg.instance, (0.0, 250.0), cfg.options,
                           cfg.state_cap)
    assert [p.feasible for p in points] == [False, True]
    assert len(builds) == 23
    assert sum(lam != cfg.instance.policy.lambda_w for lam in builds) == 15
    assert len(made) == 2


def test_usage_appliances_share_the_engine():
    # the engine never reads the non-schedulable appliances: a build reads
    # usage only through its config's envelope
    inst = load_config("section-iv-a").instance
    _engines.cache_clear()
    with_ns = SolveConfig(instance=inst)._engine
    without = SolveConfig(
        instance=dataclasses.replace(inst, ns_appliances=()))._engine
    assert with_ns is without
    assert _engines.cache_info().misses == 1


def test_the_state_cap_shapes_no_engine():
    # the cap is checked before the lookup, so it is no part of the key
    inst = load_config("section-iv-a").instance
    _engines.cache_clear()
    tight = SolveConfig(instance=inst, state_cap=state_count(
        inst.appliances, inst.battery))._engine
    assert SolveConfig(instance=inst)._engine is tight
    assert _engines.cache_info().misses == 1
    with pytest.raises(StateSpaceError):
        SolveConfig(instance=inst, state_cap=state_count(
            inst.appliances, inst.battery) - 1)._engine


def test_loading_a_dump_makes_no_engine(tmp_path, monkeypatch):
    config = SolveConfig(instance=section_iv_a(250.0, 80.0),
                         scenarios=ScenarioSet.base(2))
    made = count_engines(monkeypatch)
    table = backward_recursion(config)
    path = str(tmp_path / "table.json")
    save_table(table, path)
    assert len(made) == 1
    for loaded in (open_table(path, config.instance),
                   load_table(path, config)):
        assert_same_table(loaded, table)
    assert len(made) == 1


def test_a_dead_slot_ends_the_sweep(monkeypatch):
    # at 0 Wh and lambda = 80 W the base scenario set leaves every cell
    # dead at slot 3, so slots 2 and 1 are never solved
    solved = []
    original = _Engine.solve_slot

    def counted(self, t, *args):
        solved.append(t)
        return original(self, t, *args)

    monkeypatch.setattr(_Engine, "solve_slot", counted)
    config = SolveConfig(instance=section_iv_a(0.0, 80.0),
                         scenarios=ScenarioSet.base(2))
    with pytest.raises(InfeasibleError) as err:
        backward_recursion(config)
    assert str(err.value) == (
        "SP infeasible under the configured scenario set: every branch "
        "from the initial state dies by slot 1")
    assert solved == list(range(12, 2, -1))


# ---------------------------------------------------------------------------
# Interned walk objects


def at_5_wh(inst):
    return dataclasses.replace(inst, battery=dataclasses.replace(
        inst.battery, grid_step_wh=5.0))


def walked_instances():
    """The presets as given and the 25 Wh ones at 5 Wh, seeds 0-49, and
    the benchmark households: solve-ns4's, replay-fine's (the 5 Wh
    section-iv-a) and sweep-tight's two capacities."""
    presets = [load_config(name).instance for name in preset_names()]
    yield from presets
    yield from (at_5_wh(inst) for inst in presets
                if inst.battery.grid_step_wh == 25.0)
    for seed in range(50):
        yield random_small_instance(seed, ns_count=1 + seed % 2)
    yield ns4_instance()
    for capacity in (0.0, 250.0):
        yield section_iv_a(capacity,
                           load_config("section-iv-a").instance.policy.lambda_w)


def loose_table(inst):
    """A build under a band that never binds."""
    return backward_recursion(SolveConfig(instance=inst)._at_lambda(1e9))


def engine_tables(inst):
    """Two tables of one engine: :func:`loose_table` and, when the
    instance solves, the refinement loop's table."""
    tables = [loose_table(inst)]
    try:
        tables.append(scenarios.solve_with_scenarios(inst).table)
    except InfeasibleError:
        pass
    assert tables[-1]._engine is tables[0]._engine
    return tables


def assert_walks_are_fresh(table, seen, most=100):
    """Walk ``table`` from its live slot-1 cells, at most about ``most``
    of them: every state, decision and started tuple equals the raw model's,
    made afresh, and a state or decision equal to one in ``seen`` is that
    object, a decision with that started tuple."""
    inst = table.config.instance
    quiet = PrivacyScenario((None,) * len(inst.ns_appliances))
    starts = [state for state in all_states(inst)
              if table.dec_mask[(0,) + reference_cell(inst, state)] >= 0]
    assert starts
    for state in starts[::max(1, len(starts) // most)]:
        walk = table.walk(state)
        want = reference_replay(table, state, quiet)
        got = (walk.decisions, walk.states, tuple(row[4] for row in walk.rows))
        started = tuple(tuple(a.id for a, s in zip(inst.appliances, d.starts)
                              if s) for d in want.decisions)
        # repr also tells -0.0 from 0.0
        assert repr(got) == repr((want.decisions, want.states[1:], started))
        for cell in walk.states:
            assert seen.setdefault(cell, cell) is cell
        for pair in zip(walk.decisions, got[2]):
            held = seen.setdefault(pair[0], pair)
            assert held[0] is pair[0] and held[1] is pair[1]


def test_walks_share_their_engines_fresh_states_and_decisions():
    # only the first instance's table is kept: the others' engines die
    # once the cache drops them, and a new engine may reuse their ids
    _engines.cache_clear()
    first = None
    for inst in walked_instances():
        tables = engine_tables(inst)
        seen = {}
        for table in tables:
            assert_walks_are_fresh(table, seen)
        if first is None:
            first, first_seen = tables[0], seen
    assert _engines.cache_info().misses > _engines.cache_info().maxsize
    # the first engine has left the cache but lives on in its table: a
    # new table of its config walks with the objects its engine made
    assert SolveConfig(instance=first.config.instance)._engine \
        is not first._engine
    assert_walks_are_fresh(backward_recursion(first.config), first_seen)
    # many more engines, each dropped after its walks: a new engine often
    # takes a dead one's id, so nothing may be interned by engine id
    for seed in range(50, 250):
        inst = random_small_instance(seed, ns_count=1 + seed % 2)
        assert_walks_are_fresh(loose_table(inst), {}, most=10)


# ---------------------------------------------------------------------------
# Pinned table digests

#: SHA-256 over the little-endian bytes of values, dec_mask and dec_step,
#: per preset and grid-step scale, built against the base scenario and
#: every placement
TABLE_DIGESTS = {
    ("motivating-example", 1.0):
        "08e11c9f292925e68f23e9817d11403e21337994407daa7c734a024ec78782b7",
    ("motivating-example", 0.2):
        "5016da3f49f40805bba6c66a92f1ee84354c407f42b2783e3333693972fbaa67",
    ("section-iv-a", 1.0):
        "64686df59a1fdb96a59882664da5c40aac6b5f08b726345bb8542451cbe9d40b",
    ("section-iv-a", 0.2):
        "2168a2d3bd9617c4e1e5c1a075279cdc8df97382c153424c470d5b82ae5d4cee",
    ("section-iv-a", 0.04):
        "954bce91fc779ee1f297b4bfee3b80481aa408b56355436242bdcb7bbd0e3188",
    ("table-ii", 1.0):
        "1f980661d82855e27dbee53cbdd0900b2324343e7f4032080f8237925d877544",
    ("table-ii", 0.2):
        "ad56970a9085957ffee656ea3145c1a788bdd7458fd345b774d342c3bfc1b239",
}


@pytest.mark.parametrize("preset, scale", sorted(TABLE_DIGESTS))
def test_preset_tables_keep_their_digests(preset, scale):
    inst = load_config(preset).instance
    battery = inst.battery
    inst = dataclasses.replace(inst, battery=dataclasses.replace(
        battery, grid_step_wh=battery.grid_step_wh * scale))
    omega = ScenarioSet(
        (PrivacyScenario.inactive(len(inst.ns_appliances)),)
        + tuple(candidate_scenarios(inst.ns_appliances, inst.grid)))
    table = backward_recursion(SolveConfig(instance=inst, scenarios=omega))
    digest = hashlib.sha256()
    for arr, dtype in ((table.values, "<f8"), (table.dec_mask, "<i4"),
                       (table.dec_step, "<i4")):
        digest.update(arr.astype(dtype, copy=False).tobytes())
    assert digest.hexdigest() == TABLE_DIGESTS[preset, scale]


def finer_slots(inst, factor, grid_step_wh):
    """``inst`` at ``factor`` times as many, ``factor`` times shorter slots.

    Durations, runtimes and zones are stretched by ``factor``, each price
    is repeated ``factor`` times and the battery rates per slot shrink by
    ``factor``; powers and the band stay.
    """
    battery = inst.battery
    return dataclasses.replace(
        inst,
        grid=TimeGrid(tau=inst.grid.tau * factor,
                      slot_hours=inst.grid.slot_hours / factor),
        appliances=tuple(
            dataclasses.replace(a, duration_slots=a.duration_slots * factor)
            for a in inst.appliances),
        ns_appliances=tuple(
            dataclasses.replace(a, runtime_slots=a.runtime_slots * factor,
                                zone=((a.zone[0] - 1) * factor + 1,
                                      a.zone[1] * factor))
            for a in inst.ns_appliances),
        battery=dataclasses.replace(
            battery, z_discharge_max_wh=battery.z_discharge_max_wh / factor,
            z_charge_max_wh=battery.z_charge_max_wh / factor,
            grid_step_wh=grid_step_wh),
        price=PriceSignal(tuple(p for p in inst.price.values
                                for _ in range(factor))))


def table_digest(table):
    """TABLE_DIGESTS' hash of a table."""
    digest = hashlib.sha256()
    for arr, dtype in ((table.values, "<f8"), (table.dec_mask, "<i4"),
                       (table.dec_step, "<i4")):
        digest.update(arr.astype(dtype, copy=False).tobytes())
    return digest.hexdigest()


#: As TABLE_DIGESTS, for section-iv-a at 2 and 4 slots per hour
#: (tau = 24 and 48), by factor and grid step
HORIZON_DIGESTS = {
    (2, 25.0):
        "7377c4ffbc2be3c7398c4d34ac534ae792967133a03bdd0f6c37dfdee4232eed",
    (4, 15.625):
        "9b9fcb8dcafd37d4de809a83695412c00725e8dfcdbd606c688d2491506776e2",
}


@pytest.mark.parametrize("factor, grid_step_wh", sorted(HORIZON_DIGESTS))
def test_finer_slot_tables_keep_their_digests(factor, grid_step_wh):
    inst = finer_slots(load_config("section-iv-a").instance, factor,
                       grid_step_wh)
    eng = SolveConfig(instance=inst)._engine
    assert (eng.tau, eng.n_r) == {2: (24, 315), 4: (48, 1989)}[factor]
    table = backward_recursion(SolveConfig(instance=inst,
                                           scenarios=full_candidate_set(inst)))
    assert table_digest(table) == HORIZON_DIGESTS[factor, grid_step_wh]


def ns4_instance():
    """solve-ns4's household: section-iv-a at 140 W plus two 10 W,
    2-slot usage appliances in zone 1-12."""
    raw = serialize(load_config("section-iv-a"))
    raw["privacy"]["lambda"] = 140.0
    for i in range(3, 5):
        raw["ns_appliances"].append({"id": f"ns{i}", "power": 10.0,
                                     "runtime_slots": 2, "zone": [1, 12]})
    return parse_config(raw).instance


#: As TABLE_DIGESTS, for the refinement loop's final table of two
#: benchmark instances: solve-ns4's household and section-iv-a at the
#: sweep's 250 Wh point, with the loop's build count.  The artifact
#: digests read only the walk; these read every cell
WORKLOAD_TABLE_DIGESTS = {
    "solve-ns4": (
        8, "8b63175a0d103f2338d81904257c971501cf07b06d3160b2d0df0b704b41deef"),
    "sweep-250Wh": (
        7, "199088888214e0a0e49ce5d4fbc381891536b9a5dd19ff0aae3656b23a312641"),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_TABLE_DIGESTS))
def test_workload_tables_keep_their_digests(name):
    if name == "solve-ns4":
        inst = ns4_instance()
    else:
        inst = section_iv_a(250.0, load_config("section-iv-a")
                            .instance.policy.lambda_w)
    result = scenarios.solve_with_scenarios(inst)
    assert (len(result.trace.records), table_digest(result.table)) \
        == WORKLOAD_TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", ["section-iv-a", "table-ii", "solve-ns4"])
def test_option_rows_draw_as_the_raw_model_sums(name):
    # every row's draw and next vector, bit for bit, as the raw model
    # derives them from the row's vector and start mask
    inst = (ns4_instance() if name == "solve-ns4"
            else load_config(name).instance)
    eng = SolveConfig(instance=inst)._engine
    durations = tuple(a.duration_slots for a in inst.appliances)
    powers = tuple(a.power_w for a in inst.appliances)
    rows = 0
    for t in range(1, eng.tau + 1):
        opts = eng.options(t)
        for row, (mask, block) in enumerate(zip(opts.mask.tolist(),
                                                opts.block.tolist())):
            now = SystemState(battery_wh=0.0,
                              remaining=eng.r_combos[opts.r_first[block]])
            decision = Decision(starts=tuple(bool(mask >> i & 1)
                                             for i in range(len(durations))),
                                battery_delta_wh=0.0)
            nxt = step_remaining(now, decision, durations)
            draw = appliance_load(now.remaining, nxt, powers)
            assert opts.y_w[row].hex() == draw.hex(), (t, now, mask)
            assert eng.r_combos[opts.r_next[row]] == nxt
            rows += 1
    assert rows == 1232


def test_option_rows_are_blocks_in_visit_order():
    eng = SolveConfig(instance=load_config("table-ii").instance)._engine
    for t in range(1, eng.tau + 1):
        opts = eng.options(t)
        starts = []
        for r_i, combo in enumerate(eng.r_combos):
            want = reference_options(eng, combo, t)
            rows = np.flatnonzero(opts.r_first[opts.block] == r_i)
            if want is None:
                assert len(rows) == 0
                continue
            # a vector's rows are one block, listed by (n_starts, skey)
            assert rows.tolist() == list(range(rows[0], rows[-1] + 1))
            starts.append(int(rows[0]))
            got = list(zip(opts.mask[rows].tolist(),
                           opts.n_starts[rows].tolist(),
                           opts.y_w[rows].tolist(),
                           opts.r_next[rows].tolist()))
            assert got == [(m, n, y, r) for m, _, n, y, r in
                           sorted(want, key=lambda o: (o[2], o[1]))]
        # vectors ascend, and each block starts where block says
        assert starts == sorted(starts) and starts[0] == 0
        assert np.flatnonzero(np.diff(opts.block, prepend=-1)).tolist() \
            == starts
