"""Backward recursion: state grid, table cells, extraction, persistence."""
import base64
import dataclasses
import hashlib
import itertools
import json
import math
import pickle
import tempfile
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paces import (Battery, ConfigError, Decision, InfeasibleError, Instance,
                   IntegrityError, ModelError, NonSchedulableAppliance,
                   PriceSignal, PrivacyPolicy, PrivacyScenario, ScenarioSet,
                   SchedulableAppliance, ScheduleTable, SolveConfig,
                   StateSpaceError, SystemState, TimeGrid,
                   backward_recursion, brute_force_solve, candidate_scenarios,
                   expected_total_cost, extract_schedule, load_config,
                   load_table, model_fingerprint, privacy_gap,
                   random_small_instance, read_table_header, save_table,
                   scenario_load, slot_cost, solve_with_scenarios,
                   state_count, sweep_battery)
from paces.table import (_HEADER_KEYS, OBJECTIVE_MODES, _Engine,
                         _nearest_feasible)
from raw_model import (all_states, appliance_load, reference_decisions,
                       step_remaining)
from table_checks import assert_same_table, replay


def app(name, power, duration):
    return SchedulableAppliance(id=name, power_w=power,
                                workload_wh=power * duration,
                                duration_slots=duration)


def make_instance(tau=4, appliances=None, ns=(), battery=None, prices=None,
                  lam=1e9, l_bar=100.0):
    appliances = appliances if appliances is not None else (app("a1", 100.0, 2),)
    battery = battery or Battery(b_max_wh=100.0, b_init_wh=0.0,
                                 z_discharge_max_wh=50.0, z_charge_max_wh=50.0,
                                 grid_step_wh=50.0)
    prices = prices or (0.1,) * tau
    return Instance(grid=TimeGrid(tau=tau), appliances=tuple(appliances),
                    ns_appliances=tuple(ns), battery=battery,
                    price=PriceSignal(tuple(prices)),
                    policy=PrivacyPolicy(lambda_w=lam, l_bar_w=l_bar))


def motivating_instance():
    return load_config("motivating-example").instance


def band_set(n_ns):
    """Scenario set that turns the privacy band on without any usage."""
    return ScenarioSet((PrivacyScenario.inactive(n_ns),))


def with_lambda(instance, lambda_w):
    return dataclasses.replace(instance, policy=dataclasses.replace(
        instance.policy, lambda_w=lambda_w))


def full_omega(instance):
    """Inactive plus every candidate placement of the usage appliances."""
    omega = band_set(len(instance.ns_appliances))
    for sc in candidate_scenarios(instance.ns_appliances, instance.grid):
        omega = omega.with_scenario(sc)
    return omega


class TestStateEnumeration:
    def test_count_is_levels_times_remaining_vectors(self):
        battery = Battery(b_max_wh=100.0, b_init_wh=0.0, z_discharge_max_wh=50.0,
                          z_charge_max_wh=50.0, grid_step_wh=50.0)
        assert state_count((app("a", 100.0, 2),), battery) == 3 * 3
        assert state_count((app("a", 100.0, 1), app("b", 100.0, 2)),
                           battery) == 3 * 2 * 3
        assert state_count((), battery) == 3

    def test_published_grid_has_240_states(self):
        appliances = (app("a1", 35.38, 2), app("a2", 156.59, 3),
                      app("a3", 76.73, 4))
        battery = Battery(b_max_wh=750.0, b_init_wh=0.0,
                          z_discharge_max_wh=250.0, z_charge_max_wh=250.0,
                          grid_step_wh=250.0)
        count = state_count(appliances, battery)
        recount = len(list(itertools.product(
            range(battery.n_levels), range(3), range(4), range(5))))
        assert count == recount == 240

    def test_enumeration_is_battery_major_with_ascending_vectors(self):
        # the off-table diagnostic scores cells in this order and names the
        # first of equally near ones; a NaN level is equally far from all
        inst = make_instance(appliances=(app("a", 100.0, 1),))
        table = backward_recursion(SolveConfig(instance=inst))
        mask = np.zeros_like(table.dec_mask)
        lost = SystemState(battery_wh=math.nan, remaining=(0,))
        states = []
        for _ in range(mask[0].size):
            first = _nearest_feasible(
                ScheduleTable(table.config, table.values, mask.copy(),
                              table.dec_step, table.model_hash), lost, 1)
            states.append(first)
            mask[0, first.remaining[0],
                 inst.battery.level_index(first.battery_wh)] = -1
        assert states == all_states(inst) == [
            SystemState(battery_wh=0.0, remaining=(0,)),
            SystemState(battery_wh=0.0, remaining=(1,)),
            SystemState(battery_wh=50.0, remaining=(0,)),
            SystemState(battery_wh=50.0, remaining=(1,)),
            SystemState(battery_wh=100.0, remaining=(0,)),
            SystemState(battery_wh=100.0, remaining=(1,)),
        ]

    def test_cap_rejects_oversized_grids(self):
        inst = make_instance()  # 3 levels x 3 vectors = 9 states
        with pytest.raises(StateSpaceError) as err:
            backward_recursion(SolveConfig(instance=inst, state_cap=8))
        assert err.value.count == 9 and err.value.cap == 8

    def test_non_positive_cap_rejected(self):
        with pytest.raises(ModelError, match="state cap"):
            SolveConfig(instance=make_instance(), state_cap=0)

    @pytest.mark.parametrize("cap", [True, 2.0, 1e9, "9"])
    def test_a_cap_that_is_not_an_int_is_rejected(self, cap):
        with pytest.raises(ModelError,
                           match="state cap must be a positive integer"):
            SolveConfig(instance=make_instance(), state_cap=cap)

    @pytest.mark.parametrize("mode", OBJECTIVE_MODES)
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -0.5])
    def test_scenario_weights_must_be_finite_and_non_negative(self, weight,
                                                             mode):
        with pytest.raises(ModelError, match="finite and non-negative"):
            SolveConfig(instance=make_instance(), scenarios=band_set(0),
                        scenario_weights=(weight,), objective_mode=mode)


def model_leaf_fields(cls=Instance):
    """(class name, field) of every field that holds no model dataclass, in
    every model dataclass reachable from ``cls``."""
    def dataclasses_in(hint):
        if dataclasses.is_dataclass(hint):
            return [hint]
        return [c for arg in typing.get_args(hint) for c in dataclasses_in(arg)]

    leaves, seen, todo = [], set(), [cls]
    while todo:
        owner = todo.pop(0)
        if owner in seen:
            continue
        seen.add(owner)
        hints = typing.get_type_hints(owner)
        for f in dataclasses.fields(owner):
            inner = dataclasses_in(hints[f.name])
            todo.extend(inner)
            if not inner:
                leaves.append((owner.__name__, f.name))
    return leaves


def with_one_field(obj, owner, name, value):
    """``obj`` with field ``name`` of its first ``owner`` part set to
    ``value``.  Nothing is validated, so exactly one field changes."""
    if isinstance(obj, tuple):
        return (with_one_field(obj[0], owner, name, value),) + obj[1:]
    if not dataclasses.is_dataclass(obj):
        return obj
    new = object.__new__(type(obj))
    for f in dataclasses.fields(obj):
        if (type(obj).__name__, f.name) == (owner, name):
            part = value
        else:
            part = with_one_field(getattr(obj, f.name), owner, name, value)
        object.__setattr__(new, f.name, part)
    return new


class TestModelFingerprint:
    def test_stable_across_rebuilds(self):
        assert (model_fingerprint(SolveConfig(instance=make_instance()))
                == model_fingerprint(SolveConfig(instance=make_instance())))

    def test_is_hex_digest(self):
        digest = model_fingerprint(SolveConfig(instance=make_instance()))
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    # one new value per leaf field of the model, by owning class; a new
    # field anywhere under Instance fails the walk below until it is here
    EDITS = {
        ("TimeGrid", "tau"): 5,
        ("TimeGrid", "slot_hours"): 0.5,
        ("SchedulableAppliance", "id"): "a2",
        ("SchedulableAppliance", "power_w"): 101.0,
        ("SchedulableAppliance", "workload_wh"): 201.0,
        ("SchedulableAppliance", "duration_slots"): 3,
        ("NonSchedulableAppliance", "id"): "m",
        ("NonSchedulableAppliance", "power_w"): 51.0,
        ("NonSchedulableAppliance", "runtime_slots"): 2,
        ("NonSchedulableAppliance", "zone"): (1, 3),
        ("NonSchedulableAppliance", "start_prob"): (0.25, 0.75),
        ("Battery", "b_max_wh"): 150.0,
        ("Battery", "b_init_wh"): 50.0,
        ("Battery", "z_discharge_max_wh"): 100.0,
        ("Battery", "z_charge_max_wh"): 100.0,
        ("Battery", "grid_step_wh"): 25.0,
        ("PriceSignal", "values"): (0.2, 0.1, 0.1, 0.1),
        ("PrivacyPolicy", "lambda_w"): 123.0,
        ("PrivacyPolicy", "l_bar_w"): 321.0,
    }

    def test_sensitive_to_every_ingredient(self):
        inst = make_instance(ns=(NonSchedulableAppliance(
            id="n", power_w=50.0, runtime_slots=1, zone=(1, 2)),))
        assert sorted(self.EDITS) == sorted(model_leaf_fields())
        omega = ScenarioSet.base(1)
        digests = {model_fingerprint(SolveConfig(instance=inst,
                                                 scenarios=omega))}
        for (owner, name), value in self.EDITS.items():
            variant = with_one_field(inst, owner, name, value)
            assert variant != inst, (owner, name)
            digests.add(model_fingerprint(SolveConfig(instance=variant,
                                                      scenarios=omega)))
        digests.add(model_fingerprint(SolveConfig(
            instance=inst, scenarios=ScenarioSet((PrivacyScenario((1,)),)))))
        assert len(digests) == len(self.EDITS) + 2

    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(0.0, 1.0))
    def test_the_objective_and_the_weights_leave_the_hash(self, p):
        inst = make_instance(ns=(NonSchedulableAppliance(
            id="n", power_w=50.0, runtime_slots=1, zone=(1, 2)),))
        omega = ScenarioSet((PrivacyScenario((1,)), PrivacyScenario((2,))))
        digests = {model_fingerprint(SolveConfig(
            instance=inst, scenarios=omega, scenario_weights=weights,
            objective_mode=mode))
            for mode in OBJECTIVE_MODES for weights in (None, (p, 1.0 - p))}
        assert len(digests) == 1

    def test_is_the_documented_recipe(self):
        # the SHA-256 of the compact, key-sorted JSON of the instance's
        # fields by name and the scenario starts, as docs/formats.md has it
        inst = load_config("section-iv-a").instance
        omega = full_omega(inst)
        blob = json.dumps({"instance": dataclasses.asdict(inst),
                           "omega": [list(sc.starts) for sc in omega]},
                          sort_keys=True, separators=(",", ":"))
        assert model_fingerprint(SolveConfig(instance=inst, scenarios=omega)) \
            == hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestTerminalValue:
    def one_slot_config(self):
        inst = make_instance(
            tau=1, appliances=(app("a", 100.0, 1),),
            battery=Battery(b_max_wh=100.0, b_init_wh=50.0,
                            z_discharge_max_wh=50.0, z_charge_max_wh=50.0,
                            grid_step_wh=50.0),
            prices=(0.2,))
        return SolveConfig(instance=inst)

    def last_slot_entry(self, config, state):
        return backward_recursion(config).entry(config.instance.grid.tau,
                                                state)

    def test_forced_last_start_picks_cheapest_battery_move(self):
        config = self.one_slot_config()
        entry = self.last_slot_entry(
            config, SystemState(battery_wh=50.0, remaining=(1,)))
        # grid search over the three reachable battery moves
        best = min(0.2 * (100.0 + k * 50.0) for k in (-1, 0, 1))
        assert entry.feasible
        assert entry.value == pytest.approx(best, abs=1e-12)
        assert entry.value == pytest.approx(10.0, abs=1e-12)
        assert entry.decision == Decision(starts=(True,), battery_delta_wh=-50.0)

    def test_finished_work_still_drains_the_battery(self):
        config = self.one_slot_config()
        entry = self.last_slot_entry(
            config, SystemState(battery_wh=50.0, remaining=(0,)))
        assert entry.feasible
        assert entry.value == pytest.approx(-10.0, abs=1e-12)
        assert entry.decision == Decision(starts=(False,),
                                          battery_delta_wh=-50.0)

    def test_unstarted_long_appliance_is_infeasible_at_the_horizon(self):
        config = SolveConfig(instance=make_instance(tau=2))
        entry = self.last_slot_entry(
            config, SystemState(battery_wh=0.0, remaining=(2,)))
        assert not entry.feasible
        assert entry.decision is None
        assert np.isinf(entry.value)


class TestFeasibleDecisions:
    """The raw-model reference pinned by hand, and the table cells that
    follow the same rules."""

    def test_orders_by_start_set_then_battery_move(self):
        config = SolveConfig(instance=make_instance())
        state = SystemState(battery_wh=0.0, remaining=(2,))
        decisions = reference_decisions(state, 1, config)
        assert decisions == [
            Decision(starts=(False,), battery_delta_wh=0.0),
            Decision(starts=(False,), battery_delta_wh=50.0),
            Decision(starts=(True,), battery_delta_wh=0.0),
            Decision(starts=(True,), battery_delta_wh=50.0),
        ]
        assert backward_recursion(config).entry(1, state).decision \
            in decisions

    def test_missed_deadline_leaves_nothing(self):
        config = SolveConfig(instance=make_instance())  # duration 2, tau 4
        state = SystemState(battery_wh=0.0, remaining=(2,))
        assert reference_decisions(state, 4, config) == []
        assert reference_decisions(state, 3, config) != []
        table = backward_recursion(config)
        assert not table.entry(4, state).feasible
        assert table.entry(3, state).feasible

    def test_scenario_band_filters_decisions(self):
        inst = motivating_instance()
        usage = PrivacyScenario(starts=(2,))
        constrained = SolveConfig(instance=inst,
                                  scenarios=ScenarioSet((usage,)))
        state = SystemState(battery_wh=0.0, remaining=(2, 3))
        decisions = reference_decisions(state, 2, constrained)
        assert decisions == [
            Decision(starts=(False, False), battery_delta_wh=0.0),
            Decision(starts=(False, False), battery_delta_wh=10000.0),
            Decision(starts=(False, True), battery_delta_wh=0.0),
            Decision(starts=(False, True), battery_delta_wh=10000.0),
            Decision(starts=(True, False), battery_delta_wh=0.0),
            Decision(starts=(True, False), battery_delta_wh=10000.0),
        ]
        entry = backward_recursion(constrained).entry(2, state)
        assert entry.feasible and entry.decision in decisions

    def test_band_off_allows_the_double_start(self):
        inst = motivating_instance()
        config = SolveConfig(instance=inst)
        state = SystemState(battery_wh=0.0, remaining=(2, 3))
        decisions = reference_decisions(state, 2, config)
        assert any(d.starts == (True, True) for d in decisions)
        # the builder offers it too, with a non-empty battery window
        eng = config._engine
        opts = eng.options(2)
        rows = ((opts.r_first[opts.block] == eng.r_index[state.remaining])
                & (opts.mask == 3))
        k_lo, k_hi = eng.k_windows(opts.y_w[rows], inst.policy,
                                   config._envelope[2])
        assert rows.sum() == 1 and k_lo[0] <= k_hi[0]

    def test_rejects_off_grid_states(self):
        table = backward_recursion(SolveConfig(instance=make_instance()))
        with pytest.raises(ModelError, match="grid"):
            table.entry(1, SystemState(battery_wh=25.0, remaining=(2,)))
        with pytest.raises(ModelError, match="remaining"):
            table.entry(1, SystemState(battery_wh=0.0, remaining=(5,)))
        with pytest.raises(ModelError, match="appliances"):
            table.entry(1, SystemState(battery_wh=0.0, remaining=(2, 2)))


def assert_bellman_consistent(table):
    """Re-derive every feasible cell from its successor via the model ops."""
    inst = table.config.instance
    h = inst.grid.slot_hours
    tau = inst.grid.tau
    bat = inst.battery
    done = (0,) * len(inst.appliances)
    for t in range(1, tau + 1):
        for state in all_states(inst):
            entry = table.entry(t, state)
            if not entry.feasible:
                continue
            decision = entry.decision
            nxt_remaining = step_remaining(state, decision, inst.durations)
            delta = decision.battery_delta_wh
            assert -bat.z_discharge_max_wh <= delta <= bat.z_charge_max_wh
            # raises when the move leaves the grid or the pack
            next_level = (bat.level_index(state.battery_wh + delta)
                          * bat.grid_step_wh)
            y = appliance_load(state.remaining, nxt_remaining, inst.powers_w)
            stage = slot_cost(y + decision.battery_delta_wh / h,
                              inst.price.at(t), h)
            successor = SystemState(battery_wh=next_level,
                                    remaining=nxt_remaining)
            if t < tau:
                continuation = table.entry(t + 1, successor).value
            else:
                assert successor.remaining == done
                continuation = 0.0
            assert entry.value == pytest.approx(stage + continuation,
                                                abs=1e-9, rel=1e-9)


class TestBackwardRecursion:
    def test_plain_band_schedule_defers_the_load(self):
        inst = motivating_instance()
        table = backward_recursion(SolveConfig(instance=inst,
                                               scenarios=band_set(1)))
        assert table.initial_value() == pytest.approx(8.5, abs=1e-9)
        solution = extract_schedule(table, inst.initial_state())
        assert solution.base_load_w == pytest.approx(
            (0.0, 30000.0, 70000.0, 70000.0), abs=1e-9)
        assert all(d.battery_delta_wh == 0.0 for d in solution.decisions)
        assert solution.controllable_cost == pytest.approx(8.5, abs=1e-9)

    def test_usage_scenarios_reshape_the_schedule(self):
        inst = motivating_instance()
        omega = full_omega(inst)
        table = backward_recursion(SolveConfig(instance=inst, scenarios=omega))
        solution = extract_schedule(table, inst.initial_state())
        assert solution.base_load_w == pytest.approx(
            (0.0, 40000.0, 60000.0, 70000.0), abs=1e-9)
        deltas = tuple(d.battery_delta_wh for d in solution.decisions)
        assert deltas == pytest.approx((0.0, 10000.0, -10000.0, 0.0), abs=1e-9)
        assert solution.decisions[1].starts == (False, True)
        assert solution.decisions[2].starts == (True, False)
        assert solution.controllable_cost == pytest.approx(8.5, abs=1e-9)
        lam = inst.policy.lambda_w
        for scenario in omega:
            for t, base in enumerate(solution.base_load_w, start=1):
                load = base + scenario_load(scenario, inst.ns_appliances, t)
                assert abs(privacy_gap(load, inst.policy)) <= lam + 1e-6

    def test_cells_satisfy_the_recursion(self):
        inst = motivating_instance()
        table = backward_recursion(SolveConfig(instance=inst,
                                               scenarios=full_omega(inst)))
        assert_bellman_consistent(table)

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_random_instances_satisfy_the_recursion(self, seed):
        inst = random_small_instance(seed)
        table = backward_recursion(SolveConfig(
            instance=inst, scenarios=band_set(len(inst.ns_appliances))))
        assert_bellman_consistent(table)

    def test_table_decisions_are_admissible(self):
        instances = [motivating_instance()]
        instances += [random_small_instance(seed) for seed in range(60)]
        tables = [backward_recursion(SolveConfig(instance=inst,
                                                 scenarios=full_omega(inst)))
                  for inst in instances]
        # the seeds hold at most two schedulable appliances, where a draw
        # sums alike in any order; table-ii's hardened table holds three
        cfg = load_config("table-ii")
        tables.append(solve_with_scenarios(cfg.instance, cfg.options,
                                           cfg.state_cap).table)
        for table in tables:
            config = table.config
            for t in range(1, config.instance.grid.tau + 1):
                for state in all_states(config.instance):
                    entry = table.entry(t, state)
                    if entry.feasible:
                        assert entry.decision in reference_decisions(
                            state, t, config), (t, state)

    def test_matches_exhaustive_search(self):
        for seed in range(100, 120):
            inst = random_small_instance(seed)
            config = SolveConfig(instance=inst, scenarios=full_omega(inst))
            oracle = brute_force_solve(config)
            try:
                table = backward_recursion(config)
            except InfeasibleError:
                assert not oracle.feasible, f"seed {seed}"
                continue
            assert oracle.feasible, f"seed {seed}"
            assert table.initial_value() == pytest.approx(
                oracle.controllable_cost, abs=1e-9), f"seed {seed}"
            solution = extract_schedule(table, inst.initial_state())
            assert expected_total_cost(config, solution.controllable_cost) \
                == pytest.approx(oracle.expected_cost, abs=1e-9), f"seed {seed}"

    def test_relaxing_the_band_never_costs_more(self):
        inst = motivating_instance()
        omega = full_omega(inst)
        values = []
        for lam in (40000.0, 50000.0, 70000.0, 1e9):
            relaxed = dataclasses.replace(
                inst, policy=PrivacyPolicy(lambda_w=lam,
                                           l_bar_w=inst.policy.l_bar_w))
            table = backward_recursion(SolveConfig(instance=relaxed,
                                                   scenarios=omega))
            values.append(table.initial_value())
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_extra_capacity_never_costs_more(self):
        inst = motivating_instance()
        omega = full_omega(inst)
        values = []
        for b_max in (20000.0, 30000.0, 40000.0):
            bigger = dataclasses.replace(
                inst, battery=dataclasses.replace(inst.battery,
                                                  b_max_wh=b_max))
            table = backward_recursion(SolveConfig(instance=bigger,
                                                   scenarios=omega))
            values.append(table.initial_value())
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_ties_break_toward_fewer_starts_and_idle_battery(self):
        # constant tariff: any placement and any net-zero battery plan tie
        config = SolveConfig(instance=make_instance())
        table = backward_recursion(config)
        assert table.initial_value() == pytest.approx(20.0, abs=1e-12)
        solution = extract_schedule(
            table, config.instance.initial_state())
        assert [d.starts for d in solution.decisions] == [
            (False,), (False,), (True,), (False,)]
        assert all(d.battery_delta_wh == 0.0 for d in solution.decisions)

    # about one seed in twenty-five has a tie that only the battery-move
    # rank settles between two start sets of the same size
    @pytest.mark.parametrize("seed", range(64))
    def test_every_cell_holds_the_tie_broken_minimum(self, seed):
        # integer powers, levels and a constant integer tariff keep every
        # value exact, so ties are real ties and compare with ==
        rng = np.random.default_rng(seed)
        tau = int(rng.integers(2, 5))
        appliances = [app(f"a{i}", float(rng.integers(1, 4)),
                          int(rng.integers(1, 3)))
                      for i in range(int(rng.integers(2, 4)))]
        battery = Battery(b_max_wh=float(rng.integers(1, 4)),
                          b_init_wh=0.0,
                          z_discharge_max_wh=float(rng.integers(1, 3)),
                          z_charge_max_wh=float(rng.integers(1, 3)),
                          grid_step_wh=1.0)
        inst = make_instance(tau=tau, appliances=appliances, battery=battery,
                             prices=(float(rng.integers(1, 4)),) * tau,
                             lam=float(rng.integers(2, 8)),
                             l_bar=float(rng.integers(0, 6)))
        config = SolveConfig(instance=inst,
                             scenarios=band_set(0) if seed % 2 else
                             ScenarioSet.empty())
        table = backward_recursion(config)
        done = (0,) * len(appliances)

        def ranked(state, t):
            for d in reference_decisions(state, t, config):
                nxt = SystemState(
                    battery_wh=state.battery_wh + d.battery_delta_wh,
                    remaining=step_remaining(state, d, inst.durations))
                if t < tau:
                    cont = table.entry(t + 1, nxt).value
                else:
                    cont = 0.0 if nxt.remaining == done else np.inf
                value = slot_cost(
                    appliance_load(state.remaining, nxt.remaining,
                                   inst.powers_w) + d.battery_delta_wh,
                    inst.price.at(t), 1.0) + cont
                if np.isfinite(value):
                    k = int(d.battery_delta_wh)
                    yield (value, sum(d.starts), abs(k), d.starts, k), d

        for t in range(1, tau + 1):
            for state in all_states(inst):
                entry = table.entry(t, state)
                best = min(ranked(state, t), default=None,
                           key=lambda pair: pair[0])
                if best is None:
                    assert not entry.feasible, (t, state)
                else:
                    assert entry.decision == best[1], (t, state)
                    assert entry.value == best[0][0], (t, state)

    def test_rebuild_is_bit_identical(self):
        inst = motivating_instance()
        config = SolveConfig(instance=inst, scenarios=full_omega(inst))
        first = backward_recursion(config)
        second = backward_recursion(config)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.dec_mask, second.dec_mask)
        assert np.array_equal(first.dec_step, second.dec_step)

    @pytest.mark.parametrize("rate", [1e308, 1e15])
    def test_rates_beyond_the_pack_build_the_whole_pack_table(self, rate):
        inst = motivating_instance()
        omega = full_omega(inst)

        def table(rate_wh):
            battery = dataclasses.replace(inst.battery,
                                          z_charge_max_wh=rate_wh,
                                          z_discharge_max_wh=rate_wh)
            return backward_recursion(SolveConfig(
                instance=dataclasses.replace(inst, battery=battery),
                scenarios=omega))

        whole, huge = table(inst.battery.b_max_wh), table(rate)
        assert np.array_equal(whole.values, huge.values)
        assert np.array_equal(whole.dec_mask, huge.dec_mask)
        assert np.array_equal(whole.dec_step, huge.dec_step)

    def test_infeasible_reports_the_earliest_dead_slot(self):
        inst = make_instance(
            tau=2,
            appliances=(app("a", 100.0, 1), app("b", 100.0, 1)),
            battery=Battery(b_max_wh=50.0, b_init_wh=0.0,
                            z_discharge_max_wh=0.0, z_charge_max_wh=0.0,
                            grid_step_wh=50.0),
            prices=(0.1, 0.1), lam=0.0, l_bar=0.0)
        config = SolveConfig(instance=inst, scenarios=band_set(0))
        with pytest.raises(InfeasibleError, match="dies by slot 1"):
            backward_recursion(config)

    def test_entry_validates_the_slot(self):
        table = backward_recursion(SolveConfig(instance=make_instance()))
        state = table.config.instance.initial_state()
        with pytest.raises(ModelError, match="outside horizon"):
            table.entry(0, state)
        with pytest.raises(ModelError, match="outside horizon"):
            table.entry(5, state)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 599),
           scale=st.sampled_from([1.0, 0.5, 0.2, 0.05]))
    def test_every_scenario_replays_inside_the_band(self, seed, scale):
        # lambda scaled down so the band binds, often on its edge
        inst = random_small_instance(seed, ns_count=seed % 3)
        inst = dataclasses.replace(inst, policy=dataclasses.replace(
            inst.policy, lambda_w=inst.policy.lambda_w * scale))
        omega = full_omega(inst)
        try:
            table = backward_recursion(SolveConfig(instance=inst,
                                                   scenarios=omega))
        except InfeasibleError:
            return
        bound_w = inst.policy.lambda_w + inst.policy.tolerance_w
        for sc in omega:
            report = replay(table, sc)
            assert report.scenario == sc
            assert all(abs(row.privacy_gap_w) <= bound_w
                       for row in report.rows)

    def test_dimensions_match_the_state_grid(self):
        inst = make_instance()
        table = backward_recursion(SolveConfig(instance=inst))
        assert table.tau == 4
        assert table.values.shape == (4, 3, 3)
        assert table.values[0].size == state_count(inst.appliances,
                                                   inst.battery)


class TestIncrementalRebuild:
    """A rebuild handed the previous table re-solves only what changed."""

    def build(self, config, previous=None):
        """The table and the slots its build solved, in solve order."""
        with mock.patch.object(_Engine, "solve_slot", autospec=True,
                               side_effect=_Engine.solve_slot) as solved:
            table = backward_recursion(config, previous)
        return table, [call.args[1] for call in solved.call_args_list]

    def test_the_sweep_starts_at_the_last_changed_slot(self):
        # beta's placement at slot 3 changes the envelope of slot 3 only
        inst = motivating_instance()
        base = backward_recursion(SolveConfig(instance=inst,
                                              scenarios=band_set(1)))
        config = SolveConfig(instance=inst,
                             scenarios=band_set(1).with_scenario(
                                 PrivacyScenario((3,))))
        table, solved = self.build(config, base)
        assert solved == [3, 2, 1]
        assert_same_table(table, backward_recursion(config))

    def test_an_unchanged_envelope_reuses_every_slot(self):
        inst = motivating_instance()
        config = SolveConfig(instance=inst, scenarios=ScenarioSet(
            (PrivacyScenario((2,)), PrivacyScenario((3,)))))
        previous = backward_recursion(config)
        # (None,) draws 0, which each slot's envelope already holds; an
        # equal instance is enough, it need not be the same object
        grown = SolveConfig(instance=dataclasses.replace(inst),
                            scenarios=config.scenarios.with_scenario(
                                PrivacyScenario((None,))))
        table, solved = self.build(grown, previous)
        assert solved == []
        assert_same_table(table, backward_recursion(grown))

    # another battery or tariff is another engine; the tariff leaves every
    # window as it was, so only the engine tells the tables apart
    @pytest.mark.parametrize("change", [
        lambda inst: dataclasses.replace(inst, battery=dataclasses.replace(
            inst.battery, z_charge_max_wh=20000.0,
            z_discharge_max_wh=20000.0)),
        lambda inst: dataclasses.replace(inst, price=PriceSignal(tuple(
            2 * p for p in inst.price.values))),
    ], ids=["battery", "price"])
    def test_a_table_of_another_instance_is_not_reused(self, change):
        inst = motivating_instance()
        omega = ScenarioSet((PrivacyScenario((3,)),))
        other = backward_recursion(SolveConfig(instance=change(inst),
                                               scenarios=omega))
        config = SolveConfig(instance=inst, scenarios=omega)
        scratch = backward_recursion(config)
        # same envelope, different table: reusing it would show
        assert other.values.tobytes() != scratch.values.tobytes()
        table, solved = self.build(config, other)
        assert solved == [4, 3, 2, 1]
        assert_same_table(table, scratch)

    # against the 40 kW band, 35 kW moves the windows of slot 3 and none
    # after it, 41 kW moves none
    @pytest.mark.parametrize("lam, want", [
        (35000.0, [3, 2, 1]), (41000.0, []),
    ], ids=["some-windows", "every-window"])
    def test_a_table_of_another_lambda_reuses_the_slots_whose_windows_agree(
            self, lam, want):
        inst = motivating_instance()
        omega = ScenarioSet((PrivacyScenario((3,)),))
        other = backward_recursion(SolveConfig(
            instance=with_lambda(inst, lam), scenarios=omega))
        config = SolveConfig(instance=inst, scenarios=omega)
        scratch = backward_recursion(config)
        # a different table, reused whole, would show
        assert ((other.values.tobytes() == scratch.values.tobytes())
                == (want == []))
        table, solved = self.build(config, other)
        assert solved == want
        assert_same_table(table, scratch)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 399), data=st.data())
    def test_an_earlier_table_of_the_engine_is_reused_exactly(self, seed,
                                                              data):
        # two configs of one engine, each with its own lambda and one of two
        # scenario sets, all drawn from few values, so the windows of some
        # slots agree and those of others do not
        inst = random_small_instance(seed, ns_count=1 + seed % 2)
        placements = (PrivacyScenario.inactive(len(inst.ns_appliances)),
                      *candidate_scenarios(inst.ns_appliances, inst.grid))
        subsets = st.lists(st.booleans(), min_size=len(placements),
                           max_size=len(placements))
        sets = [ScenarioSet(tuple(sc for sc, k in zip(placements, keep) if k))
                for keep in (data.draw(subsets), data.draw(subsets))]

        def config():
            scale = data.draw(st.sampled_from((0.2, 0.3, 0.45, 0.7, 1.0)))
            return SolveConfig(
                instance=with_lambda(inst, inst.policy.lambda_w * scale),
                scenarios=data.draw(st.sampled_from(sets)))

        a_config, b_config = config(), config()
        try:
            a = backward_recursion(a_config)
        except InfeasibleError:
            assume(False)
        eng = b_config._engine
        assert a._engine is eng
        offsets = eng.window_rows[1].tolist()
        differ = [t for t in range(1, eng.tau + 1)
                  if (a_config._windows[:, offsets[t - 1]:offsets[t]]
                      != b_config._windows[:, offsets[t - 1]:offsets[t]])
                  .any()]
        want = list(range(max(differ, default=0), 0, -1))
        tables = []
        for previous in (None, a):
            with mock.patch.object(_Engine, "solve_slot", autospec=True,
                                   side_effect=_Engine.solve_slot) as calls:
                try:
                    tables.append(backward_recursion(b_config, previous))
                except InfeasibleError:
                    tables.append(None)
        scratch, table = tables
        solved = [call.args[1] for call in calls.call_args_list]
        if scratch is None:
            # both raise, the reusing build at the first dead slot it meets
            assert table is None
            assert solved and solved == want[:len(solved)]
        else:
            assert solved == want
            assert_same_table(table, scratch)

    def test_an_infeasible_rebuild_still_raises(self):
        inst = dataclasses.replace(
            motivating_instance(),
            policy=PrivacyPolicy(lambda_w=1000.0, l_bar_w=35000.0))
        base = SolveConfig(instance=inst, scenarios=ScenarioSet.empty())
        previous = backward_recursion(base)
        with pytest.raises(InfeasibleError, match="dies by slot 1"):
            backward_recursion(SolveConfig(instance=inst,
                                           scenarios=band_set(1)), previous)


class TestExpectedTotalCost:
    def usage_config(self, runtime=1, zone=(1, 4), start_prob=None,
                     mode="expected"):
        ns = NonSchedulableAppliance(id="n", power_w=100.0,
                                     runtime_slots=runtime, zone=zone,
                                     start_prob=start_prob)
        inst = make_instance(prices=(0.1, 0.2, 0.3, 0.4), ns=(ns,))
        return SolveConfig(instance=inst, objective_mode=mode)

    def test_uniform_starts_average_the_run_prices(self):
        # runs cost 10, 20, 30, 40 with equal probability
        config = self.usage_config()
        assert expected_total_cost(config, 5.0) == pytest.approx(30.0,
                                                                 abs=1e-12)

    def test_custom_start_distribution(self):
        config = self.usage_config(start_prob=(0.5, 0.5, 0.0, 0.0))
        assert expected_total_cost(config, 5.0) == pytest.approx(20.0,
                                                                 abs=1e-12)

    def test_worst_case_prices_the_costliest_placement(self):
        config = self.usage_config(mode="worst-case-cost")
        assert expected_total_cost(config, 5.0) == pytest.approx(45.0,
                                                                 abs=1e-12)

    def test_multi_slot_runs_price_every_active_slot(self):
        config = self.usage_config(runtime=2, zone=(1, 3))
        # starts 1 and 2 cost 30 and 50
        assert expected_total_cost(config, 5.0) == pytest.approx(45.0,
                                                                 abs=1e-12)
        worst = self.usage_config(runtime=2, zone=(1, 3),
                                  mode="worst-case-cost")
        assert expected_total_cost(worst, 5.0) == pytest.approx(55.0,
                                                                abs=1e-12)

    def test_without_usage_appliances_it_is_the_controllable_cost(self):
        config = SolveConfig(instance=make_instance())
        assert expected_total_cost(config, 7.25) == 7.25


def built_tables(run):
    """Every table ``backward_recursion`` builds while ``run()`` runs, the
    refinement loop's and the lambda probes' included."""
    tables = []

    def build(*args, **kwargs):
        tables.append(backward_recursion(*args, **kwargs))
        return tables[-1]

    with mock.patch("paces.scenarios.backward_recursion", build):
        try:
            run()
        except InfeasibleError:
            pass
    return tables


def assert_round_trips(table):
    """A dump of ``table`` loads back read-only, with equal dtypes, shapes
    and bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "table.json")
        save_table(table, path)
        loaded = load_table(path, table.config)
    for name in ("values", "dec_mask", "dec_step"):
        saved, read = getattr(table, name), getattr(loaded, name)
        assert read.dtype == saved.dtype, name
        assert read.shape == saved.shape, name
        assert not read.flags.writeable, name
        assert read.tobytes() == saved.tobytes(), name


class TestPersistence:
    def build(self):
        inst = motivating_instance()
        config = SolveConfig(instance=inst, scenarios=band_set(1))
        return config, backward_recursion(config)

    # save_table keeps its format keyword; "json" is the only value
    @pytest.mark.parametrize("format", ["json"])
    def test_round_trip_preserves_every_cell(self, tmp_path, format):
        config, table = self.build()
        path = str(tmp_path / f"table.{format}")
        save_table(table, path, format=format)
        loaded = load_table(path, config)
        assert loaded.model_hash == table.model_hash
        assert np.array_equal(loaded.values, table.values)
        assert np.array_equal(loaded.dec_mask, table.dec_mask)
        assert np.array_equal(loaded.dec_step, table.dec_step)
        assert loaded.initial_value() == table.initial_value()
        state = config.instance.initial_state()
        assert loaded.entry(1, state) == table.entry(1, state)

    def test_header_summarizes_the_model(self, tmp_path):
        config, table = self.build()
        path = str(tmp_path / "table.json")
        save_table(table, path)
        header = read_table_header(path)
        assert header == {
            "format": "paces-table",
            "version": 5,
            "model_hash": table.model_hash,
            "body_sha256": hashlib.sha256(
                b"".join(self.body(table))).hexdigest(),
            "omega": [[None]],
            "weights": [1.0],
            "objective_mode": "expected",
        }

    def test_the_header_binds_as_the_benchmark_binds_it(self, tmp_path):
        # the benchmark's replay reads exactly these keys and makes its
        # SolveConfig from them, so a header change must fail here first
        config, table = self.build()
        path = str(tmp_path / "table.json")
        save_table(table, path)
        header = read_table_header(path)
        assert tuple(header) == _HEADER_KEYS == (
            "format", "version", "model_hash", "body_sha256", "omega",
            "weights", "objective_mode")
        omega = ScenarioSet(tuple(PrivacyScenario(starts=tuple(row))
                                  for row in header["omega"]))
        bound = SolveConfig(instance=config.instance, scenarios=omega,
                            scenario_weights=tuple(header["weights"]),
                            objective_mode=header["objective_mode"],
                            state_cap=config.state_cap)
        loaded = load_table(path, bound)
        assert loaded.model_hash == header["model_hash"] == table.model_hash
        assert_same_table(loaded, table)

    # every table a build makes, so every dump save_table writes of it,
    # rebuilds its values exactly: a loop's tables and its lambda probes
    # on random households, and the build against every candidate
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 299))
    def test_built_tables_round_trip_bit_equal(self, seed):
        inst = random_small_instance(seed, ns_count=1 + seed % 2)
        tables = built_tables(lambda: solve_with_scenarios(inst))
        try:
            tables.append(backward_recursion(SolveConfig(
                instance=inst, scenarios=full_omega(inst))))
        except InfeasibleError:
            pass
        assert tables
        for table in tables:
            assert_round_trips(table)

    def test_fine_grid_and_sweep_tables_round_trip_bit_equal(self):
        cfg = load_config("section-iv-a")
        fine = dataclasses.replace(cfg.instance, battery=dataclasses.replace(
            cfg.instance.battery, grid_step_wh=5.0))
        tables = built_tables(lambda: solve_with_scenarios(
            fine, cfg.options, cfg.state_cap))
        # 0 Wh is infeasible and runs the lambda bisection
        tables += built_tables(lambda: sweep_battery(
            cfg.instance, (0.0, 250.0), cfg.options, cfg.state_cap))
        assert len(tables) > 10
        for table in tables:
            assert_round_trips(table)

    # the battery range decides dec_step's type, the appliance count
    # dec_mask's: -50..50 steps and four appliances fit one byte each,
    # -200..200 steps and eight appliances two
    @pytest.mark.parametrize("steps, n_app, sizes", [
        (50, 4, (1, 1)), (200, 4, (1, 2)), (50, 8, (2, 1)), (127, 6, (1, 1)),
        (128, 7, (1, 2)),
    ])
    def test_each_array_is_stored_in_its_narrowest_integer_type(
            self, tmp_path, steps, n_app, sizes):
        inst = make_instance(
            tau=2, appliances=[app(f"a{i}", 1.0, 1) for i in range(n_app)],
            battery=Battery(b_max_wh=float(steps), b_init_wh=0.0,
                            z_discharge_max_wh=float(steps),
                            z_charge_max_wh=float(steps), grid_step_wh=1.0))
        table = backward_recursion(SolveConfig(instance=inst))
        path = tmp_path / "table.json"
        save_table(table, str(path))
        payload = json.loads(path.read_text())
        cells = table.dec_mask.size
        assert tuple(len(base64.b64decode(payload[name])) // cells
                     for name in ("dec_mask", "dec_step")) == sizes
        assert "values" not in payload
        assert_round_trips(table)

    def test_refuses_a_table_built_for_another_model(self, tmp_path):
        config, table = self.build()
        path = str(tmp_path / "table.json")
        save_table(table, path)
        other = dataclasses.replace(
            config.instance,
            policy=PrivacyPolicy(lambda_w=50000.0,
                                 l_bar_w=config.instance.policy.l_bar_w))
        with pytest.raises(IntegrityError, match="different model"):
            load_table(path, SolveConfig(instance=other, scenarios=band_set(1)))

    def test_refuses_unknown_versions(self, tmp_path):
        config, table = self.build()
        path = tmp_path / "table.json"
        save_table(table, str(path))
        payload = json.loads(path.read_text())
        for version in (1, 2, 3, 4, 6):
            payload["version"] = version
            path.write_text(json.dumps(payload))
            message = f"table version {version} unsupported, expected 5"
            with pytest.raises(IntegrityError, match=message):
                read_table_header(str(path))
            with pytest.raises(IntegrityError, match=message):
                load_table(str(path), config)

    def test_refuses_files_that_are_not_tables(self, tmp_path):
        config, _ = self.build()
        text = tmp_path / "junk.txt"
        text.write_text("not a table\n")
        with pytest.raises(IntegrityError, match="not a schedule-table dump"):
            load_table(str(text), config)
        pickled = tmp_path / "junk.bin"
        pickled.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(IntegrityError, match="not a schedule-table dump"):
            read_table_header(str(pickled))
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"format": "something-else"}\n')
        with pytest.raises(IntegrityError, match="not a schedule-table dump"):
            read_table_header(str(wrong))

    @staticmethod
    def body(table):
        """The two decision arrays' little-endian, C-order bytes, in hash
        order, each in the narrowest signed integer type that holds its
        range on the table's engine."""
        eng = table._engine
        ranges = ((table.dec_mask, -1, (1 << eng.n_app) - 1),
                  (table.dec_step, eng.k_rate_lo, eng.k_rate_hi))
        return tuple(
            arr.astype(next(f"<i{n}" for n in (1, 2, 4)
                            if -(1 << 8 * n - 1) <= lo
                            and hi < 1 << 8 * n - 1)).tobytes()
            for arr, lo, hi in ranges)

    @classmethod
    def full_payload(cls, table):
        """The whole dump as one dict, as the format describes it."""
        body = cls.body(table)
        dec_mask, dec_step = (base64.b64encode(raw).decode("ascii")
                              for raw in body)
        return {
            "format": "paces-table",
            "version": 5,
            "model_hash": table.model_hash,
            "body_sha256": hashlib.sha256(b"".join(body)).hexdigest(),
            "omega": [list(sc.starts) for sc in table.config.scenarios],
            "weights": list(table.config.resolved_weights()),
            "objective_mode": table.config.objective_mode,
            "dec_mask": dec_mask,
            "dec_step": dec_step,
        }

    @pytest.mark.parametrize("which", ["random-seed-1", "section-iv-a-5wh"])
    def test_dump_bytes_are_one_dumps_of_the_full_payload(self, tmp_path,
                                                         which):
        if which == "random-seed-1":
            inst = random_small_instance(1, ns_count=1)
        else:
            inst = load_config("section-iv-a").instance
            inst = dataclasses.replace(inst, battery=dataclasses.replace(
                inst.battery, grid_step_wh=5.0))
        table = backward_recursion(SolveConfig(
            instance=inst, scenarios=band_set(len(inst.ns_appliances))))
        assert np.isinf(table.values).any()
        path = tmp_path / "table.json"
        save_table(table, str(path))
        expected = json.dumps(self.full_payload(table), sort_keys=True,
                              separators=(",", ":")) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_non_finite_header_numbers_write_nothing(self, tmp_path,
                                                      monkeypatch):
        _, table = self.build()
        monkeypatch.setattr(SolveConfig, "resolved_weights",
                            lambda self: (math.inf,))
        path = tmp_path / "table.json"
        with pytest.raises(IntegrityError, match="non-finite number"):
            save_table(table, str(path))
        assert not path.exists()

    def test_rejects_unknown_formats_on_save(self, tmp_path):
        _, table = self.build()
        with pytest.raises(ConfigError, match="format"):
            save_table(table, str(tmp_path / "t.xml"), format="xml")
