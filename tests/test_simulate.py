"""Runtime replay of built tables and the battery-capacity sweep."""
import dataclasses
import functools
import hashlib
import importlib
import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paces import (Battery, ConfigError, EventScript, InfeasibleError,
                   Instance, IntegrityError, ModelError,
                   NonSchedulableAppliance, PriceSignal, PrivacyPolicy,
                   PrivacyScenario, ScenarioSet, SchedulableAppliance,
                   ScriptedStart, SolveConfig, SystemState, TimeGrid,
                   backward_recursion, extract_schedule, load_config,
                   load_table, open_table, random_small_instance,
                   runtime_lookup, save_table, scenario_load, simulate,
                   solve_with_scenarios, sweep_battery)
from paces.model import left_sum
from raw_model import (all_states, reference_cell, reference_replay,
                       reference_report_csv)
from table_checks import replay


def motivating():
    return load_config("motivating-example").instance


def solved_motivating():
    result = solve_with_scenarios(motivating())
    return result.table, result.config


def battery_only_table(prices=(0.2, 0.1)):
    inst = Instance(
        grid=TimeGrid(tau=len(prices)), appliances=(), ns_appliances=(),
        battery=Battery(b_max_wh=100.0, b_init_wh=100.0,
                        z_discharge_max_wh=50.0, z_charge_max_wh=50.0,
                        grid_step_wh=50.0),
        price=PriceSignal(tuple(prices)),
        policy=PrivacyPolicy(lambda_w=1e9, l_bar_w=100.0))
    config = SolveConfig(instance=inst)
    return backward_recursion(config), config


class TestEventScript:
    def test_exactly_one_source_is_required(self):
        with pytest.raises(ModelError, match="either explicit events"):
            EventScript()
        with pytest.raises(ModelError, match="either explicit events"):
            EventScript(events=(), sample_seed=3)

    # a bool is an int to Python: True would replay as seed 1
    @pytest.mark.parametrize("seed", [-1, 5.0, True, False])
    def test_sample_seeds_must_be_non_negative_integers(self, seed):
        with pytest.raises(ModelError, match="sample seed must be a "
                                             f"non-negative integer, got {seed}"):
            EventScript.sampled(seed)

    def test_empty_script_runs_nothing(self):
        assert EventScript.scripted(()).resolve(motivating()) \
            == PrivacyScenario((None,))

    def test_scripted_starts_follow_appliance_order(self):
        inst = load_config("section-iv-a").instance
        script = EventScript.scripted((ScriptedStart("ns2", 3),
                                       ScriptedStart("ns1", 8)))
        assert script.resolve(inst) == PrivacyScenario((8, 3))

    def test_unknown_appliances_are_rejected(self):
        script = EventScript.scripted((ScriptedStart("ghost", 2),))
        with pytest.raises(ModelError, match="unknown appliance 'ghost'"):
            script.resolve(motivating())

    @pytest.mark.parametrize("slot", [2.0, True, "2", None])
    def test_non_integer_slots_are_rejected(self, slot):
        with pytest.raises(ModelError, match="event slot must be an integer"):
            ScriptedStart("beta", slot)

    def test_double_starts_are_rejected(self):
        script = EventScript.scripted((ScriptedStart("beta", 2),
                                       ScriptedStart("beta", 3)))
        with pytest.raises(ModelError, match="twice"):
            script.resolve(motivating())

    def test_out_of_zone_starts_are_rejected(self):
        script = EventScript.scripted((ScriptedStart("beta", 4),))
        with pytest.raises(ModelError, match="does not fit zone"):
            script.resolve(motivating())

    def test_integral_slots_resolve_to_ints(self):
        script = EventScript.scripted((ScriptedStart("beta", np.int64(3)),))
        (start,) = script.resolve(motivating()).starts
        assert type(start) is int and start == 3

    def test_sampled_scripts_are_reproducible_and_in_zone(self):
        inst = load_config("section-iv-a").instance
        first = EventScript.sampled(42).resolve(inst)
        again = EventScript.sampled(42).resolve(inst)
        assert first == again
        for app, start in zip(inst.ns_appliances, first.starts):
            assert start in app.feasible_starts()
        drawn = {EventScript.sampled(seed).resolve(inst).starts
                 for seed in range(20)}
        assert len(drawn) > 1


def choice_starts(instance, seed):
    """One ``Generator.choice`` per appliance, in appliance order."""
    rng = np.random.default_rng(seed)
    starts = []
    for app in instance.ns_appliances:
        options = app.feasible_starts()
        pick = rng.choice(len(options), p=app.start_probabilities())
        starts.append(options[int(pick)])
    return tuple(starts)


class TestSampledDraws:
    """A sampled script places each appliance as ``Generator.choice`` does."""

    @pytest.mark.parametrize("preset", ["motivating-example", "table-ii",
                                        "section-iv-a"])
    def test_presets_draw_as_choice_does(self, preset):
        inst = load_config(preset).instance
        for seed in range(20_000):
            assert EventScript.sampled(seed).resolve(inst).starts \
                == choice_starts(inst, seed), seed

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(
               any),
           runtime=st.integers(1, 3), first=st.integers(1, 3),
           seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=5))
    def test_any_start_distribution_draws_as_choice_does(
            self, weights, runtime, first, seeds):
        # zero weights leave gaps that no uniform draw may land in
        total = sum(weights)
        app = NonSchedulableAppliance(
            id="ns", power_w=10.0, runtime_slots=runtime,
            zone=(first, first + len(weights) + runtime - 2),
            start_prob=tuple(w / total for w in weights))
        base = load_config("section-iv-a").instance
        grid = TimeGrid(tau=max(base.grid.tau, app.zone[1]))
        inst = dataclasses.replace(
            base, grid=grid, ns_appliances=(app,),
            price=PriceSignal((base.price.values * 2)[:grid.tau]))
        for seed in seeds:
            assert EventScript.sampled(seed).resolve(inst).starts \
                == choice_starts(inst, seed)

    def test_scripted_placements_draw_as_scenario_load_sums(self):
        # every placement of the three small appliances, which share slots,
        # with section-iv-a's 49 own placements taken in turn: all 49,000
        # would take seconds
        table = five_ns_table()
        inst = table.config.instance
        options = [[None] + app.feasible_starts()
                   for app in inst.ns_appliances]
        own = itertools.cycle(itertools.product(*options[:2]))
        for small in itertools.product(*options[2:]):
            scenario = PrivacyScenario(next(own) + small)
            report = replay(table, scenario)
            want = tuple(scenario_load(scenario, inst.ns_appliances, t)
                         for t in range(1, inst.grid.tau + 1))
            assert repr(tuple(r.ns_load_w for r in report.rows)) == repr(want)


@functools.lru_cache(maxsize=1)
def five_ns_table():
    """section-iv-a plus three small appliances, built under no scenario.

    With three or more appliances on one slot, the order of the sum
    shows: (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 round apart.
    """
    inst = load_config("section-iv-a").instance
    extra = tuple(NonSchedulableAppliance(id=f"ns{i}", power_w=power,
                                          runtime_slots=4, zone=(1, 12))
                  for i, power in ((3, 0.1), (4, 0.2), (5, 0.3)))
    inst = dataclasses.replace(inst,
                               ns_appliances=inst.ns_appliances + extra)
    return backward_recursion(SolveConfig(instance=inst))


class TestRuntimeLookup:
    def test_returns_the_tabulated_decision(self):
        table, config = solved_motivating()
        state = config.instance.initial_state()
        assert runtime_lookup(table, state, 1) == table.entry(1, state).decision

    def test_off_grid_states_are_integrity_errors(self):
        table, _ = solved_motivating()
        bad = SystemState(battery_wh=4321.0, remaining=(2, 3))
        with pytest.raises(IntegrityError,
                           match="not on the table grid") as err:
            runtime_lookup(table, bad, 1)
        assert "nearest tabulated feasible state" in str(err.value)
        assert "SystemState" in str(err.value)

    def test_dead_states_are_integrity_errors(self):
        table, _ = solved_motivating()
        # nothing started with one slot left: no decision can finish
        doomed = SystemState(battery_wh=0.0, remaining=(2, 3))
        with pytest.raises(IntegrityError,
                           match="no feasible decision") as err:
            runtime_lookup(table, doomed, 4)
        assert "nearest tabulated feasible state" in str(err.value)

    def test_walks_look_up_every_slot_the_same_way(self):
        table, _ = solved_motivating()
        bad = SystemState(battery_wh=4321.0, remaining=(2, 3))
        with pytest.raises(IntegrityError,
                           match="not on the table grid at slot 1") as err:
            extract_schedule(table, bad)
        assert "nearest tabulated feasible state" in str(err.value)


def another_households_placement(table):
    """Refuse two placements that are not for ``table``'s one appliance.

    A scenario of the wrong length is refused by ``scenario_load``, and a
    script naming an appliance the instance lacks by ``simulate``; both are
    model errors, raised before any walk.
    """
    with pytest.raises(ModelError) as err:
        scenario_load(PrivacyScenario((1, 2)),
                      table.config.instance.ns_appliances, 1)
    assert str(err.value) == "scenario places 2 appliances, instance has 1 appliances"
    with pytest.raises(ModelError) as err:
        simulate(table, EventScript.scripted([ScriptedStart("ns2", 1)]),
                 table.config)
    assert str(err.value) == "script starts unknown appliance 'ns2'"


def motivating_table():
    """A fresh motivating-example table, not yet walked."""
    inst = motivating()
    return backward_recursion(SolveConfig(instance=inst,
                                          scenarios=ScenarioSet.base(1)))


class TestWalkRefusals:
    """The forward walk refuses only its start state: a table is closed,
    so a walk from a live cell cannot fail."""

    def refusal(self, table, state=None):
        with pytest.raises(IntegrityError) as err:
            extract_schedule(table, state or motivating().initial_state())
        return str(err.value)

    def test_an_off_grid_initial_state(self):
        bad = SystemState(battery_wh=4321.0, remaining=(2, 3))
        assert self.refusal(motivating_table(), bad) == (
            "state SystemState(battery_wh=4321.0, remaining=(2, 3)) is not "
            "on the table grid at slot 1: battery level 4321.0 Wh is not on "
            "the 10000.0 Wh grid within [0, 20000.0]; nearest tabulated "
            "feasible state is SystemState(battery_wh=0.0, remaining=(2, 3))")

    def test_a_dead_start(self):
        # on table-ii, an empty battery with all work done cannot meet the
        # band at slot 1
        table = solve_with_scenarios(load_config("table-ii").instance).table
        dead = SystemState(battery_wh=0.0, remaining=(0, 0, 0))
        kept = dict(table._walks)  # the solve walked the initial state
        for _ in range(2):
            assert self.refusal(table, dead) == (
                "state SystemState(battery_wh=0.0, remaining=(0, 0, 0)) has "
                "no feasible decision at slot 1; nearest tabulated feasible "
                "state is SystemState(battery_wh=0.0, remaining=(2, 0, 0))")
        assert table._walks == kept

    def test_a_scenario_for_another_household(self):
        # refused before the walk starts, as a model error
        table = motivating_table()
        another_households_placement(table)
        assert table._walks == {}  # no walk was made


class TestWalkCache:
    """A table is read-only once made, keeps its walk, and keeps nothing
    from a refused start."""

    def test_a_made_table_refuses_edits(self, tmp_path):
        built = motivating_table()
        path = str(tmp_path / "table.json")
        save_table(built, path)
        loaded = load_table(path, built.config)
        opened = open_table(path, motivating())
        for table in (built, loaded, opened):
            assert table._walks == {}
            for arr in (table.values, table.dec_mask, table.dec_step):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[1, 11, 0] = -1

    def test_a_walked_table_refuses_edits(self):
        table = motivating_table()
        state = motivating().initial_state()
        walked = extract_schedule(table, state)
        for arr in (table.values, table.dec_mask, table.dec_step):
            with pytest.raises(ValueError, match="read-only"):
                arr[1, 11, 0] = -1
        assert extract_schedule(table, state) == walked

    def test_a_wrong_scenario_is_refused_again(self):
        table = motivating_table()
        extract_schedule(table, motivating().initial_state())
        for _ in range(2):
            another_households_placement(table)

    def test_an_off_grid_start_is_refused_after_a_walk(self):
        table = motivating_table()
        extract_schedule(table, motivating().initial_state())
        bad = SystemState(battery_wh=4321.0, remaining=(2, 3))
        for _ in range(2):
            with pytest.raises(IntegrityError, match="not on the table grid"):
                extract_schedule(table, bad)

    def test_the_start_state_is_the_callers(self):
        # an int level shares the walk of its grid cell, and is echoed as given
        table = motivating_table()
        as_float = extract_schedule(table, SystemState(0.0, (2, 3)))
        as_int = extract_schedule(table, SystemState(0, (2, 3)))
        assert repr(as_int.states[0]) == \
            "SystemState(battery_wh=0, remaining=(2, 3))"
        assert as_int.states[1:] == as_float.states[1:]
        assert as_int.decisions is as_float.decisions


def replay_matches_the_reference(table, script):
    """The schedule and the report equal the object-per-slot reference."""
    inst = table.config.instance
    want = reference_replay(table, inst.initial_state(), script.resolve(inst))
    got = extract_schedule(table, inst.initial_state())
    # repr also tells -0.0 from 0.0
    assert repr((got.decisions, got.states, got.base_load_w,
                 got.controllable_cost)) == repr((
                     want.decisions, want.states, want.base_load_w,
                     want.controllable_cost))
    report = simulate(table, script, table.config)
    assert report.csv_text() == reference_report_csv(inst, want)
    assert repr(report.total_cost) == repr(want.total_cost)


@st.composite
def event_scripts(draw, instance):
    kind = draw(st.sampled_from(("sampled", "scripted", "inactive")))
    if kind == "sampled":
        return EventScript.sampled(draw(st.integers(0, 2**32)))
    if kind == "inactive":
        return EventScript.scripted(())
    events = []
    for app in instance.ns_appliances:
        start = draw(st.sampled_from([None] + app.feasible_starts()))
        if start is not None:
            events.append(ScriptedStart(app.id, start))
    return EventScript.scripted(events)


class TestReplayMatchesTheReference:
    # a third appliance makes the walk's summation order matter: with two,
    # every order of the appliance draw rounds alike
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 399),
           extra=st.one_of(st.none(), st.tuples(
               st.integers(10_000, 40_000), st.integers(1, 2))),
           data=st.data())
    def test_random_instances(self, seed, extra, data):
        inst = random_small_instance(seed, ns_count=1 + seed % 2)
        if extra is not None:
            cents, duration = extra
            power = cents / 100
            inst = dataclasses.replace(
                inst,
                appliances=inst.appliances + (SchedulableAppliance(
                    id="app9", power_w=power, workload_wh=power * duration,
                    duration_slots=duration),),
                # a band that never binds keeps the wider instance feasible
                policy=PrivacyPolicy(lambda_w=1e6,
                                     l_bar_w=inst.policy.l_bar_w))
        config = SolveConfig(instance=inst, scenarios=ScenarioSet.base(
            len(inst.ns_appliances)))
        table = backward_recursion(config)
        script = data.draw(event_scripts(inst))
        replay_matches_the_reference(table, script)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.json")
            save_table(table, path)
            loaded = open_table(path, inst)
        replay_matches_the_reference(loaded, script)


def replay_fine():
    """section-iv-a hardened on a 5 Wh battery grid: 151 levels x 60 vectors."""
    cfg = load_config("section-iv-a")
    inst = dataclasses.replace(cfg.instance, battery=dataclasses.replace(
        cfg.instance.battery, grid_step_wh=5.0))
    return solve_with_scenarios(inst, cfg.options, cfg.state_cap)


def replay_digest(table, config, seeds):
    """SHA-256 of every report's CSV and aggregates, in seed order."""
    digest = hashlib.sha256()
    for seed in seeds:
        report = simulate(table, EventScript.sampled(seed), config)
        digest.update(report.csv_text().encode("utf-8"))
        digest.update(repr((
            report.scenario.starts, report.total_cost, report.max_abs_gap_w,
            report.breach_count, report.final_battery_wh)).encode("utf-8"))
    return digest.hexdigest()


def test_a_replay_total_is_the_left_to_right_sum_of_its_rows():
    # seed 0's twelve costs are one case where a compensated sum, Python's
    # built-in sum from 3.12 on, rounds to other bits
    result = replay_fine()
    report = simulate(result.table, EventScript.sampled(0), result.config)
    costs = [row.cost for row in report.rows]
    assert report.total_cost == left_sum(costs) == 0.025841410000000006
    assert math.fsum(costs) == 0.02584141


class TestReplayDigest:
    # 500 sampled reports on a fine-grid table, pinned before the replay
    # cached its walk: the cache may change no byte of any report
    DIGEST = "f40f42a679936f989a8566a19d48d81d04a482fb95b4f1851d771b6eaccf0e62"

    def test_fresh_and_reloaded_tables_replay_the_same_bytes(self, tmp_path):
        result = replay_fine()
        assert result.solution.controllable_cost == 0.020145000000000003
        table = result.table
        assert replay_digest(table, result.config, range(500)) == self.DIGEST
        path = str(tmp_path / "table.json")
        save_table(table, path)
        loaded = open_table(path, table.config.instance)
        assert replay_digest(loaded, loaded.config, range(500)) == self.DIGEST


def assert_every_live_start_finishes(table):
    """Walk from every state whose slot-1 cell is live; each walk ends with
    all work done and equals the raw model's walk.  Returns the count."""
    inst = table.config.instance
    quiet = PrivacyScenario((None,) * len(inst.ns_appliances))
    done = (0,) * len(inst.appliances)
    starts = [state for state in all_states(inst)
              if table.dec_mask[(0,) + reference_cell(inst, state)] >= 0]
    for state in starts:
        walk = table.walk(state)
        want = reference_replay(table, state, quiet)
        assert walk.states[-1].remaining == done
        # repr also tells -0.0 from 0.0
        assert repr((walk.decisions, walk.states, walk.base_load_w)) == \
            repr((want.decisions, want.states[1:], want.base_load_w))
    return len(starts)


class TestEveryTableIsClosed:
    """A walk from a live cell has no refusal left, so every live start of
    a built or loaded table must finish: no test of the walk alone would
    see a table that is not closed."""

    def test_seeded_loop_tables(self):
        walked = 0
        for seed in range(300):
            inst = random_small_instance(seed, ns_count=1 + seed % 2)
            try:
                table = solve_with_scenarios(inst).table
            except InfeasibleError:
                continue
            walked += assert_every_live_start_finishes(table)
        assert walked > 0

    @pytest.mark.parametrize("preset", ["motivating-example", "table-ii",
                                        "section-iv-a"])
    def test_preset_loop_tables(self, preset):
        table = solve_with_scenarios(load_config(preset).instance).table
        assert assert_every_live_start_finishes(table) > 0

    def test_a_reloaded_fine_table(self, tmp_path):
        table = replay_fine().table
        path = str(tmp_path / "table.json")
        save_table(table, path)
        loaded = load_table(path, table.config)
        assert assert_every_live_start_finishes(loaded) > 0


class TestSimulate:
    def test_quiet_replay_matches_the_extracted_schedule(self):
        table, config = solved_motivating()
        inst = config.instance
        solution = extract_schedule(table, inst.initial_state())
        report = simulate(table, EventScript.scripted(()), config)
        assert len(report.rows) == 4
        assert report.scenario == PrivacyScenario((None,))
        for row, base, state, decision in zip(
                report.rows, solution.base_load_w, solution.states,
                solution.decisions):
            assert row.base_load_w == pytest.approx(base, abs=1e-9)
            assert row.load_w == row.base_load_w  # nothing ran
            assert row.ns_load_w == 0.0
            assert row.battery_wh == state.battery_wh
            assert row.battery_delta_wh == decision.battery_delta_wh
        assert report.total_cost == pytest.approx(8.5, abs=1e-9)
        assert report.breach_count == 0
        assert report.max_abs_gap_w == pytest.approx(35000.0, abs=1e-9)
        assert report.final_battery_wh == 0.0
        assert report.rows[1].started == ("alpha2",)
        assert report.rows[2].started == ("alpha1",)

    # the base load is the schedule's own draw, so usage adds to it and
    # never shifts it, not even by the rounding of a subtraction
    @pytest.mark.parametrize("preset", ["motivating-example", "table-ii",
                                        "section-iv-a"])
    def test_replay_base_load_is_the_quiet_base_load(self, preset):
        result = solve_with_scenarios(load_config(preset).instance)
        table, config = result.table, result.config
        quiet = simulate(table, EventScript.scripted(()), config)
        for seed in range(100):
            report = simulate(table, EventScript.sampled(seed), config)
            for row, quiet_row in zip(report.rows, quiet.rows):
                assert row.base_load_w == quiet_row.base_load_w
                assert row.load_w == row.base_load_w + row.ns_load_w

    @pytest.mark.parametrize("slot,loads", [
        (2, (0.0, 55000.0, 60000.0, 70000.0)),
        (3, (0.0, 40000.0, 75000.0, 70000.0)),
    ])
    def test_scripted_usage_stays_inside_the_band(self, slot, loads):
        table, config = solved_motivating()
        script = EventScript.scripted((ScriptedStart("beta", slot),))
        report = simulate(table, script, config)
        assert tuple(r.load_w for r in report.rows) == pytest.approx(
            loads, abs=1e-9)
        assert report.breach_count == 0
        assert report.total_cost == pytest.approx(9.25, abs=1e-9)

    def test_boundary_gap_is_not_a_breach(self):
        table, config = solved_motivating()
        report = simulate(table, EventScript.scripted(
            (ScriptedStart("beta", 3),)), config)
        lam = config.instance.policy.lambda_w
        assert report.max_abs_gap_w == pytest.approx(lam, abs=1e-9)
        assert report.breach_count == 0

    def test_unhardened_table_breaches_under_late_usage(self):
        inst = motivating()
        config = SolveConfig(instance=inst,
                             scenarios=ScenarioSet((PrivacyScenario.inactive(1),)))
        table = backward_recursion(config)
        report = simulate(table, EventScript.scripted(
            (ScriptedStart("beta", 3),)), config)
        assert report.breach_count == 1
        assert report.rows[2].breach
        assert report.max_abs_gap_w == pytest.approx(50000.0, abs=1e-9)

    def test_aggregates_recompute_from_the_rows(self):
        table, config = solved_motivating()
        h = config.instance.grid.slot_hours
        report = simulate(table, EventScript.scripted(
            (ScriptedStart("beta", 2),)), config)
        assert report.total_cost == left_sum(r.cost for r in report.rows)
        assert report.max_abs_gap_w == max(abs(r.privacy_gap_w)
                                           for r in report.rows)
        assert report.breach_count == sum(r.breach for r in report.rows)
        for row in report.rows:
            assert row.cost == pytest.approx(
                row.load_w * row.price_per_wh * h, abs=1e-12)
            assert row.load_w == pytest.approx(
                row.base_load_w + row.ns_load_w, abs=1e-9)
        last = report.rows[-1]
        assert report.final_battery_wh == (last.battery_wh
                                           + last.battery_delta_wh)

    def test_csv_round_trips_at_full_precision(self):
        table, config = solved_motivating()
        report = simulate(table, EventScript.scripted(
            (ScriptedStart("beta", 2),)), config)
        lines = report.csv_text().splitlines()
        assert lines[0] == report.CSV_HEADER
        assert len(lines) == 1 + len(report.rows)
        for line, row in zip(lines[1:], report.rows):
            cols = line.split(",")
            assert int(cols[0]) == row.slot
            assert float(cols[1]) == row.price_per_wh
            assert float(cols[4]) == row.load_w
            assert cols[7] == ";".join(row.started)
            assert int(cols[9]) == int(row.breach)
            assert float(cols[10]) == row.cost

    def test_exported_energy_is_flagged(self):
        table, config = battery_only_table()
        report = simulate(table, EventScript.scripted(()), config)
        assert tuple(r.load_w for r in report.rows) == (-50.0, -50.0)
        assert report.total_cost == pytest.approx(-15.0, abs=1e-12)
        assert report.final_battery_wh == 0.0

    def count_fingerprints(self, monkeypatch):
        # the package re-exports the function `simulate` under the module's name
        modules = [importlib.import_module(name)
                   for name in ("paces.table", "paces.simulate")]
        calls = []
        original = modules[0].model_fingerprint

        def counted(config):
            calls.append(config)
            return original(config)

        for module in modules:
            monkeypatch.setattr(module, "model_fingerprint", counted)
        return calls

    def test_a_built_table_is_hashed_once_when_first_read(self, monkeypatch):
        calls = self.count_fingerprints(monkeypatch)
        table, config = solved_motivating()
        assert calls == []
        assert table.model_hash == table.model_hash
        assert calls == [config]

    def test_a_loaded_table_is_hashed_once(self, tmp_path, monkeypatch):
        table, config = solved_motivating()
        path = str(tmp_path / "table.json")
        save_table(table, path)
        calls = self.count_fingerprints(monkeypatch)
        loaded = load_table(path, config)
        assert len(calls) == 1
        simulate(loaded, EventScript.scripted(()), config)
        simulate(loaded, EventScript.sampled(3), config)
        assert len(calls) == 1

    def test_an_equal_config_is_accepted_without_rehashing(self, monkeypatch):
        table, config = solved_motivating()
        table.model_hash  # a built table hashes its config on first read
        calls = self.count_fingerprints(monkeypatch)
        twin = dataclasses.replace(config)
        assert twin is not config
        report = simulate(table, EventScript.scripted(()), twin)
        assert calls == []
        assert report.breach_count == 0
        # a config that differs is hashed, and a different model refused
        other = dataclasses.replace(config, instance=dataclasses.replace(
            config.instance,
            policy=PrivacyPolicy(lambda_w=50000.0, l_bar_w=35000.0)))
        with pytest.raises(IntegrityError, match="table/model mismatch"):
            simulate(table, EventScript.scripted(()), other)
        assert calls == [other]

    def test_a_loaded_table_refuses_a_different_config(self, tmp_path):
        table, config = solved_motivating()
        path = str(tmp_path / "table.json")
        save_table(table, path)
        loaded = load_table(path, config)
        other = dataclasses.replace(
            config, instance=dataclasses.replace(
                config.instance,
                policy=PrivacyPolicy(lambda_w=50000.0, l_bar_w=35000.0)))
        with pytest.raises(IntegrityError, match="table/model mismatch"):
            simulate(loaded, EventScript.scripted(()), other)

    def test_foreign_tables_are_refused(self):
        table, _ = solved_motivating()
        inst = motivating()
        other = SolveConfig(
            instance=dataclasses.replace(
                inst, policy=PrivacyPolicy(lambda_w=50000.0, l_bar_w=35000.0)),
            scenarios=ScenarioSet((PrivacyScenario((3,)),)))
        with pytest.raises(IntegrityError, match="table/model mismatch"):
            simulate(table, EventScript.scripted(()), other)


class TestSweepBattery:
    def test_capacity_relaxation_never_hurts(self):
        inst = motivating()
        points = sweep_battery(inst, (10000.0, 20000.0, 30000.0))
        assert [p.capacity_wh for p in points] == [10000.0, 20000.0, 30000.0]
        assert all(p.feasible for p in points)
        totals = [p.expected_total_cost for p in points]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
        assert all(p.solves >= 1 for p in points)
        assert all(p.message == "" for p in points)

    def test_rejects_malformed_capacity_lists(self):
        inst = motivating()
        with pytest.raises(ConfigError, match="at least one"):
            sweep_battery(inst, ())
        with pytest.raises(ConfigError, match="strictly ascending"):
            sweep_battery(inst, (20000.0, 10000.0))
        with pytest.raises(ConfigError, match="capacity 15000.0 Wh: capacity "
                                              "15000.0 is not a multiple"):
            sweep_battery(inst, (15000.0,))
        raised = dataclasses.replace(
            inst, battery=dataclasses.replace(inst.battery,
                                              b_init_wh=20000.0))
        # the battery's own check refuses it, so its message names the level
        with pytest.raises(ConfigError, match=r"capacity 10000.0 Wh: initial "
                                              r"level 20000.0 outside \[0, "
                                              r"10000.0\]"):
            sweep_battery(raised, (10000.0,))

    def test_infeasible_capacities_are_recorded_not_fatal(self):
        inst = motivating()
        tight = dataclasses.replace(
            inst, policy=PrivacyPolicy(lambda_w=1000.0, l_bar_w=35000.0))
        points = sweep_battery(tight, (10000.0, 20000.0))
        assert [p.feasible for p in points] == [False, False]
        for p in points:
            assert p.controllable_cost is None
            assert p.expected_total_cost is None
            assert p.solves == 0
            assert "privacy bound unattainable" in p.message
