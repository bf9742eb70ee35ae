"""Diagnostics read from a table's arrays: the dead initial state and the
nearest feasible state named by off-table lookups."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paces import (InfeasibleError, IntegrityError, ModelError, ScenarioSet,
                   SolveConfig, SystemState, backward_recursion,
                   brute_force_solve, candidate_scenarios, load_config,
                   random_small_instance, runtime_lookup,
                   solve_with_scenarios)
from paces.table import ScheduleTable, _nearest_feasible
from raw_model import all_states

DEAD_MESSAGE = ("SP infeasible under the configured scenario set: every "
                "branch from the initial state dies by slot 1")


def reference_nearest_feasible(table, state, t):
    """The per-state scan ``_nearest_feasible`` must agree with."""
    step = table.config.instance.battery.grid_step_wh
    best, best_d = None, None
    for cand in all_states(table.config.instance):
        if not table.entry(t, cand).feasible:
            continue
        d = abs(cand.battery_wh - state.battery_wh) / step
        if len(cand.remaining) == len(state.remaining):
            d += sum(abs(a - b) for a, b in zip(cand.remaining, state.remaining))
        else:
            d += 1e9
        if best_d is None or d < best_d:
            best, best_d = cand, d
    return best


def random_table(seed, density, mask_seed):
    """A built table whose feasibility cells are redrawn at ``density``."""
    table = backward_recursion(SolveConfig(instance=random_small_instance(seed)))
    if density is None:
        return table
    rng = np.random.default_rng(mask_seed)
    n_app = len(table.config.instance.appliances)
    shape = table.dec_mask.shape
    mask = np.where(rng.random(shape) < density,
                    rng.integers(0, 2 ** n_app, shape), -1).astype(np.int32)
    return ScheduleTable(table.config, table.values, mask, table.dec_step,
                         table.model_hash)


@st.composite
def lookups(draw):
    table = random_table(draw(st.integers(0, 300)),
                         draw(st.sampled_from([None, 0.0, 0.02, 0.3, 1.0])),
                         draw(st.integers(0, 2 ** 32 - 1)))
    inst = table.config.instance
    step = inst.battery.grid_step_wh
    battery = draw(st.one_of(
        st.integers(-1, inst.battery.n_levels).map(lambda i: i * step),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, step / 3,
                         inst.battery.b_max_wh + step / 2, 1e300]),
        st.floats(-4 * step, inst.battery.b_max_wh + 4 * step),
        st.floats(allow_nan=True, allow_infinity=True)))
    durations = inst.durations
    remaining = draw(st.one_of(
        st.tuples(*[st.integers(0, d + 3) for d in durations]),
        st.lists(st.integers(0, 4), max_size=4).map(tuple),
        st.tuples(*[st.sampled_from([0, d, 2 ** 53 + 1, 2 ** 70, 10 ** 30])
                    for d in durations])))
    t = draw(st.integers(1, inst.grid.tau))
    return table, SystemState(battery_wh=battery, remaining=remaining), t


class TestNearestFeasible:
    @settings(max_examples=300, deadline=None)
    @given(lookups())
    def test_matches_the_per_state_scan(self, lookup):
        table, state, t = lookup
        with np.errstate(over="ignore"):
            got = _nearest_feasible(table, state, t)
        want = reference_nearest_feasible(table, state, t)
        assert repr(got) == repr(want)

    def test_a_slot_without_feasible_cells_names_nothing(self):
        table = random_table(3, 0.0, 0)
        state = table.config.instance.initial_state()
        assert _nearest_feasible(table, state, 1) is None
        with pytest.raises(IntegrityError, match="nearest tabulated feasible "
                                                 "state is None"):
            runtime_lookup(table, state, 1)

    def test_ties_go_to_the_first_state_in_grid_order(self):
        table = random_table(5, 1.0, 0)
        inst = table.config.instance
        between = SystemState(battery_wh=inst.battery.grid_step_wh / 2,
                              remaining=inst.durations)
        assert _nearest_feasible(table, between, 1) == SystemState(
            battery_wh=0.0, remaining=inst.durations)

    @pytest.mark.parametrize("state", [
        SystemState(battery_wh=4321.0, remaining=(2, 3)),
        SystemState(battery_wh=0.0, remaining=(2,)),
        SystemState(battery_wh=math.nan, remaining=(2, 3)),
        SystemState(battery_wh=-math.inf, remaining=(2, 3)),
        SystemState(battery_wh=1e308, remaining=(2, 3)),
        SystemState(battery_wh=0.0, remaining=(2, 3)),
    ], ids=["off-grid-level", "wrong-arity", "nan-level", "infinite-level",
            "huge-level", "dead"])
    def test_one_lookup_reads_one_cell(self, monkeypatch, state):
        table = solve_with_scenarios(
            load_config("motivating-example").instance).table
        calls = []
        entry = ScheduleTable.entry

        def counted(self, t, state):
            calls.append(t)
            return entry(self, t, state)

        monkeypatch.setattr(ScheduleTable, "entry", counted)
        with pytest.raises(IntegrityError, match="nearest tabulated feasible"):
            runtime_lookup(table, state, 4)
        assert len(calls) <= 1

    def test_slots_outside_the_horizon_stay_model_errors(self):
        table = random_table(0, None, 0)
        state = SystemState(battery_wh=-1.0, remaining=(0,) * 9)
        for t in (0, table.tau + 1):
            with pytest.raises(ModelError, match="outside horizon"):
                runtime_lookup(table, state, t)


class TestDeadInitialState:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), ns_count=st.integers(0, 2),
           scale=st.sampled_from([1.0, 0.5, 0.2, 0.05]))
    def test_agrees_with_the_oracle_and_reports_slot_1(self, seed, ns_count,
                                                       scale):
        inst = random_small_instance(seed, ns_count=ns_count)
        inst = dataclasses.replace(inst, policy=dataclasses.replace(
            inst.policy, lambda_w=inst.policy.lambda_w * scale))
        omega = ScenarioSet(tuple(candidate_scenarios(inst.ns_appliances,
                                                      inst.grid)[:8]))
        config = SolveConfig(instance=inst, scenarios=omega)
        try:
            table = backward_recursion(config)
        except InfeasibleError as err:
            assert str(err) == DEAD_MESSAGE
            assert err.lambda_hint_w is None
            assert not brute_force_solve(config).feasible
        else:
            assert table.entry(1, inst.initial_state()).feasible
            assert brute_force_solve(config).feasible

    def test_random_builds_reach_both_verdicts(self):
        verdicts = set()
        for seed in range(40):
            inst = random_small_instance(seed, ns_count=1)
            inst = dataclasses.replace(inst, policy=dataclasses.replace(
                inst.policy, lambda_w=inst.policy.lambda_w * 0.2))
            omega = ScenarioSet(tuple(candidate_scenarios(inst.ns_appliances,
                                                          inst.grid)))
            try:
                backward_recursion(SolveConfig(instance=inst, scenarios=omega))
                verdicts.add("feasible")
            except InfeasibleError:
                verdicts.add("infeasible")
        assert verdicts == {"feasible", "infeasible"}
