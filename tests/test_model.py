"""Domain types and the load/battery/privacy arithmetic."""
import functools
import math
import re

import numpy as np
import pytest

from paces import (Battery, ConfigError, Decision, InfeasibleError, Instance,
                   IntegrityError, ModelError, NonSchedulableAppliance,
                   PacesError, PriceSignal, PrivacyPolicy, PrivacyScenario,
                   ScenarioSet, SchedulableAppliance, SolveConfig,
                   StateSpaceError, SystemState, TimeGrid,
                   backward_recursion, extract_schedule, privacy_gap,
                   random_small_instance, scenario_load, slot_cost)
from paces.model import check_placement, left_sum
from raw_model import appliance_load, step_remaining
from table_checks import replay


def make_instance(tau=4, appliances=None, ns=None, battery=None, prices=None,
                  lam=1e9, l_bar=100.0):
    appliances = appliances if appliances is not None else (
        SchedulableAppliance(id="a1", power_w=100.0, workload_wh=200.0,
                             duration_slots=2),)
    ns = ns if ns is not None else ()
    battery = battery or Battery(b_max_wh=100.0, b_init_wh=0.0,
                                 z_discharge_max_wh=50.0, z_charge_max_wh=50.0,
                                 grid_step_wh=50.0)
    prices = prices or (0.1,) * tau
    return Instance(grid=TimeGrid(tau=tau), appliances=tuple(appliances),
                    ns_appliances=tuple(ns), battery=battery,
                    price=PriceSignal(tuple(prices)),
                    policy=PrivacyPolicy(lambda_w=lam, l_bar_w=l_bar))


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ModelError, PacesError)
        assert issubclass(ConfigError, PacesError)
        assert issubclass(StateSpaceError, ConfigError)
        assert issubclass(InfeasibleError, PacesError)
        assert issubclass(IntegrityError, PacesError)

    def test_state_space_error_carries_count_and_cap(self):
        err = StateSpaceError(count=1000, cap=10)
        assert err.count == 1000 and err.cap == 10
        assert "1000" in str(err) and "10" in str(err)

    def test_infeasible_error_fields(self):
        err = InfeasibleError("dead", lambda_hint_w=12.5)
        assert str(err) == "dead"
        assert err.lambda_hint_w == 12.5
        assert InfeasibleError("dead").lambda_hint_w is None


class TestTimeGrid:
    @pytest.mark.parametrize("tau", [0, -1])
    def test_rejects_non_positive_horizon(self, tau):
        with pytest.raises(ModelError, match="horizon"):
            TimeGrid(tau=tau)

    def test_rejects_non_positive_slot_hours(self):
        with pytest.raises(ModelError, match="slot_hours"):
            TimeGrid(tau=2, slot_hours=0.0)

    # True == 1 and 2.0 == 2, yet either would hash apart from the int
    @pytest.mark.parametrize("tau", [True, 2.0])
    def test_rejects_a_horizon_that_is_not_an_int(self, tau):
        with pytest.raises(ModelError, match="horizon"):
            TimeGrid(tau=tau)


class TestSchedulableAppliance:
    @pytest.mark.parametrize("power,workload,expected", [
        (35.38, 70.7, 2),
        (156.59, 313.2, 3),
        (76.73, 230.2, 4),
        (50.0, 100.0, 2),
        (100.0, 100.0, 1),
    ])
    def test_duration_is_ceiling_of_workload_over_energy_per_slot(
            self, power, workload, expected):
        app = SchedulableAppliance.from_workload("a", power, workload)
        assert app.duration_slots == expected
        assert app.duration_slots == math.ceil(workload / power)

    def test_duration_accounts_for_slot_length(self):
        app = SchedulableAppliance.from_workload("a", power_w=100.0,
                                                 workload_wh=100.0,
                                                 slot_hours=0.5)
        assert app.duration_slots == 2

    def test_rejects_non_positive_power(self):
        with pytest.raises(ModelError, match="power"):
            SchedulableAppliance(id="a", power_w=0.0, workload_wh=1.0,
                                 duration_slots=1)

    @pytest.mark.parametrize("duration", [True, 1.0])
    def test_rejects_a_duration_that_is_not_an_int(self, duration):
        with pytest.raises(ModelError, match="duration"):
            SchedulableAppliance(id="a", power_w=1.0, workload_wh=1.0,
                                 duration_slots=duration)


class TestNonSchedulableAppliance:
    def test_feasible_starts_fit_the_zone(self):
        app = NonSchedulableAppliance(id="n", power_w=10.0, runtime_slots=1,
                                      zone=(1, 6))
        assert app.feasible_starts() == [1, 2, 3, 4, 5, 6]
        app = NonSchedulableAppliance(id="n", power_w=10.0, runtime_slots=3,
                                      zone=(2, 5))
        assert app.feasible_starts() == [2, 3]

    def test_runtime_equal_to_zone_leaves_single_start(self):
        app = NonSchedulableAppliance(id="n", power_w=10.0, runtime_slots=4,
                                      zone=(3, 6))
        assert app.feasible_starts() == [3]

    def test_uniform_probabilities_by_default(self):
        app = NonSchedulableAppliance(id="n", power_w=10.0, runtime_slots=1,
                                      zone=(1, 4))
        assert app.start_probabilities() == [0.25] * 4

    def test_start_prob_must_match_starts_and_sum_to_one(self):
        with pytest.raises(ModelError, match="start_prob"):
            NonSchedulableAppliance(id="n", power_w=10.0, runtime_slots=1,
                                    zone=(1, 3), start_prob=(0.5, 0.5))
        with pytest.raises(ModelError, match="sum"):
            NonSchedulableAppliance(id="n", power_w=10.0, runtime_slots=1,
                                    zone=(1, 2), start_prob=(0.6, 0.6))

    def test_run_slots_cover_each_feasible_run(self):
        app = NonSchedulableAppliance(id="n", power_w=10.0, runtime_slots=2,
                                      zone=(2, 5))
        # 0-based slots: a run begun at slot 3 covers slots 3 and 4
        assert {s: list(run) for s, run in app.run_slots.items()} == {
            2: [1, 2], 3: [2, 3], 4: [3, 4]}
        assert list(app.run_slots) == app.feasible_starts()

    def test_rejects_runtime_that_cannot_fit(self):
        with pytest.raises(ModelError, match="does not fit"):
            NonSchedulableAppliance(id="n", power_w=10.0, runtime_slots=3,
                                    zone=(4, 5))

    @pytest.mark.parametrize("runtime", [True, 1.0])
    def test_rejects_a_runtime_that_is_not_an_int(self, runtime):
        with pytest.raises(ModelError, match="runtime"):
            NonSchedulableAppliance(id="n", power_w=10.0,
                                    runtime_slots=runtime, zone=(1, 2))

    @pytest.mark.parametrize("zone", [(True, 2), (1, True), (1.0, 2)])
    def test_rejects_zone_bounds_that_are_not_ints(self, zone):
        with pytest.raises(ModelError, match="zone"):
            NonSchedulableAppliance(id="n", power_w=10.0, runtime_slots=1,
                                    zone=zone)


class TestBattery:
    def test_levels_span_zero_to_capacity(self):
        bat = Battery(b_max_wh=750.0, b_init_wh=0.0, z_discharge_max_wh=250.0,
                      z_charge_max_wh=250.0, grid_step_wh=250.0)
        assert bat.n_levels == 4
        assert bat.level_index(0.0) == 0
        assert bat.level_index(750.0) == 3

    def test_level_index_round_trips(self):
        bat = Battery(b_max_wh=100.0, b_init_wh=50.0, z_discharge_max_wh=50.0,
                      z_charge_max_wh=50.0, grid_step_wh=25.0)
        for i in range(bat.n_levels):
            assert bat.level_index(i * bat.grid_step_wh) == i

    def test_off_grid_level_rejected(self):
        bat = Battery(b_max_wh=100.0, b_init_wh=0.0, z_discharge_max_wh=50.0,
                      z_charge_max_wh=50.0, grid_step_wh=50.0)
        with pytest.raises(ModelError, match="not on the"):
            bat.level_index(30.0)

    def test_capacity_must_sit_on_the_grid(self):
        with pytest.raises(ModelError, match="multiple"):
            Battery(b_max_wh=110.0, b_init_wh=0.0, z_discharge_max_wh=10.0,
                    z_charge_max_wh=10.0, grid_step_wh=25.0)

    def test_initial_level_must_sit_on_the_grid(self):
        with pytest.raises(ModelError, match="grid"):
            Battery(b_max_wh=100.0, b_init_wh=30.0, z_discharge_max_wh=10.0,
                    z_charge_max_wh=10.0, grid_step_wh=50.0)


class TestPriceSignal:
    def test_at_is_one_based(self):
        sig = PriceSignal((0.1, 0.2, 0.3))
        assert sig.at(1) == 0.1 and sig.at(3) == 0.3

    def test_rejects_negative_price(self):
        with pytest.raises(ModelError, match="slot 2"):
            PriceSignal((0.1, -0.2))

    def test_rejects_out_of_range_slot(self):
        with pytest.raises(ModelError, match="outside"):
            PriceSignal((0.1,)).at(2)


class TestPrivacyPolicy:
    def test_rejects_negative_bound(self):
        with pytest.raises(ModelError, match="privacy bound"):
            PrivacyPolicy(lambda_w=-1.0, l_bar_w=0.0)


BATTERY = dict(b_max_wh=1.0, b_init_wh=1.0, z_discharge_max_wh=1.0,
               z_charge_max_wh=1.0, grid_step_wh=1.0)


def battery_with(name, x):
    return Battery(**{**BATTERY, name: x})


# one builder per numeric model field, each valid when given 1.0
NUMERIC_FIELDS = {
    "slot_hours": lambda x: TimeGrid(tau=2, slot_hours=x),
    "power": lambda x: SchedulableAppliance(id="a", power_w=x,
                                            workload_wh=1.0, duration_slots=1),
    "workload": lambda x: SchedulableAppliance(id="a", power_w=1.0,
                                               workload_wh=x,
                                               duration_slots=1),
    "from_workload-power": lambda x: SchedulableAppliance.from_workload(
        "a", power_w=x, workload_wh=1.0),
    "from_workload-workload": lambda x: SchedulableAppliance.from_workload(
        "a", power_w=1.0, workload_wh=x),
    "from_workload-slot_hours": lambda x: SchedulableAppliance.from_workload(
        "a", power_w=1.0, workload_wh=1.0, slot_hours=x),
    "ns-power": lambda x: NonSchedulableAppliance(
        id="n", power_w=x, runtime_slots=1, zone=(1, 1)),
    "start_prob": lambda x: NonSchedulableAppliance(
        id="n", power_w=1.0, runtime_slots=1, zone=(1, 1), start_prob=(x,)),
    **{f"battery-{name}": functools.partial(battery_with, name)
       for name in BATTERY},
    "price": lambda x: PriceSignal((0.1, x)),
    "lambda": lambda x: PrivacyPolicy(lambda_w=x, l_bar_w=1.0),
    "l_bar": lambda x: PrivacyPolicy(lambda_w=1.0, l_bar_w=x),
}


class TestNonFiniteValues:
    @pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
    def test_the_builders_accept_one(self, field):
        NUMERIC_FIELDS[field](1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
    def test_are_model_errors(self, field, value):
        with pytest.raises(ModelError):
            NUMERIC_FIELDS[field](value)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, 1e308])
    def test_levels_beyond_the_grid_are_model_errors(self, level):
        battery = battery_with("grid_step_wh", 0.5)
        with pytest.raises(ModelError, match="not on the 0.5 Wh grid"):
            battery.level_index(level)

    def test_a_grid_too_fine_for_floats_is_refused(self):
        with pytest.raises(ModelError, match="multiple"):
            Battery(**{**BATTERY, "b_max_wh": 1e308, "grid_step_wh": 1e-10})


class TestScenarios:
    def test_inactive_scenario(self):
        sc = PrivacyScenario.inactive(3)
        assert sc.starts == (None, None, None)

    def test_scenario_set_rejects_duplicates(self):
        sc = PrivacyScenario(starts=(2,))
        with pytest.raises(ModelError, match="duplicate|already"):
            ScenarioSet((sc, sc))
        omega = ScenarioSet((sc,))
        with pytest.raises(ModelError, match="already"):
            omega.with_scenario(sc)

    def test_with_scenario_appends_in_order(self):
        omega = ScenarioSet.empty()
        omega = omega.with_scenario(PrivacyScenario(starts=(2,)))
        omega = omega.with_scenario(PrivacyScenario(starts=(3,)))
        assert [sc.starts for sc in omega] == [(2,), (3,)]
        assert len(omega) == 2


class TestInstance:
    def test_rejects_duplicate_ids_across_kinds(self):
        with pytest.raises(ModelError, match="duplicate"):
            make_instance(ns=(NonSchedulableAppliance(
                id="a1", power_w=10.0, runtime_slots=1, zone=(1, 2)),))

    def test_rejects_duration_beyond_horizon(self):
        with pytest.raises(ModelError, match="exceeds"):
            make_instance(tau=2, appliances=(SchedulableAppliance(
                id="a1", power_w=10.0, workload_wh=30.0, duration_slots=3),))

    def test_rejects_zone_beyond_horizon(self):
        with pytest.raises(ModelError, match="leaves"):
            make_instance(tau=3, ns=(NonSchedulableAppliance(
                id="n1", power_w=10.0, runtime_slots=1, zone=(2, 5)),))

    def test_rejects_price_length_mismatch(self):
        with pytest.raises(ModelError, match="price"):
            make_instance(tau=4, prices=(0.1, 0.1))

    @pytest.mark.parametrize("kwargs, match", [
        (dict(prices=(0.1, 1e308, 0.1, 0.1)), "horizon cost overflows"),
        (dict(prices=(1e308,) * 4, appliances=(), l_bar=0.0,
              battery=Battery(**{**BATTERY, "b_max_wh": 0.0,
                                 "b_init_wh": 0.0})), "horizon cost overflows"),
        (dict(l_bar=1e308, ns=(NonSchedulableAppliance(
            id="n1", power_w=1e308, runtime_slots=1, zone=(1, 1)),)),
         "largest slot energy overflows"),
        # a band this far up used to read as feasible once counted in steps
        (dict(l_bar=1e9, battery=Battery(b_max_wh=0.0, b_init_wh=0.0,
                                         z_discharge_max_wh=0.0,
                                         z_charge_max_wh=0.0,
                                         grid_step_wh=1e-300)),
         "largest slot energy overflows"),
    ], ids=["price", "prices-sum", "loads-sum", "grid-steps"])
    def test_huge_but_finite_numbers_are_refused(self, kwargs, match):
        with pytest.raises(ModelError, match=match):
            make_instance(**kwargs)

    def test_huge_slots_are_refused(self):
        with pytest.raises(ModelError, match="largest slot energy overflows"):
            Instance(grid=TimeGrid(tau=1, slot_hours=1e308), appliances=(),
                     ns_appliances=(), battery=Battery(**BATTERY),
                     price=PriceSignal((0.1,)),
                     policy=PrivacyPolicy(lambda_w=1.0, l_bar_w=2.0))

    def test_huge_numbers_that_fit_are_accepted(self):
        make_instance(prices=(0.1, 1e300, 0.1, 0.1))
        make_instance(lam=1e308, l_bar=1e308, battery=Battery(**{
            **BATTERY, "z_charge_max_wh": 1e308, "z_discharge_max_wh": 1e308}))

    def test_initial_state_has_everything_unstarted(self):
        inst = make_instance()
        state = inst.initial_state()
        assert state.battery_wh == inst.battery.b_init_wh
        assert state.remaining == inst.durations


class TestStepRemaining:
    def test_start_decrements_from_full(self):
        state = SystemState(battery_wh=0.0, remaining=(2, 3))
        decision = Decision(starts=(True, False), battery_delta_wh=0.0)
        assert step_remaining(state, decision, (2, 3)) == (1, 3)

    def test_running_appliance_keeps_decrementing(self):
        state = SystemState(battery_wh=0.0, remaining=(1, 2))
        decision = Decision(starts=(False, False), battery_delta_wh=0.0)
        assert step_remaining(state, decision, (2, 3)) == (0, 1)

    def test_finished_appliance_stays_at_zero(self):
        state = SystemState(battery_wh=0.0, remaining=(0, 3))
        decision = Decision(starts=(False, False), battery_delta_wh=0.0)
        assert step_remaining(state, decision, (2, 3)) == (0, 3)

    def test_cannot_restart_a_started_appliance(self):
        state = SystemState(battery_wh=0.0, remaining=(1, 3))
        decision = Decision(starts=(True, False), battery_delta_wh=0.0)
        with pytest.raises(ModelError, match="cannot start"):
            step_remaining(state, decision, (2, 3))


class TestLoadsAndCosts:
    def test_appliance_load_prices_the_work_decrement(self):
        assert appliance_load((2, 3), (1, 3), (100.0, 50.0)) == 100.0
        assert appliance_load((1, 2), (0, 1), (100.0, 50.0)) == 150.0
        assert appliance_load((0, 0), (0, 0), (100.0, 50.0)) == 0.0

    NS = (NonSchedulableAppliance(id="n1", power_w=10.0, runtime_slots=2,
                                  zone=(1, 4)),
          NonSchedulableAppliance(id="n2", power_w=5.0, runtime_slots=1,
                                  zone=(2, 3)))

    def test_scenario_load_sums_active_appliances(self):
        sc = PrivacyScenario(starts=(2, 3))
        assert scenario_load(sc, self.NS, 1) == 0.0
        assert scenario_load(sc, self.NS, 2) == 10.0
        assert scenario_load(sc, self.NS, 3) == 15.0
        assert scenario_load(sc, self.NS, 4) == 0.0

    # n1 runs two slots in zone [1, 4], n2 one slot in zone [2, 3]
    @pytest.mark.parametrize("starts", [
        (1, 2), (3, None), (None, 3), (None, None)])
    def test_placements_of_feasible_starts_pass(self, starts):
        check_placement(starts, self.NS)

    @pytest.mark.parametrize("starts, message", [
        ((1,), "scenario places 1 appliances, instance has 2"),
        ((1, 2, 3), "scenario places 3 appliances, instance has 2"),
        ((4, None), "appliance n1: start 4 does not fit zone (1, 4) with "
                    "runtime 2"),
        ((None, 0), "appliance n2: start 0 does not fit zone (2, 3) with "
                    "runtime 1"),
        ((None, 2.0), "appliance n2: start 2.0 does not fit"),
        ((True, None), "appliance n1: start True does not fit"),
        (("1", None), "appliance n1: start '1' does not fit"),
        (([1], None), "appliance n1: start [1] does not fit"),
    ])
    def test_other_placements_are_refused(self, starts, message):
        with pytest.raises(ModelError, match=re.escape(message)):
            check_placement(starts, self.NS)

    def test_scenario_load_refuses_an_off_zone_start(self):
        with pytest.raises(ModelError, match="start 4 does not fit"):
            scenario_load(PrivacyScenario(starts=(4, None)), self.NS, 4)

    def test_aggregated_load_combines_all_terms(self):
        # the metered load of a replayed slot: appliances + battery + usage
        ns = (NonSchedulableAppliance(id="n1", power_w=25.0, runtime_slots=1,
                                      zone=(1, 2)),)
        inst = make_instance(ns=ns, prices=(0.1, 0.2, 0.2, 0.2))
        scenario = PrivacyScenario(starts=(1,))
        table = backward_recursion(SolveConfig(instance=inst))
        solution = extract_schedule(table, inst.initial_state())
        report = replay(table, scenario)
        # the cheap first slot runs the appliance and charges the battery
        assert solution.decisions[0] == Decision(starts=(True,),
                                                 battery_delta_wh=50.0)
        assert report.rows[0].load_w == 100.0 + 50.0 + 25.0
        for t, (state, nxt, decision, row) in enumerate(zip(
                solution.states, solution.states[1:], solution.decisions,
                report.rows), start=1):
            base = (appliance_load(state.remaining, nxt.remaining,
                                   inst.powers_w)
                    + decision.battery_delta_wh / inst.grid.slot_hours)
            assert solution.base_load_w[t - 1] == row.base_load_w == base
            assert row.load_w == base + scenario_load(
                scenario, inst.ns_appliances, t)

    def test_privacy_gap_is_signed(self):
        pol = PrivacyPolicy(lambda_w=80.0, l_bar_w=85.0)
        assert privacy_gap(100.0, pol) == 15.0
        assert privacy_gap(60.0, pol) == -25.0

    def test_slot_cost_scales_with_slot_length(self):
        assert slot_cost(100.0, 0.2, 1.0) == 20.0
        assert slot_cost(100.0, 0.2, 0.5) == 10.0
        assert slot_cost(-100.0, 0.2, 1.0) == -20.0

    def test_left_sum_adds_left_to_right_from_zero(self):
        # a compensated sum, Python's built-in from 3.12 on, gives 1.0
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum([0.1] * 3) == 0.1 + 0.1 + 0.1 != 0.3
        assert left_sum([]) == 0 and left_sum([-0.0]) == 0.0
        assert math.copysign(1.0, left_sum([-0.0])) == 1.0
        assert left_sum([2 ** 60, 1, True]) == 2 ** 60 + 2
        assert type(left_sum([True, False])) is int


class TestRandomWalkProperties:
    """Seeded random-walk checks of the arithmetic identities."""

    def test_battery_walk_stays_on_grid_and_telescopes(self):
        # replayed schedules of seeded instances: every level on the grid,
        # every move within the rates, the moves summing to the net change
        for seed in range(40):
            inst = random_small_instance(seed)
            bat = inst.battery
            solution = extract_schedule(backward_recursion(SolveConfig(
                instance=inst)), inst.initial_state())
            total = 0.0
            for state, decision in zip(solution.states, solution.decisions):
                bat.level_index(state.battery_wh)
                delta = decision.battery_delta_wh
                assert -bat.z_discharge_max_wh <= delta <= bat.z_charge_max_wh
                total += delta
            bat.level_index(solution.states[-1].battery_wh)
            assert solution.states[-1].battery_wh == pytest.approx(
                bat.b_init_wh + total)

    def test_work_conservation_along_any_valid_run(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            durs = tuple(int(d) for d in rng.integers(1, 4, size=2))
            powers = tuple(float(p) for p in rng.uniform(10, 100, size=2))
            state = SystemState(battery_wh=0.0, remaining=durs)
            delivered = 0.0
            for t in range(10):
                starts = tuple(
                    bool(r == d and rng.integers(0, 2))
                    for r, d in zip(state.remaining, durs))
                decision = Decision(starts=starts, battery_delta_wh=0.0)
                nxt = step_remaining(state, decision, durs)
                delivered += appliance_load(state.remaining, nxt, powers)
                state = SystemState(battery_wh=0.0, remaining=nxt)
            if state.remaining == (0, 0):
                assert delivered == pytest.approx(
                    sum(p * d for p, d in zip(powers, durs)))


class TestExports:
    def test_star_import_binds_every_exported_name(self):
        import paces
        namespace = {}
        exec("from paces import *", namespace)
        assert len(paces.__all__) == len(set(paces.__all__))
        assert set(paces.__all__) <= set(namespace)
