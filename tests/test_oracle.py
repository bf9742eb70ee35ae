"""Exhaustive reference search on instances small enough to enumerate."""
import itertools

import pytest

from paces import (Battery, ConfigError, NonSchedulableAppliance, PriceSignal,
                   PrivacyPolicy, PrivacyScenario, ScenarioSet,
                   SchedulableAppliance, SolveConfig, SystemState, TimeGrid,
                   backward_recursion, brute_force_solve, load_config)


def app(name, power, duration):
    return SchedulableAppliance(id=name, power_w=power,
                                workload_wh=power * duration,
                                duration_slots=duration)


def make_instance(tau=2, appliances=(), ns=(), battery=None, prices=None,
                  lam=1e9, l_bar=100.0):
    from paces import Instance
    battery = battery or Battery(b_max_wh=0.0, b_init_wh=0.0,
                                 z_discharge_max_wh=0.0, z_charge_max_wh=0.0,
                                 grid_step_wh=50.0)
    prices = prices or (0.1,) * tau
    return Instance(grid=TimeGrid(tau=tau), appliances=tuple(appliances),
                    ns_appliances=tuple(ns), battery=battery,
                    price=PriceSignal(tuple(prices)),
                    policy=PrivacyPolicy(lambda_w=lam, l_bar_w=l_bar))


class TestStraightLineOptima:
    def test_battery_only_drains_into_the_expensive_slots(self):
        inst = make_instance(
            tau=2,
            battery=Battery(b_max_wh=100.0, b_init_wh=100.0,
                            z_discharge_max_wh=50.0, z_charge_max_wh=50.0,
                            grid_step_wh=50.0),
            prices=(0.2, 0.1))
        result = brute_force_solve(SolveConfig(instance=inst))
        assert result.feasible
        # rate limits force one 50 Wh discharge per slot
        assert result.controllable_cost == pytest.approx(-15.0, abs=1e-12)
        assert result.expected_cost == pytest.approx(-15.0, abs=1e-12)
        only = result.optimal_trajectories
        assert len(only) == 1
        assert only[0].starts == ()
        assert only[0].levels_wh == (100.0, 50.0, 0.0)
        # 2 moves from the full level, then 3 or 2 continuations
        assert result.enumerated_count == 5

    def test_forced_placement_prices_the_whole_run(self):
        inst = make_instance(tau=2, appliances=(app("a", 100.0, 2),),
                             prices=(0.3, 0.4))
        result = brute_force_solve(SolveConfig(instance=inst))
        assert result.feasible
        assert result.controllable_cost == pytest.approx(70.0, abs=1e-12)
        assert len(result.optimal_trajectories) == 1
        assert result.optimal_trajectories[0].starts == (1,)
        assert result.optimal_trajectories[0].levels_wh == (0.0, 0.0, 0.0)

    def test_flat_tariff_reports_every_tied_placement(self):
        inst = make_instance(tau=3, appliances=(app("a", 100.0, 1),),
                             prices=(0.1, 0.1, 0.1))
        result = brute_force_solve(SolveConfig(instance=inst))
        assert result.feasible
        assert result.controllable_cost == pytest.approx(10.0, abs=1e-12)
        assert [t.starts for t in result.optimal_trajectories] == [
            (1,), (2,), (3,)]


class TestSizeRails:
    def test_long_horizons_are_refused(self):
        inst = make_instance(tau=9, prices=(0.1,) * 9)
        with pytest.raises(ConfigError, match=r"tau=9 > 8"):
            brute_force_solve(SolveConfig(instance=inst))

    def test_too_many_appliances_are_refused(self):
        inst = make_instance(
            tau=4, prices=(0.1,) * 4,
            appliances=tuple(app(f"a{i}", 100.0, 1) for i in range(4)))
        with pytest.raises(ConfigError, match="4 appliances > 3"):
            brute_force_solve(SolveConfig(instance=inst))

    def test_fine_battery_grids_are_refused(self):
        inst = make_instance(
            battery=Battery(b_max_wh=400.0, b_init_wh=0.0,
                            z_discharge_max_wh=50.0, z_charge_max_wh=50.0,
                            grid_step_wh=50.0))
        with pytest.raises(ConfigError, match="9 battery levels > 8"):
            brute_force_solve(SolveConfig(instance=inst))

    def test_large_scenario_sets_are_refused(self):
        # two one-slot appliances over the whole 8-slot horizon: 64 of
        # their placements start both, and every one of them fits
        ns = tuple(NonSchedulableAppliance(id=f"n{j}", power_w=50.0,
                                           runtime_slots=1, zone=(1, 8))
                   for j in range(2))
        inst = make_instance(tau=8, ns=ns)
        omega = ScenarioSet(tuple(PrivacyScenario(starts) for starts in
                                  itertools.product(range(1, 9), repeat=2)
                                  )[:41])
        with pytest.raises(ConfigError, match="too large for the exhaustive "
                                              "oracle: 41 scenarios > 40$"):
            brute_force_solve(SolveConfig(instance=inst, scenarios=omega))


class TestInfeasible:
    def test_zero_band_with_mandatory_load_has_no_trajectory(self):
        inst = make_instance(tau=2, appliances=(app("a", 100.0, 1),),
                             lam=0.0, l_bar=0.0)
        config = SolveConfig(
            instance=inst, scenarios=ScenarioSet((PrivacyScenario.inactive(0),)))
        result = brute_force_solve(config)
        assert not result.feasible
        assert result.expected_cost is None
        assert result.controllable_cost is None
        assert result.optimal_trajectories == ()
        assert result.enumerated_count == 0


class TestUsagePricing:
    def usage_config(self, start_prob=None, mode="expected"):
        ns = NonSchedulableAppliance(id="n", power_w=100.0, runtime_slots=1,
                                     zone=(1, 4), start_prob=start_prob)
        inst = make_instance(tau=4, ns=(ns,), prices=(0.1, 0.2, 0.3, 0.4))
        return SolveConfig(instance=inst, objective_mode=mode)

    def test_expected_mode_averages_over_uniform_starts(self):
        result = brute_force_solve(self.usage_config())
        assert result.controllable_cost == pytest.approx(0.0, abs=1e-12)
        assert result.expected_cost == pytest.approx(25.0, abs=1e-12)

    def test_expected_mode_uses_the_configured_distribution(self):
        result = brute_force_solve(
            self.usage_config(start_prob=(0.5, 0.5, 0.0, 0.0)))
        assert result.expected_cost == pytest.approx(15.0, abs=1e-12)

    def test_worst_case_mode_prices_the_costliest_placement(self):
        result = brute_force_solve(self.usage_config(mode="worst-case-cost"))
        assert result.expected_cost == pytest.approx(40.0, abs=1e-12)


class TestKnownInstance:
    def test_agrees_with_the_recursion_on_the_worked_example(self):
        inst = load_config("motivating-example").instance
        inactive = PrivacyScenario.inactive(1)
        for omega in (ScenarioSet((inactive,)),
                      ScenarioSet((inactive, PrivacyScenario((2,)),
                                   PrivacyScenario((3,))))):
            config = SolveConfig(instance=inst, scenarios=omega)
            result = brute_force_solve(config)
            table = backward_recursion(config)
            assert result.feasible
            assert result.controllable_cost == pytest.approx(8.5, abs=1e-9)
            assert result.controllable_cost == pytest.approx(
                table.initial_value(), abs=1e-9)
            assert result.enumerated_count > 0
