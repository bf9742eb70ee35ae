"""The worst-placement search against a per-candidate loop."""
import dataclasses
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paces import (Battery, Instance, ModelError, NonSchedulableAppliance,
                   PriceSignal, PrivacyPolicy, ScheduleSolution, TimeGrid,
                   candidate_scenarios, find_worst_scenario, load_config,
                   scenario_load)
from paces.scenarios import PlacementProduct


# ---------------------------------------------------------------------------
# Reference: one candidate and one slot at a time


def reference_worst_scenario(solution, candidates, instance):
    if not candidates:
        return None, float("-inf")
    pol = instance.policy
    best_sc, best_score = None, None
    for sc in candidates:
        score = float("-inf")
        for t in range(1, instance.grid.tau + 1):
            dev = abs(solution.base_load_w[t - 1]
                      + scenario_load(sc, instance.ns_appliances, t)
                      - pol.l_bar_w)
            if dev > score:
                score = dev
        if best_score is None or score > best_score:
            best_sc, best_score = sc, score
    return best_sc, best_score


# ---------------------------------------------------------------------------
# Instances


def make_instance(tau, ns_appliances, lam=10.0, l_bar=0.0):
    battery = Battery(b_max_wh=0.0, b_init_wh=0.0, z_discharge_max_wh=0.0,
                      z_charge_max_wh=0.0, grid_step_wh=50.0)
    return Instance(grid=TimeGrid(tau=tau), appliances=(),
                    ns_appliances=tuple(ns_appliances), battery=battery,
                    price=PriceSignal((0.1,) * tau),
                    policy=PrivacyPolicy(lambda_w=lam, l_bar_w=l_bar))


def solution_with(base_load_w):
    return ScheduleSolution(decisions=(), states=(),
                            base_load_w=tuple(base_load_w),
                            controllable_cost=0.0)


# magnitudes that absorb one another (1e16 + 1 == 1e16) and sums whose
# rounding depends on their order (0.1 + 0.2 + 0.3)
POWERS = (0.1, 0.2, 0.3, 1.0, 10, 50.0, 1e16)
LOADS = (0.0, 0.1, 0.3, -0.1, -50.0, 1e16, -1e16, 60.0)


@st.composite
def search_cases(draw):
    tau = draw(st.integers(1, 6))
    # whole-horizon zones make every appliance overlap every other
    stacked = draw(st.booleans())
    apps = []
    for j in range(draw(st.integers(0, 4))):
        runtime = draw(st.integers(1, min(3, tau)))
        lo = 1 if stacked else draw(st.integers(1, tau - runtime + 1))
        hi = tau if stacked else draw(st.integers(lo + runtime - 1, tau))
        # the pool twice: two draws in three come from it
        power = draw(st.sampled_from(POWERS) | st.sampled_from(POWERS)
                     | st.floats(0.01, 500.0))
        apps.append(NonSchedulableAppliance(
            id=f"ns{j}", power_w=power, runtime_slots=runtime, zone=(lo, hi)))
    # one appliance near the float range's end, which a sum of two
    # would leave: the instance admits only one
    if apps and draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(0, len(apps) - 1))
        apps[j] = dataclasses.replace(apps[j], power_w=1e308)
    # zero base loads and reference levels keep one-ulp draw differences
    level = st.just(0.0) | st.sampled_from(LOADS) | st.floats(-500.0, 500.0)
    base = draw(st.lists(level, min_size=tau, max_size=tau))
    l_bar = draw(st.just(0.0) | st.sampled_from((0.1, 60.0, 1e16))
                 | st.floats(0.0, 500.0))
    lam = draw(st.sampled_from((0.0, 0.3, 10.0)) | st.floats(0.0, 500.0))
    inst = make_instance(tau, apps, lam=lam, l_bar=l_bar)
    candidates = candidate_scenarios(inst.ns_appliances, inst.grid,
                                     include_inactive=draw(st.booleans()))
    return inst, solution_with(base), candidates


def quiet_search(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return find_worst_scenario(*args)


class TestAgainstTheLoop:
    @settings(max_examples=400, deadline=None)
    @given(search_cases())
    def test_same_pick_and_violation_bits(self, case):
        inst, solution, candidates = case
        got = quiet_search(solution, candidates, inst)
        want = reference_worst_scenario(solution, candidates, inst)
        # a product repeats no placement and decodes one on every read,
        # so equality names one index
        assert got[0] == want[0]
        assert type(got[1]) is float
        assert repr(got[1]) == repr(want[1])

    def test_draws_sum_in_appliance_order(self):
        # all three overlap slot 1: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
        apps = [NonSchedulableAppliance(id=f"n{p}", power_w=p, runtime_slots=1,
                                        zone=(1, 1)) for p in (0.1, 0.2, 0.3)]
        inst = make_instance(1, apps, lam=0.0)
        cands = candidate_scenarios(inst.ns_appliances, inst.grid)
        _, gap = find_worst_scenario(solution_with((0.0,)), cands, inst)
        assert gap == (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1


class TestErrorContract:
    # per-appliance options for a two-appliance household
    @pytest.mark.parametrize("options", [[(1, 2)], [(1,), (2,), (1,)], [],
                                         [(1, 2), (1,), (2, 1, None)]],
                             ids=["short", "long", "empty", "ragged"])
    def test_every_candidate_places_every_appliance(self, options):
        apps = [NonSchedulableAppliance(id=f"n{j}", power_w=10.0,
                                        runtime_slots=1, zone=(1, 2))
                for j in range(2)]
        inst = make_instance(2, apps)
        with pytest.raises(ModelError, match="2 appliances"):
            find_worst_scenario(solution_with((0.0, 0.0)),
                                PlacementProduct(options), inst)

    # motivating-example's beta runs one slot in zone [2, 3]
    @pytest.mark.parametrize("start", [99, True, 2.5],
                             ids=["outside", "bool", "float"])
    def test_every_candidate_fits_its_zone(self, start):
        inst = load_config("motivating-example").instance
        solution = solution_with((0.0,) * inst.grid.tau)
        with pytest.raises(ModelError, match="does not fit zone"):
            find_worst_scenario(solution, PlacementProduct([(start,)]), inst)
        with pytest.raises(ModelError, match=f"start {start!r} does not"):
            find_worst_scenario(solution, PlacementProduct([(2, start)]),
                                inst)

    # 2.0 == 2 and True == 1 hash alike; beta gets start 1 for the bool
    @pytest.mark.parametrize("start, twin, zone", [(2.0, 2, (2, 3)),
                                                   (True, 1, (1, 3))],
                             ids=["float", "bool"])
    def test_an_equal_int_product_searched_first_skips_no_check(
            self, start, twin, zone):
        inst = load_config("motivating-example").instance
        beta = dataclasses.replace(inst.ns_appliances[0], zone=zone)
        inst = dataclasses.replace(inst, ns_appliances=(beta,))
        solution = solution_with((0.0,) * inst.grid.tau)
        find_worst_scenario(solution, PlacementProduct([(twin, 3)]), inst)
        with pytest.raises(ModelError, match=f"start {start!r} does not fit"):
            find_worst_scenario(solution, PlacementProduct([(start, 3)]),
                                inst)

    def test_a_product_of_other_starts_is_refused(self):
        inst = load_config("motivating-example").instance
        wider = dataclasses.replace(inst.ns_appliances[0], zone=(1, 4))
        product = candidate_scenarios((wider,), inst.grid)
        with pytest.raises(ModelError, match="start 1 does not fit"):
            find_worst_scenario(solution_with((0.0,) * inst.grid.tau),
                                product, inst)

    def test_a_product_of_another_household_is_refused(self):
        # motivating-example has one usage appliance, section-iv-a two
        one = load_config("motivating-example").instance
        two = load_config("section-iv-a").instance
        product = candidate_scenarios(one.ns_appliances, one.grid)
        with pytest.raises(ModelError, match="places 1 appliances, "
                                             "instance has 2 appliances"):
            find_worst_scenario(solution_with((0.0,) * two.grid.tau),
                                product, two)

    @pytest.mark.parametrize("wrap", [list, tuple])
    def test_a_plain_sequence_is_refused(self, wrap):
        inst = load_config("motivating-example").instance
        product = candidate_scenarios(inst.ns_appliances, inst.grid)
        with pytest.raises(ModelError, match="from candidate_scenarios"):
            find_worst_scenario(solution_with((0.0,) * inst.grid.tau),
                                wrap(product), inst)
