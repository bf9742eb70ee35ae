"""One band test for the DP, the search and the replay, at its edge.

At the least privacy bound a build accepts, some battery move sits
within a few ulps of the band's edge.  There the DP's windows, the
worst-case search and the replay must still agree, because all three
apply the one test of :class:`~paces.PrivacyPolicy`.
"""
import pytest

from paces import (InfeasibleError, PrivacyScenario, ScenarioSet, SolveConfig,
                   backward_recursion, candidate_scenarios, extract_schedule,
                   find_worst_scenario, random_small_instance,
                   solve_with_scenarios)
from paces.model import left_sum
from paces.scenarios import PlacementProduct
from table_checks import dense_windows, replay


def least_feasible_lambda(config):
    """The least privacy bound at which ``config`` builds, to adjacent
    floats, or ``None`` when no bound does."""
    def feasible(lam):
        try:
            backward_recursion(config._at_lambda(lam))
        except InfeasibleError:
            return False
        return True

    inst = config.instance
    hi = (inst.policy.l_bar_w
          + left_sum(a.power_w for a in inst.appliances)
          + left_sum(a.power_w for a in inst.ns_appliances)
          + inst.battery.z_charge_max_wh + inst.battery.z_discharge_max_wh
          + 1.0)
    if not feasible(hi):
        return None
    lo = 0.0
    if feasible(lo):
        return lo
    while lo < (lo + hi) / 2 < hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
    return hi


def assert_search_agrees_with_the_replay(table, placements):
    """Each placement's search verdict, the band test on the worst gap of
    the placement alone, is its replay's; returns the breaching ones."""
    inst = table.config.instance
    solution = extract_schedule(table, inst.initial_state())
    breaching = []
    for placement in placements:
        alone = PlacementProduct([(start,) for start in placement.starts])
        _, gap = find_worst_scenario(solution, alone, inst)
        breaches = replay(table, placement).breach_count
        assert (gap > inst.policy.bound_w) == (breaches > 0), placement
        if breaches:
            breaching.append(placement)
    return breaching


@pytest.mark.parametrize("seed", range(60))
def test_the_least_feasible_lambda_holds_every_placement(seed):
    inst = random_small_instance(seed, ns_count=1 + seed % 2)
    n_ns = len(inst.ns_appliances)
    full = ScenarioSet((PrivacyScenario.inactive(n_ns),)
                       + tuple(candidate_scenarios(inst.ns_appliances,
                                                   inst.grid)))
    lam = least_feasible_lambda(SolveConfig(instance=inst, scenarios=full))
    assert lam is not None
    config = SolveConfig(instance=inst, scenarios=full)._at_lambda(lam)
    assert config._windows.tobytes() == dense_windows(config).tobytes()
    # the full set's table, every placement of the product held
    placements = candidate_scenarios(inst.ns_appliances, inst.grid,
                                     include_inactive=True)
    table = backward_recursion(config)
    assert assert_search_agrees_with_the_replay(table, placements) == []
    # the loop's first table may breach, its last may not
    inst = config.instance
    first = backward_recursion(SolveConfig(instance=inst,
                                           scenarios=ScenarioSet.base(n_ns)))
    assert_search_agrees_with_the_replay(first, placements)
    result = solve_with_scenarios(inst)
    product = candidate_scenarios(inst.ns_appliances, inst.grid)
    assert assert_search_agrees_with_the_replay(result.table, product) == []
