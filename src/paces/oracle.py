"""Exhaustive reference solver for small instances.

Everything here is deliberately plain: start slots are enumerated
directly, battery level paths are walked on the grid, and every
constraint is re-evaluated from the raw problem data.  No code is shared
with the table builder, so agreement between the two is evidence, not
tautology.

Guard rails refuse instances whose enumeration would not stay small.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .model import left_sum
from .table import SolveConfig

MAX_TAU = 8
MAX_APPLIANCES = 3
MAX_BATTERY_LEVELS = 8
MAX_SCENARIOS = 40

#: Relative slack when grouping equally cheap trajectories.
TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class OracleTrajectory:
    """One optimal trajectory: start slot per appliance, battery levels.

    ``levels_wh`` has tau+1 entries covering the start of every slot and
    the post-horizon level.
    """

    starts: tuple[int, ...]
    levels_wh: tuple[float, ...]


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive search.

    ``expected_cost`` adds the priced non-schedulable consumption to the
    optimum, ``controllable_cost`` prices only schedulable appliances and
    battery energy; both are ``None`` when no trajectory satisfies the
    constraints.
    """

    feasible: bool
    expected_cost: Optional[float]
    controllable_cost: Optional[float]
    optimal_trajectories: tuple[OracleTrajectory, ...]
    enumerated_count: int


def _check_rails(config: SolveConfig) -> None:
    inst = config.instance
    problems = []
    if inst.grid.tau > MAX_TAU:
        problems.append(f"tau={inst.grid.tau} > {MAX_TAU}")
    if len(inst.appliances) > MAX_APPLIANCES:
        problems.append(
            f"{len(inst.appliances)} appliances > {MAX_APPLIANCES}")
    levels = round(inst.battery.b_max_wh / inst.battery.grid_step_wh) + 1
    if levels > MAX_BATTERY_LEVELS:
        problems.append(f"{levels} battery levels > {MAX_BATTERY_LEVELS}")
    if len(config.scenarios) > MAX_SCENARIOS:
        problems.append(f"{len(config.scenarios)} scenarios > {MAX_SCENARIOS}")
    if problems:
        raise ConfigError(
            "instance too large for the exhaustive oracle: " + ", ".join(problems))


def brute_force_solve(config: SolveConfig) -> OracleResult:
    """Enumerate every start assignment and battery path; keep the minima."""
    _check_rails(config)
    inst = config.instance
    tau = inst.grid.tau
    h = inst.grid.slot_hours
    prices = [inst.price.at(t) for t in range(1, tau + 1)]
    lam = inst.policy.lambda_w + inst.policy.tolerance_w  # the solver's slack
    lbar = inst.policy.l_bar_w

    # scenario draw per (scenario, slot), evaluated from the raw windows
    omega = list(config.scenarios)
    draw = []
    for sc in omega:
        per_slot = []
        for t in range(1, tau + 1):
            w = 0.0
            for app, start in zip(inst.ns_appliances, sc.starts):
                if start is not None and start <= t <= start + app.runtime_slots - 1:
                    w += app.power_w
            per_slot.append(w)
        draw.append(per_slot)

    # the priced non-schedulable consumption, identical for every
    # trajectory: runs are user-driven, so only their start distribution
    # (or the costliest placement) matters, never the decisions
    def run_price(app, start: int) -> float:
        return left_sum(prices[t - 1] * app.power_w * h
                        for t in range(start, start + app.runtime_slots))

    if config.objective_mode == "worst-case-cost":
        ns_term = left_sum(
            max(run_price(app, s) for s in app.feasible_starts())
            for app in inst.ns_appliances)
    else:
        ns_term = left_sum(
            prob * run_price(app, s)
            for app in inst.ns_appliances
            for s, prob in zip(app.feasible_starts(),
                               app.start_probabilities()))

    bat = inst.battery
    n_levels = round(bat.b_max_wh / bat.grid_step_wh) + 1
    step = bat.grid_step_wh
    start_level = bat.level_index(bat.b_init_wh)

    start_ranges = [range(1, tau - a.duration_slots + 2) for a in inst.appliances]

    best_cost = None
    best_trajs: list[OracleTrajectory] = []
    enumerated = 0

    for starts in itertools.product(*start_ranges):
        # appliance draw per slot for this start assignment
        y = [0.0] * (tau + 1)
        for app, s in zip(inst.appliances, starts):
            for t in range(s, s + app.duration_slots):
                y[t] += app.power_w

        # depth-first walk over battery levels, one slot at a time
        stack = [(1, start_level, 0.0, (start_level * step,))]
        while stack:
            t, lvl, cost, path = stack.pop()
            if t > tau:
                enumerated += 1
                total = cost + ns_term
                if best_cost is None or total < best_cost - TIE_REL_TOL * max(
                        1.0, abs(best_cost)):
                    best_cost = total
                    best_trajs = [OracleTrajectory(starts=starts, levels_wh=path)]
                elif abs(total - best_cost) <= TIE_REL_TOL * max(
                        1.0, abs(best_cost)):
                    best_trajs.append(OracleTrajectory(starts=starts,
                                                       levels_wh=path))
                continue
            # descend in reverse so the stack pops levels in ascending order
            for nxt in range(n_levels - 1, -1, -1):
                z = (nxt - lvl) * step
                if z > bat.z_charge_max_wh or -z > bat.z_discharge_max_wh:
                    continue
                base = y[t] + z / h
                ok = True
                for per_slot in draw:
                    dev = base + per_slot[t - 1] - lbar
                    if dev > lam or dev < -lam:
                        ok = False
                        break
                if not ok:
                    continue
                stack.append((t + 1, nxt, cost + prices[t - 1] * base * h,
                              path + (nxt * step,)))

    if best_cost is None:
        return OracleResult(feasible=False, expected_cost=None,
                            controllable_cost=None, optimal_trajectories=(),
                            enumerated_count=enumerated)
    return OracleResult(feasible=True, expected_cost=float(best_cost),
                        controllable_cost=float(best_cost - ns_term),
                        optimal_trajectories=tuple(best_trajs),
                        enumerated_count=enumerated)
