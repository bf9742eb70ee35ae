"""Iterative refinement of the schedule against worst-case usage placements.

The solver cannot know when non-schedulable appliances will run, only
their admissible windows.  It therefore alternates two steps: build the
cost-optimal table under the scenario set collected so far, then search
all candidate placements for the one that stresses the resulting
schedule hardest.  Violating placements are added to the set and the
table is rebuilt; the feasible region can only shrink as the set grows,
so the optimal cost is non-decreasing across iterations and the loop
ends after at most one solve per candidate.

Two stop modes are supported.  ``guaranteed`` (default) stops only when
no candidate placement violates the privacy band, so the final schedule
is safe against every placement.  ``repeat-stop`` stops as soon as the
proposed worst placement repeats the previous one, which can terminate
earlier but leaves no exhaustive guarantee.
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InfeasibleError, ModelError
from .model import (Instance, NonSchedulableAppliance, PrivacyScenario,
                    ScenarioSet, TimeGrid, scenario_draws)
from .table import (DEFAULT_STATE_CAP, OBJECTIVE_MODES, ScheduleSolution,
                    ScheduleTable, SolveConfig, backward_recursion,
                    extract_schedule)

SOLVE_MODES = ("guaranteed", "repeat-stop")
VIOLATION_METRICS = ("two-sided", "upper-only")

#: Sentinel violation returned when there are no candidate scenarios.
NO_SCENARIOS = float("-inf")

#: Absolute resolution of the bisection probe for the smallest feasible
#: privacy bound, in W.  Diagnostic only.
LAMBDA_PROBE_TOL_W = 0.1


@dataclass(frozen=True)
class ScenarioSolveOptions:
    """Knobs of the refinement loop."""

    mode: str = "guaranteed"
    include_inactive: bool = False
    metric: str = "two-sided"
    objective_mode: str = "expected"
    max_solves: Optional[int] = None

    def __post_init__(self):
        if self.mode not in SOLVE_MODES:
            raise ModelError(f"mode must be one of {SOLVE_MODES}, "
                             f"got {self.mode!r}")
        if self.metric not in VIOLATION_METRICS:
            raise ModelError(f"metric must be one of {VIOLATION_METRICS}, "
                             f"got {self.metric!r}")
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ModelError(f"objective_mode must be one of {OBJECTIVE_MODES}, "
                             f"got {self.objective_mode!r}")
        if self.max_solves is not None and (
                type(self.max_solves) is not int or self.max_solves < 1):
            raise ModelError(f"max_solves must be a positive integer when "
                             f"given, got {self.max_solves!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One table rebuild.

    ``scenario`` is the placement whose violation prompted the rebuild
    (``None`` for the initial solve), ``violation_w`` its violation
    against the previous schedule, ``f1_cost`` the controllable optimum
    of the rebuilt table, ``omega_size`` the worst-scenario count used.
    """

    k: int
    scenario: Optional[PrivacyScenario]
    violation_w: Optional[float]
    f1_cost: float
    omega_size: int


@dataclass
class IterationTrace:
    """Chronological record of the refinement loop."""

    records: list[IterationRecord] = field(default_factory=list)
    final_scenario: Optional[PrivacyScenario] = None
    final_violation_w: Optional[float] = None
    capped: bool = False

    def to_rows(self) -> list[dict]:
        rows = []
        for rec in self.records:
            rows.append({
                "k": rec.k,
                "scenario": None if rec.scenario is None
                else list(rec.scenario.starts),
                "violation_w": rec.violation_w,
                "f1_cost": rec.f1_cost,
                "omega_size": rec.omega_size,
            })
        return rows


@dataclass(frozen=True)
class ScenarioSolveResult:
    """Final schedule plus everything needed to audit or replay it."""

    solution: ScheduleSolution
    trace: IterationTrace
    table: ScheduleTable
    omega: ScenarioSet
    config: SolveConfig


def candidate_scenarios(ns_appliances: Sequence[NonSchedulableAppliance],
                        grid: TimeGrid,
                        include_inactive: bool = False) -> list[PrivacyScenario]:
    """Cross product of feasible placements, one start per appliance.

    Per appliance the options are its in-zone start slots ascending,
    followed by "does not run" when ``include_inactive`` is set.  The
    product iterates the last appliance fastest, so the list is ordered
    by earliest start of the earliest appliance first.
    """
    if not ns_appliances:
        return []
    for app in ns_appliances:
        if app.zone[1] > grid.tau:
            raise ModelError(
                f"appliance {app.id}: zone {app.zone!r} leaves the "
                f"{grid.tau}-slot horizon")
    tail = [None] if include_inactive else []
    per_app = [app.feasible_starts() + tail for app in ns_appliances]
    return [PrivacyScenario(starts=p) for p in itertools.product(*per_app)]


def find_worst_scenario(solution: ScheduleSolution,
                        candidates: Sequence[PrivacyScenario],
                        instance: Instance,
                        metric: str = "two-sided",
                        draws: Optional[np.ndarray] = None
                        ) -> tuple[Optional[PrivacyScenario], float]:
    """Placement that stresses the schedule hardest, with its violation.

    The violation is the worst per-slot deviation of base load plus
    scenario draw from the reference level, minus the privacy bound;
    positive means the schedule breaches under that placement.  Ties keep
    the earliest candidate in the given order.  With no candidates the
    sentinel ``(None, NO_SCENARIOS)`` comes back.

    ``draws`` is the candidates' :func:`~paces.model.scenario_draws`
    matrix, for a caller that searches one candidate list many times; it
    is read, not written.  A matrix of another shape raises
    :class:`ModelError`.
    """
    if metric not in VIOLATION_METRICS:
        raise ModelError(f"metric must be one of {VIOLATION_METRICS}, "
                         f"got {metric!r}")
    shape = (len(candidates), instance.grid.tau)
    if draws is not None and draws.shape != shape:
        raise ModelError(f"draws has shape {draws.shape}, expected {shape} "
                         f"for {shape[0]} candidates")
    if not candidates:
        return None, NO_SCENARIOS
    if draws is None:
        draws = scenario_draws(candidates, instance.ns_appliances,
                               instance.grid.tau)
    dev = draws + np.asarray(solution.base_load_w, dtype=float)
    dev -= instance.policy.l_bar_w
    if metric == "two-sided":
        np.abs(dev, out=dev)
    scores = dev.max(axis=1)
    best = int(np.argmax(scores))
    return candidates[best], float(scores[best]) - instance.policy.lambda_w


def solve_with_scenarios(instance: Instance,
                         options: Optional[ScenarioSolveOptions] = None,
                         state_cap: int = DEFAULT_STATE_CAP
                         ) -> ScenarioSolveResult:
    """Run the refinement loop to completion.

    Raises :class:`InfeasibleError` when some scenario set admits no
    schedule; the error carries the smallest privacy bound a bisection
    probe found feasible, as a diagnostic.
    """
    if options is None:
        options = ScenarioSolveOptions()

    candidates = candidate_scenarios(instance.ns_appliances, instance.grid,
                                     options.include_inactive)

    def solve(omega: ScenarioSet, previous: Optional[ScheduleTable] = None):
        config = SolveConfig(instance=instance, scenarios=omega,
                             objective_mode=options.objective_mode,
                             state_cap=state_cap)
        try:
            table = backward_recursion(config, previous)
        except InfeasibleError as err:
            hint = _smallest_feasible_lambda(instance, omega, state_cap)
            if hint is None:
                raise InfeasibleError(
                    f"{err}; no privacy bound makes this instance feasible, "
                    f"check deadlines and battery limits") from None
            raise InfeasibleError(
                f"privacy bound unattainable: lambda={instance.policy.lambda_w} W "
                f"is infeasible for the current scenario set, smallest feasible "
                f"is about {hint!r} W", lambda_hint_w=hint) from None
        return table, extract_schedule(table, instance.initial_state()), config

    table, solution, config = solve(
        ScenarioSet.base(len(instance.ns_appliances)))
    trace = IterationTrace()
    if not candidates:
        return ScenarioSolveResult(solution=solution, trace=trace, table=table,
                                   omega=ScenarioSet.empty(), config=config)

    trace.records.append(IterationRecord(
        k=0, scenario=None, violation_w=None,
        f1_cost=solution.controllable_cost, omega_size=0))

    omega = ScenarioSet.empty()
    cap = options.max_solves if options.max_solves is not None \
        else len(candidates) + 1
    draws = scenario_draws(candidates, instance.ns_appliances,
                           instance.grid.tau)
    while True:
        phi, violation = find_worst_scenario(solution, candidates, instance,
                                             options.metric, draws)
        trace.final_scenario, trace.final_violation_w = phi, violation
        if options.mode == "guaranteed":
            if violation <= instance.policy.tolerance_w:
                break
        elif phi in omega:
            # re-solving the unchanged set would reproduce this exact
            # schedule and propose phi again; stop here instead
            break
        if len(trace.records) >= cap:
            trace.capped = True
            break
        omega = omega.with_scenario(phi)
        table, solution, config = solve(omega, table)
        trace.records.append(IterationRecord(
            k=len(trace.records), scenario=phi, violation_w=violation,
            f1_cost=solution.controllable_cost, omega_size=len(omega)))

    return ScenarioSolveResult(solution=solution, trace=trace, table=table,
                               omega=omega, config=config)


def _smallest_feasible_lambda(instance: Instance, omega: ScenarioSet,
                              state_cap: int) -> Optional[float]:
    """Bisection probe: smallest privacy bound the scenario set admits.

    Returns ``None`` when even an unbinding bound stays infeasible, i.e.
    the problem is structurally infeasible.  Resolution is
    :data:`LAMBDA_PROBE_TOL_W`.
    """
    inst = instance

    def feasible(lam: float) -> bool:
        policy = dataclasses.replace(inst.policy, lambda_w=lam)
        probe = dataclasses.replace(inst, policy=policy)
        try:
            backward_recursion(SolveConfig(instance=probe, scenarios=omega,
                                           state_cap=state_cap))
            return True
        except InfeasibleError:
            return False

    total_power = (sum(a.power_w for a in inst.appliances)
                   + sum(a.power_w for a in inst.ns_appliances))
    rate = (inst.battery.z_charge_max_wh
            + inst.battery.z_discharge_max_wh) / inst.grid.slot_hours
    lam_cap = inst.policy.l_bar_w + total_power + rate + 1.0
    if not feasible(lam_cap):
        return None
    lo, hi = inst.policy.lambda_w, lam_cap
    while hi - lo > LAMBDA_PROBE_TOL_W:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break  # no float left between the bounds at this magnitude
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
