"""Iterative refinement of the schedule against worst-case usage placements.

The solver cannot know when non-schedulable appliances will run, only
their admissible windows.  It therefore alternates two steps: build the
cost-optimal table under the scenario set collected so far, then find
the candidate placement that stresses the resulting schedule hardest.
Violating placements are added to the set and the table is rebuilt; the
feasible region can only shrink as the set grows, so the optimal cost is
non-decreasing across iterations.  A placement already in the set stops
the loop, since a rebuild would reproduce the same table and propose it
again, so the loop ends after at most one solve per candidate plus the
first.

Each appliance is placed on its own, so the candidates are a cross
product of per-appliance options, a box uncertainty set.  The search
reads the product through each slot's extreme draws, which are sums of
per-appliance extremes, and never enumerates it.

Two stop modes are supported.  ``guaranteed`` (default) also stops when
the worst placement is inside the privacy band, by the band test the
replay's ``breach`` applies, so the final schedule is safe against every
placement.  A placement in the set cannot breach the table built against
it, so in this mode the band test alone decides the stop.
``repeat-stop`` stops only on a placement already in the set, so it
keeps rebuilding for placements inside the band: its builds extend
``guaranteed``'s.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InfeasibleError, ModelError
from .model import (Instance, NonSchedulableAppliance, PrivacyScenario,
                    ScenarioSet, TimeGrid, check_placement, in_order_sums,
                    left_sum, privacy_gap)
from .table import (DEFAULT_STATE_CAP, OBJECTIVE_MODES, ScheduleSolution,
                    ScheduleTable, SolveConfig, _FailedTail,
                    backward_recursion, extract_schedule)

SOLVE_MODES = ("guaranteed", "repeat-stop")

#: Sentinel gap returned when there are no candidate scenarios.
NO_SCENARIOS = float("-inf")

#: Absolute resolution of the bisection probe for the smallest feasible
#: privacy bound, in W.  Diagnostic only.
LAMBDA_PROBE_TOL_W = 0.1


@dataclass(frozen=True)
class ScenarioSolveOptions:
    """Knobs of the refinement loop."""

    mode: str = "guaranteed"
    include_inactive: bool = False
    objective_mode: str = "expected"
    max_solves: Optional[int] = None

    def __post_init__(self):
        if self.mode not in SOLVE_MODES:
            raise ModelError(f"mode must be one of {SOLVE_MODES}, "
                             f"got {self.mode!r}")
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


class PlacementProduct(Sequence[PrivacyScenario]):
    """The cross product of per-appliance placement options, unbuilt.

    A read-only sequence in :func:`itertools.product` order: the last
    appliance varies fastest.  An index is decoded in mixed radix on
    every lookup and nothing is kept, so iterating a large product holds
    one placement at a time.  Slicing gives a list.
    """

    def __init__(self, options: Sequence[Sequence[Optional[int]]]):
        self.options = tuple(tuple(opts) for opts in options)
        self._len = math.prod(len(opts) for opts in self.options)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("placement index out of range")
        starts, rest = [], i
        for opts in reversed(self.options):
            rest, k = divmod(rest, len(opts))
            starts.append(opts[k])
        return PrivacyScenario(tuple(starts[::-1]))

    def at(self, picks: Sequence[int]) -> PrivacyScenario:
        """The placement that takes option ``picks[j]`` of appliance ``j``."""
        return PrivacyScenario(tuple(opts[k] for opts, k
                                     in zip(self.options, picks)))


class _SlotExtremes:
    """A placement product's draws per slot, which no schedule changes.

    Float addition is monotone, so at each slot the product's greatest
    draw is the in-order sum over the appliances that can cover the slot,
    and its least the sum over those that must: ``bounds``, a (2, tau)
    array, least first.  :meth:`active_sets` lists every draw a slot can
    take.  Every option is first checked against ``ns_appliances`` by
    :func:`~paces.model.check_placement`, through rows of the product that
    hold them all.
    """

    def __init__(self, options: tuple[tuple[Optional[int], ...], ...],
                 ns_appliances: tuple[NonSchedulableAppliance, ...], tau: int):
        for k in range(max(map(len, options), default=1)):
            check_placement(tuple(opts[min(k, len(opts) - 1)]
                                  for opts in options), ns_appliances)
        shape = (len(options), tau)
        self.can, self.must = np.zeros(shape, bool), np.zeros(shape, bool)
        # the first option that covers the slot and the first that avoids
        # it; 0 where there is none
        self.first_in = np.zeros(shape, int)
        self.first_out = np.zeros(shape, int)
        slots = np.arange(1, tau + 1)
        for j, (app, opts) in enumerate(zip(ns_appliances, options)):
            # None becomes NaN, which covers no slot
            first = np.array(opts, dtype=float)[:, None]
            covers = (first <= slots) & (slots <= first
                                         + (app.runtime_slots - 1))
            self.can[j], self.must[j] = covers.any(axis=0), covers.all(axis=0)
            self.first_in[j] = covers.argmax(axis=0)
            self.first_out[j] = (~covers).argmax(axis=0)
        self.powers = [app.power_w for app in ns_appliances]
        self.bounds = np.stack((in_order_sums(self.powers, self.must),
                                in_order_sums(self.powers, self.can)))
        self._sets: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def active_sets(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Every set of appliances a placement can run at 0-based slot
        ``t``: its draw, and the option indices of the first placement in
        product order that runs it, one row each, in product order.

        At most 2 ** (appliances that may or may not cover ``t``) rows.
        """
        if t not in self._sets:
            free = np.flatnonzero(self.can[:, t] & ~self.must[:, t])
            sets = np.arange(1 << len(free))
            active = np.repeat(self.must[:, t, None], len(sets), axis=1)
            active[free] = (sets >> np.arange(len(free))[:, None]) & 1
            picks = np.where(active, self.first_in[:, t, None],
                             self.first_out[:, t, None])
            order = np.lexsort(picks[::-1])
            self._sets[t] = (in_order_sums(self.powers, active)[order],
                             picks.T[order])
        return self._sets[t]


@functools.lru_cache(maxsize=16)
def _slot_extremes(options: tuple[tuple[Optional[int], ...], ...],
                   types: tuple[type, ...],
                   ns_appliances: tuple[NonSchedulableAppliance, ...],
                   tau: int) -> _SlotExtremes:
    """One per product and household, as a sweep or a repeated solve
    meets them.  ``types`` holds every option's type: ``2.0 == 2`` and
    ``True == 1`` hash alike, and only the int passes the check."""
    return _SlotExtremes(options, ns_appliances, tau)


def candidate_scenarios(ns_appliances: Sequence[NonSchedulableAppliance],
                        grid: TimeGrid,
                        include_inactive: bool = False
                        ) -> Sequence[PrivacyScenario]:
    """Cross product of feasible placements, one start per appliance.

    Per appliance the options are its in-zone start slots ascending,
    followed by "does not run" when ``include_inactive`` is set.  The
    product iterates the last appliance fastest, so it is ordered by
    earliest start of the earliest appliance first.  It comes back as a
    :class:`PlacementProduct`, which builds a placement only when it is
    read, or as ``[]`` when there are no appliances.
    """
    if not ns_appliances:
        return []
    for app in ns_appliances:
        if app.zone[1] > grid.tau:
            raise ModelError(
                f"appliance {app.id}: zone {app.zone!r} leaves the "
                f"{grid.tau}-slot horizon")
    tail = [None] if include_inactive else []
    return PlacementProduct([app.feasible_starts() + tail
                             for app in ns_appliances])


def find_worst_scenario(solution: ScheduleSolution,
                        candidates: Sequence[PrivacyScenario],
                        instance: Instance
                        ) -> tuple[Optional[PrivacyScenario], float]:
    """Placement that stresses the schedule hardest, with its gap.

    ``candidates`` is what :func:`candidate_scenarios` returns: a
    :class:`PlacementProduct`, or ``[]``, which gives the sentinel
    ``(None, NO_SCENARIOS)``.  Any other sequence raises
    :class:`ModelError`, as does an option that breaks
    :func:`~paces.model.check_placement`.

    The gap is the largest ``|privacy_gap|`` of base load plus draw over
    the slots, with the replay's bits: the schedule breaches under that
    placement iff it exceeds the policy's ``bound_w``.  Ties keep the
    earliest placement in product order.  The product is never
    enumerated.  The deviation is monotone in the draw, so one of a
    slot's two extreme draws reaches its worst score, and the largest of
    those is the product's.  A placement's score at a slot depends only
    on which appliances it runs there.  So at each slot that reaches the
    worst score, the first active set in product order that reaches it
    gives that slot's first placement, and the first of those over all
    binding slots is the pick.
    """
    if not candidates:
        return None, NO_SCENARIOS
    if not isinstance(candidates, PlacementProduct):
        raise ModelError(f"candidates must come from candidate_scenarios, "
                         f"got a {type(candidates).__name__}")
    options = candidates.options
    types = tuple(map(type, itertools.chain(*options)))
    slots = _slot_extremes(options, types, instance.ns_appliances,
                           instance.grid.tau)
    base = np.asarray(solution.base_load_w, dtype=float)
    scores = np.abs(privacy_gap(slots.bounds + base, instance.policy)).max(0)
    top = scores.max()
    picks = []
    for t in np.flatnonzero(scores == top):
        draws, rows = slots.active_sets(t)
        reached = np.abs(privacy_gap(draws + base[t], instance.policy)) == top
        picks.append(tuple(rows[np.argmax(reached)].tolist()))
    return candidates.at(min(picks)), float(top)


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
            hint = _smallest_feasible_lambda(err._tail)
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
    if candidates:
        trace.records.append(IterationRecord(
            k=0, scenario=None, violation_w=None,
            f1_cost=solution.controllable_cost, omega_size=0))
    omega = ScenarioSet.empty()
    while candidates:
        phi, gap = find_worst_scenario(solution, candidates, instance)
        violation = gap - instance.policy.lambda_w
        trace.final_scenario, trace.final_violation_w = phi, violation
        # a rebuild for a placement already in omega would reproduce this
        # exact schedule and propose it again
        if (options.mode == "guaranteed" and gap <= instance.policy.bound_w) \
                or phi in omega:
            break
        if options.max_solves is not None \
                and len(trace.records) >= options.max_solves:
            trace.capped = True
            break
        omega = omega.with_scenario(phi)
        table, solution, config = solve(omega, table)
        trace.records.append(IterationRecord(
            k=len(trace.records), scenario=phi, violation_w=violation,
            f1_cost=solution.controllable_cost, omega_size=len(omega)))

    return ScenarioSolveResult(solution=solution, trace=trace, table=table,
                               omega=omega, config=config)


def _smallest_feasible_lambda(failed: _FailedTail) -> Optional[float]:
    """Bisection probe: smallest privacy bound that the scenario set of
    the failed build behind ``failed``, the tail it handed on, admits.

    Returns ``None`` when even an unbinding bound stays infeasible, i.e.
    the problem is structurally infeasible.  Resolution is
    :data:`LAMBDA_PROBE_TOL_W`.  The probes differ from the failed build
    only in their band, so they share its engine and envelope.  Each
    probe is handed the latest feasible probe's table and the latest
    failed build's tail, and copies the slots of whichever matches its
    windows further back; a probe whose windows match a failed tail down
    to the slot where it died fails without solving a slot.
    """
    config = failed.config
    inst = config.instance
    latest = None

    def feasible(lam: float) -> bool:
        nonlocal latest, failed
        try:
            latest = backward_recursion(config._at_lambda(lam), latest,
                                        failed)
            return True
        except InfeasibleError as err:
            failed = err._tail
            return False

    total_power = (left_sum(a.power_w for a in inst.appliances)
                   + left_sum(a.power_w for a in inst.ns_appliances))
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
