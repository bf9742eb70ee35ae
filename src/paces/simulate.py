"""Replay a built table against concrete appliance events, and capacity sweeps.

The simulator is the runtime half of the system: it replays the
table's forward walk, the same walk that reads a solved schedule, while
scripted or sampled non-schedulable events add their draw on top.  The
table's state never holds that draw, so the walk is made once per table
(:meth:`~paces.table.ScheduleTable.walk`) and :func:`simulate`, the one
place a realized placement is scored, adds only the per-slot draw, load,
gap and cost.  A report row takes its slot, price, base load, battery
level and decision from the kept walk and recomputes none of them.  It
never improvises: an off-grid or infeasible start state is an integrity
error, not something to round away; a closed table holds no other.
"""
from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleError, IntegrityError, ModelError
from .model import (Instance, PrivacyScenario, check_placement, left_sum,
                    privacy_gap, slot_cost)
from .scenarios import ScenarioSolveOptions, solve_with_scenarios
from .table import (DEFAULT_STATE_CAP, ScheduleTable, SolveConfig,
                    expected_total_cost, model_fingerprint)


@dataclass(frozen=True)
class ScriptedStart:
    """One non-schedulable appliance switching on."""

    appliance_id: str
    slot: int

    def __post_init__(self):
        # a library caller can pass 2.0 or True, and a bool is an int to
        # Python
        if isinstance(self.slot, bool) or not isinstance(
                self.slot, numbers.Integral):
            raise ModelError(f"event slot must be an integer, "
                             f"got {self.slot!r}")


@dataclass(frozen=True)
class EventScript:
    """What actually happens at runtime: explicit starts, or a seeded draw.

    Exactly one of ``events`` and ``sample_seed`` is set.  An empty event
    tuple means nothing runs.  Sampled scripts draw each appliance's
    start from its configured start probabilities; the seed is mandatory
    so replays are reproducible.
    """

    events: Optional[tuple[ScriptedStart, ...]] = None
    sample_seed: Optional[int] = None

    def __post_init__(self):
        if (self.events is None) == (self.sample_seed is None):
            raise ModelError(
                "event script needs either explicit events or a sample seed, "
                "not both")
        # a library caller can pass 5.0 or True, and a bool is an int to
        # Python
        if self.sample_seed is not None and (
                isinstance(self.sample_seed, bool)
                or not isinstance(self.sample_seed, numbers.Integral)
                or self.sample_seed < 0):
            raise ModelError(f"sample seed must be a non-negative integer, "
                             f"got {self.sample_seed!r}")

    @classmethod
    def scripted(cls, events: Sequence[ScriptedStart] = ()) -> "EventScript":
        return cls(events=tuple(events))

    @classmethod
    def sampled(cls, seed: int) -> "EventScript":
        return cls(sample_seed=seed)

    def resolve(self, instance: Instance) -> PrivacyScenario:
        """Concrete joint placement this script produces for ``instance``."""
        apps = instance.ns_appliances
        if self.events is not None:
            ids = {a.id for a in apps}
            starts: dict[str, int] = {}
            for ev in self.events:
                if ev.appliance_id not in ids:
                    raise ModelError(
                        f"script starts unknown appliance {ev.appliance_id!r}")
                if ev.appliance_id in starts:
                    raise ModelError(
                        f"script starts appliance {ev.appliance_id!r} twice")
                starts[ev.appliance_id] = int(ev.slot)
            placement = tuple(starts.get(a.id) for a in apps)
            check_placement(placement, apps)
            return PrivacyScenario(starts=placement)
        # Generator.choice(n, p=...) draws one uniform double and bisects
        # the CDF with it; drawing every appliance's double at once takes
        # the same doubles from the stream, so the placements are the same
        uniforms = np.random.default_rng(self.sample_seed).random(len(apps))
        return PrivacyScenario(starts=tuple(
            app.zone[0] + bisect.bisect_right(app.start_cdf, u)
            for app, u in zip(apps, uniforms.tolist())))


class SlotRecord(NamedTuple):
    """Everything observed during one simulated slot.

    A named tuple, so a row is immutable and cheap to make: a replay
    makes one per slot.  Its field order is the report's column order
    (:attr:`SimulationReport.CSV_HEADER`).
    """

    slot: int
    price_per_wh: float
    base_load_w: float
    ns_load_w: float
    load_w: float
    battery_wh: float
    battery_delta_wh: float
    started: tuple[str, ...]
    privacy_gap_w: float
    breach: bool
    cost: float


@dataclass(frozen=True)
class SimulationReport:
    """Per-slot records plus exact aggregates."""

    rows: tuple[SlotRecord, ...]
    scenario: PrivacyScenario
    total_cost: float
    max_abs_gap_w: float
    breach_count: int
    final_battery_wh: float

    CSV_HEADER = ",".join(SlotRecord._fields)

    def csv_text(self) -> str:
        """Full-precision CSV; aggregates reproduce exactly from the rows.

        ``total_cost`` is the rows' costs added left to right from 0
        (:func:`~paces.model.left_sum`), on every Python version.
        """
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.slot), repr(r.price_per_wh), repr(r.base_load_w),
                repr(r.ns_load_w), repr(r.load_w), repr(r.battery_wh),
                repr(r.battery_delta_wh), ";".join(r.started),
                repr(r.privacy_gap_w), str(int(r.breach)), repr(r.cost),
            ]))
        return "\n".join(lines) + "\n"


def simulate(table: ScheduleTable, script: EventScript,
             config: SolveConfig) -> SimulationReport:
    """Replay the table under one event script, slot by slot.

    The script's placement adds each slot's draw to the quiet walk's base
    load, summed from 0 in appliance order as
    :func:`~paces.model.scenario_load` sums it; each slot's load, gap and
    cost follow from that sum.
    """
    # the table hashes its own config once, when its hash is first read;
    # an equal config is the same model, so only an unequal one is hashed
    if config != table.config:
        expected = model_fingerprint(config)
        if expected != table.model_hash:
            raise IntegrityError(
                "table/model mismatch: the supplied configuration hashes to "
                f"{expected[:12]}..., the table was built for "
                f"{table.model_hash[:12]}...")
    inst = config.instance
    scenario = script.resolve(inst)
    initial = inst.initial_state()
    walk = table.walk(initial)
    draw = [0] * inst.grid.tau
    for app, start in zip(inst.ns_appliances, scenario.starts):
        if start is not None:
            for i in app.run_slots[start]:
                draw[i] += app.power_w
    ns = tuple(map(float, draw))
    loads = tuple(map(operator.add, walk.base_load_w, ns))
    gaps = [privacy_gap(load, inst.policy) for load in loads]
    costs = list(map(slot_cost, loads, inst.price.values,
                     itertools.repeat(inst.grid.slot_hours)))
    bound_w = inst.policy.bound_w
    rows = tuple([
        SlotRecord(t, price, base, n, load, level, delta, started, gap,
                   abs(gap) > bound_w, cost)
        for (t, price, base, delta, started), level, n, load, gap, cost
        in zip(walk.rows, (initial.battery_wh,) + walk.levels, ns, loads,
               gaps, costs)])
    return SimulationReport(
        rows=rows, scenario=scenario, total_cost=float(left_sum(costs)),
        max_abs_gap_w=float(max(map(abs, gaps))),
        breach_count=left_sum(r.breach for r in rows),
        final_battery_wh=walk.states[-1].battery_wh)


# ---------------------------------------------------------------------------
# Capacity sweep


@dataclass(frozen=True)
class SweepPoint:
    """Outcome of the full pipeline at one battery capacity."""

    capacity_wh: float
    feasible: bool
    controllable_cost: Optional[float]
    expected_total_cost: Optional[float]
    solves: int
    message: str = ""


def sweep_battery(instance: Instance, capacities: Sequence[float],
                  options: Optional[ScenarioSolveOptions] = None,
                  state_cap: int = DEFAULT_STATE_CAP) -> list[SweepPoint]:
    """Re-run the whole pipeline at each capacity, in ascending order.

    Every capacity's household is made before the first solve, so a
    capacity the battery or the instance refuses raises
    :class:`ConfigError` naming it.  Infeasible capacities are recorded,
    not fatal.
    """
    if not capacities:
        raise ConfigError("sweep needs at least one capacity")
    prev = None
    instances = []
    for cap in capacities:
        if not math.isfinite(cap):
            raise ConfigError(f"capacity {cap} Wh is not a finite number")
        if prev is not None and cap <= prev:
            raise ConfigError(
                f"capacities must be strictly ascending, got {cap} after {prev}")
        prev = cap
        try:
            battery = dataclasses.replace(instance.battery, b_max_wh=cap)
            instances.append(dataclasses.replace(instance, battery=battery))
        except ModelError as err:
            raise ConfigError(f"capacity {cap} Wh: {err}") from None

    def run(cap: float, inst: Instance) -> SweepPoint:
        try:
            result = solve_with_scenarios(inst, options, state_cap)
        except InfeasibleError as err:
            return SweepPoint(capacity_wh=cap, feasible=False,
                              controllable_cost=None, expected_total_cost=None,
                              solves=0, message=str(err))
        controllable = result.solution.controllable_cost
        return SweepPoint(
            capacity_wh=cap, feasible=True, controllable_cost=controllable,
            expected_total_cost=expected_total_cost(result.config, controllable),
            solves=len(result.trace.records) if result.trace.records else 1)

    return [run(cap, inst) for cap, inst in zip(capacities, instances)]
