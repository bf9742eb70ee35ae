"""Replay a built table against concrete appliance events, and capacity sweeps.

The simulator is the runtime half of the system: it walks the table
forward with :func:`~paces.table.extract_schedule`, the same walk that
reads a solved schedule, while scripted or sampled non-schedulable
events add their draw on top.  It never improvises: an off-grid or
infeasible state, or a decision that cannot be applied, is an integrity
error, not something to round away.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleError, IntegrityError, ModelError
from .model import Instance, PrivacyScenario, scenario_load
from .scenarios import ScenarioSolveOptions, solve_with_scenarios
from .table import (DEFAULT_STATE_CAP, ScheduleTable, SolveConfig,
                    expected_total_cost, extract_schedule, model_fingerprint)


@dataclass(frozen=True)
class ScriptedStart:
    """One non-schedulable appliance switching on."""

    appliance_id: str
    slot: int


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
            by_id = {a.id: a for a in apps}
            starts: dict[str, int] = {}
            for ev in self.events:
                app = by_id.get(ev.appliance_id)
                if app is None:
                    raise ModelError(
                        f"script starts unknown appliance {ev.appliance_id!r}")
                if ev.appliance_id in starts:
                    raise ModelError(
                        f"script starts appliance {ev.appliance_id!r} twice")
                if ev.slot not in app.feasible_starts():
                    raise ModelError(
                        f"appliance {app.id}: start {ev.slot} does not fit zone "
                        f"{app.zone!r} with runtime {app.runtime_slots}")
                starts[ev.appliance_id] = ev.slot
            return PrivacyScenario(
                starts=tuple(starts.get(a.id) for a in apps))
        rng = np.random.default_rng(self.sample_seed)
        drawn = []
        for app in apps:
            options = app.feasible_starts()
            probs = app.start_probabilities()
            drawn.append(options[int(rng.choice(len(options), p=probs))])
        return PrivacyScenario(starts=tuple(drawn))


@dataclass(frozen=True)
class SlotRecord:
    """Everything observed during one simulated slot."""

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
    negative_load_slots: int
    final_battery_wh: float

    def totals(self) -> dict:
        return {
            "total_cost": self.total_cost,
            "max_abs_gap_w": self.max_abs_gap_w,
            "breach_count": self.breach_count,
            "negative_load_slots": self.negative_load_slots,
            "final_battery_wh": self.final_battery_wh,
        }

    CSV_HEADER = ("slot,price_per_wh,base_load_w,ns_load_w,load_w,battery_wh,"
                  "battery_delta_wh,started,privacy_gap_w,breach,cost")

    def csv_text(self) -> str:
        """Full-precision CSV; aggregates reproduce exactly from the rows."""
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
    """Replay the table under one event script, slot by slot."""
    # the table's own config was hashed when the table was built or loaded
    if config is not table.config:
        expected = model_fingerprint(config)
        if expected != table.model_hash:
            raise IntegrityError(
                "table/model mismatch: the supplied configuration hashes to "
                f"{expected[:12]}..., the table was built for "
                f"{table.model_hash[:12]}...")
    inst = config.instance
    scenario = script.resolve(inst)
    solution = extract_schedule(table, inst.initial_state(), scenario)
    bound_w = inst.policy.lambda_w + inst.policy.tolerance_w

    rows = []
    for t, (decision, state, base, load, gap, cost) in enumerate(zip(
            solution.decisions, solution.states, solution.base_load_w,
            solution.load_w, solution.privacy_gap_w, solution.slot_costs),
            start=1):
        started = tuple(a.id for a, s in zip(inst.appliances, decision.starts)
                        if s)
        rows.append(SlotRecord(
            slot=t, price_per_wh=inst.price.at(t), base_load_w=base,
            ns_load_w=scenario_load(scenario, inst.ns_appliances, t),
            load_w=load, battery_wh=state.battery_wh,
            battery_delta_wh=decision.battery_delta_wh, started=started,
            privacy_gap_w=gap, breach=abs(gap) > bound_w,
            cost=cost))
    return SimulationReport(
        rows=tuple(rows), scenario=scenario,
        total_cost=solution.total_cost,
        max_abs_gap_w=float(max(abs(r.privacy_gap_w) for r in rows)),
        breach_count=sum(r.breach for r in rows),
        negative_load_slots=sum(r.load_w < 0 for r in rows),
        final_battery_wh=solution.states[-1].battery_wh)


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

    Infeasible capacities are recorded, not fatal.
    """
    if not capacities:
        raise ConfigError("sweep needs at least one capacity")
    step = instance.battery.grid_step_wh
    prev = None
    for cap in capacities:
        if not math.isfinite(cap):
            raise ConfigError(f"capacity {cap} Wh is not a finite number")
        if prev is not None and cap <= prev:
            raise ConfigError(
                f"capacities must be strictly ascending, got {cap} after {prev}")
        prev = cap
        ratio = cap / step
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ConfigError(
                f"capacity {cap} Wh is not a multiple of the {step} Wh grid step")
        if cap < instance.battery.b_init_wh:
            raise ConfigError(
                f"capacity {cap} Wh is below the initial level "
                f"{instance.battery.b_init_wh} Wh")

    def run(cap: float) -> SweepPoint:
        battery = dataclasses.replace(instance.battery, b_max_wh=cap)
        inst = dataclasses.replace(instance, battery=battery)
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

    return [run(cap) for cap in capacities]
