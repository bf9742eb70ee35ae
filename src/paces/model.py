"""Core domain types and the load/battery/privacy/cost arithmetic.

All quantities are normalized at ingestion: power in W, energy in Wh,
prices in currency per Wh.  With the default one-hour slot, W and Wh
coincide numerically; ``slot_hours`` carries the conversion otherwise.

Slots are numbered 1..tau throughout the public surface (configs,
scenarios, schedules, reports).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator, Optional, Sequence

from .errors import ModelError

#: Relative tolerance used when snapping energies onto the battery grid.
GRID_REL_TOL = 1e-9


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelError(message)


@dataclass(frozen=True)
class TimeGrid:
    """Discrete scheduling horizon of ``tau`` equal slots.

    Attributes:
        tau: number of slots in the horizon.
        slot_hours: duration of one slot in hours.
    """

    tau: int
    slot_hours: float = 1.0

    def __post_init__(self):
        _require(isinstance(self.tau, int) and self.tau >= 1,
                 f"horizon must be a positive integer slot count, got {self.tau!r}")
        _require(math.isfinite(self.slot_hours) and self.slot_hours > 0,
                 f"slot_hours must be positive and finite, got {self.slot_hours!r}")

    @property
    def slots(self) -> range:
        """All slot indices, 1-based and inclusive."""
        return range(1, self.tau + 1)


@dataclass(frozen=True)
class SchedulableAppliance:
    """A load whose single contiguous run the scheduler places.

    Once started the appliance draws ``power_w`` for ``duration_slots``
    consecutive slots and cannot be interrupted.

    Attributes:
        id: unique appliance name.
        power_w: rated power draw while running, in W.
        workload_wh: total energy the task requires, in Wh.
        duration_slots: number of slots the run occupies.  Derived from
            the workload via the ceiling rule when built through
            :meth:`from_workload`.
    """

    id: str
    power_w: float
    workload_wh: float
    duration_slots: int

    def __post_init__(self):
        _require(bool(self.id), "appliance id must be non-empty")
        _require(math.isfinite(self.power_w) and self.power_w > 0,
                 f"appliance {self.id}: power must be positive and finite, "
                 f"got {self.power_w!r}")
        _require(math.isfinite(self.workload_wh) and self.workload_wh > 0,
                 f"appliance {self.id}: workload must be positive and finite, "
                 f"got {self.workload_wh!r}")
        _require(isinstance(self.duration_slots, int) and self.duration_slots >= 1,
                 f"appliance {self.id}: duration must be a positive slot count, "
                 f"got {self.duration_slots!r}")

    @classmethod
    def from_workload(cls, id: str, power_w: float, workload_wh: float,
                      slot_hours: float = 1.0) -> "SchedulableAppliance":
        """Derive the slot count as ceil(workload / (power * slot_hours))."""
        _require(math.isfinite(power_w) and power_w > 0,
                 f"appliance {id}: power must be positive and finite")
        _require(math.isfinite(slot_hours) and slot_hours > 0,
                 "slot_hours must be positive and finite")
        per_slot = power_w * slot_hours
        _require(per_slot > 0 and math.isfinite(workload_wh / per_slot),
                 f"appliance {id}: workload {workload_wh!r} Wh is not a finite "
                 f"number of slots")
        duration = math.ceil(workload_wh / per_slot)
        return cls(id=id, power_w=power_w, workload_wh=workload_wh,
                   duration_slots=duration)


@dataclass(frozen=True)
class NonSchedulableAppliance:
    """A user-driven load the scheduler cannot move, only anticipate.

    The appliance, if it runs, starts once somewhere inside its time
    zone and then draws ``power_w`` for ``runtime_slots`` consecutive
    slots.

    Attributes:
        id: unique appliance name.
        power_w: power draw while running, in W.
        runtime_slots: length of the run in slots.
        zone: inclusive 1-based (first, last) slot bounds of the window
            in which the appliance may be active.
        start_prob: optional probability per feasible start slot, in the
            order produced by :meth:`feasible_starts`.  Uniform when
            omitted.
    """

    id: str
    power_w: float
    runtime_slots: int
    zone: tuple[int, int]
    start_prob: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        _require(bool(self.id), "appliance id must be non-empty")
        _require(math.isfinite(self.power_w) and self.power_w > 0,
                 f"appliance {self.id}: power must be positive and finite, "
                 f"got {self.power_w!r}")
        lo, hi = self.zone
        _require(isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi,
                 f"appliance {self.id}: zone must be 1-based inclusive bounds, "
                 f"got {self.zone!r}")
        span = hi - lo + 1
        _require(isinstance(self.runtime_slots, int)
                 and 1 <= self.runtime_slots <= span,
                 f"appliance {self.id}: runtime {self.runtime_slots!r} does not fit "
                 f"zone {self.zone!r}")
        if self.start_prob is not None:
            starts = self.feasible_starts()
            _require(len(self.start_prob) == len(starts),
                     f"appliance {self.id}: start_prob needs {len(starts)} entries, "
                     f"got {len(self.start_prob)}")
            _require(all(math.isfinite(p) and p >= 0 for p in self.start_prob),
                     f"appliance {self.id}: start probabilities must be finite "
                     f"and non-negative")
            total = sum(self.start_prob)
            _require(abs(total - 1.0) <= 1e-9,
                     f"appliance {self.id}: start probabilities sum to {total}, not 1")

    def feasible_starts(self) -> list[int]:
        """Start slots whose full run stays inside the zone, ascending."""
        lo, hi = self.zone
        return list(range(lo, hi - self.runtime_slots + 2))

    def start_probabilities(self) -> list[float]:
        """Probability per feasible start; uniform unless configured."""
        starts = self.feasible_starts()
        if self.start_prob is None:
            return [1.0 / len(starts)] * len(starts)
        return list(self.start_prob)

    def active(self, start: Optional[int], t: int) -> bool:
        """Whether a run begun at ``start`` covers slot ``t``."""
        if start is None:
            return False
        return start <= t <= start + self.runtime_slots - 1


@dataclass(frozen=True)
class Battery:
    """Lossless storage whose level lives on a fixed energy grid.

    Positive battery throughput charges, negative discharges.  Levels are
    the multiples of ``grid_step_wh`` between 0 and ``b_max_wh``.

    Attributes:
        b_max_wh: usable capacity in Wh.
        b_init_wh: level at the start of slot 1, on the grid.
        z_discharge_max_wh: largest energy drawn from the battery per slot.
        z_charge_max_wh: largest energy stored per slot.
        grid_step_wh: level discretization step.
    """

    b_max_wh: float
    b_init_wh: float
    z_discharge_max_wh: float
    z_charge_max_wh: float
    grid_step_wh: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            _require(math.isfinite(value),
                     f"battery {f.name} must be finite, got {value!r}")
        _require(self.grid_step_wh > 0,
                 f"battery grid step must be positive, got {self.grid_step_wh!r}")
        _require(self.b_max_wh >= 0,
                 f"battery capacity must be non-negative, got {self.b_max_wh!r}")
        _require(self.z_discharge_max_wh >= 0 and self.z_charge_max_wh >= 0,
                 "battery rate bounds must be non-negative")
        steps = self.b_max_wh / self.grid_step_wh
        _require(math.isfinite(steps)
                 and abs(steps - round(steps)) <= GRID_REL_TOL * max(1.0, steps),
                 f"capacity {self.b_max_wh!r} is not a multiple of the grid step "
                 f"{self.grid_step_wh!r}")
        _require(0 <= self.b_init_wh <= self.b_max_wh,
                 f"initial level {self.b_init_wh!r} outside [0, {self.b_max_wh!r}]")
        # raises if the initial level is off the grid
        self.level_index(self.b_init_wh)

    @property
    def n_levels(self) -> int:
        return round(self.b_max_wh / self.grid_step_wh) + 1

    def levels(self) -> list[float]:
        """All storable levels, ascending from 0 to capacity."""
        return [i * self.grid_step_wh for i in range(self.n_levels)]

    def level_index(self, level_wh: float) -> int:
        """Index of ``level_wh`` on the grid; rejects off-grid values."""
        q = level_wh / self.grid_step_wh
        idx = round(q) if math.isfinite(q) else -1
        snapped = idx * self.grid_step_wh
        tol = GRID_REL_TOL * max(1.0, abs(level_wh), self.grid_step_wh)
        if idx < 0 or idx >= self.n_levels or abs(snapped - level_wh) > tol:
            raise ModelError(
                f"battery level {level_wh!r} Wh is not on the "
                f"{self.grid_step_wh!r} Wh grid within [0, {self.b_max_wh!r}]")
        return idx


@dataclass(frozen=True)
class PriceSignal:
    """Per-slot electricity price in currency per Wh."""

    values: tuple[float, ...]

    def __post_init__(self):
        _require(len(self.values) >= 1, "price signal must cover at least one slot")
        for i, c in enumerate(self.values, start=1):
            _require(math.isfinite(c) and c >= 0,
                     f"price for slot {i} must be finite and non-negative, "
                     f"got {c!r}")

    def at(self, t: int) -> float:
        """Price during 1-based slot ``t``."""
        _require(1 <= t <= len(self.values), f"slot {t} outside price horizon")
        return self.values[t - 1]

    def __len__(self) -> int:
        return len(self.values)


class ReferenceSource(str, Enum):
    """Provenance of the reference load the privacy bound is anchored to."""

    CONFIG = "config-constant"
    HISTORICAL = "historical-mean"


@dataclass(frozen=True)
class PrivacyPolicy:
    """Two-sided band the metered load must stay inside.

    The metered load may deviate from the fixed reference level
    ``l_bar_w`` by at most ``lambda_w`` in either direction.

    Attributes:
        lambda_w: half-width of the allowed band, in W.
        l_bar_w: reference load level, in W.
        l_bar_source: where the reference came from.  It never changes a
            decision, but it is part of the model fingerprint.
    """

    lambda_w: float
    l_bar_w: float
    l_bar_source: ReferenceSource = ReferenceSource.CONFIG

    def __post_init__(self):
        _require(math.isfinite(self.lambda_w) and self.lambda_w >= 0,
                 f"privacy bound must be finite and non-negative, "
                 f"got {self.lambda_w!r}")
        _require(math.isfinite(self.l_bar_w) and self.l_bar_w >= 0,
                 f"reference load must be finite and non-negative, "
                 f"got {self.l_bar_w!r}")

    @property
    def tolerance_w(self) -> float:
        """Roundoff slack: decisions on the band re-emerge a few ulp outside."""
        return 1e-9 * max(1.0, self.lambda_w, self.l_bar_w)


@dataclass(frozen=True)
class SystemState:
    """Scheduler state at the start of a slot.

    Attributes:
        battery_wh: stored energy, on the battery grid.
        remaining: per schedulable appliance, slots of work still owed.
            ``remaining[i] == duration_slots[i]`` encodes "not yet
            started"; 0 encodes "finished".
    """

    battery_wh: float
    remaining: tuple[int, ...]

    def __post_init__(self):
        _require(all(isinstance(r, int) and r >= 0 for r in self.remaining),
                 f"remaining slot counts must be non-negative integers, "
                 f"got {self.remaining!r}")


@dataclass(frozen=True)
class Decision:
    """Controls applied during one slot.

    Attributes:
        starts: per schedulable appliance, whether it starts this slot.
        battery_delta_wh: grid-exact level change; positive charges.
    """

    starts: tuple[bool, ...]
    battery_delta_wh: float

    @property
    def n_starts(self) -> int:
        return sum(self.starts)


@dataclass(frozen=True)
class PrivacyScenario:
    """One joint placement of every non-schedulable appliance.

    ``starts[j]`` is the start slot of appliance ``j`` or ``None`` when
    the appliance does not run in this scenario.
    """

    starts: tuple[Optional[int], ...]

    @classmethod
    def inactive(cls, n_appliances: int) -> "PrivacyScenario":
        """The scenario in which no non-schedulable appliance runs."""
        return cls(starts=(None,) * n_appliances)

    @property
    def is_inactive(self) -> bool:
        return all(s is None for s in self.starts)


@dataclass(frozen=True)
class ScenarioSet:
    """Ordered, duplicate-free collection of privacy scenarios."""

    scenarios: tuple[PrivacyScenario, ...] = ()

    def __post_init__(self):
        _require(len(set(self.scenarios)) == len(self.scenarios),
                 "scenario set contains duplicates")

    @classmethod
    def empty(cls) -> "ScenarioSet":
        return cls(scenarios=())

    @classmethod
    def base(cls, n_appliances: int) -> "ScenarioSet":
        """The no-draw scenario alone: the plain band, no usage appliances."""
        return cls(scenarios=(PrivacyScenario.inactive(n_appliances),))

    def with_scenario(self, scenario: PrivacyScenario) -> "ScenarioSet":
        """New set with ``scenario`` appended; rejects duplicates."""
        _require(scenario not in self.scenarios,
                 f"scenario {scenario.starts!r} already in set")
        return ScenarioSet(scenarios=self.scenarios + (scenario,))

    def __contains__(self, scenario: PrivacyScenario) -> bool:
        return scenario in self.scenarios

    def __iter__(self) -> Iterator[PrivacyScenario]:
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)


@dataclass(frozen=True)
class Instance:
    """A complete scheduling problem: horizon, loads, storage, tariff, policy."""

    grid: TimeGrid
    appliances: tuple[SchedulableAppliance, ...]
    ns_appliances: tuple[NonSchedulableAppliance, ...]
    battery: Battery
    price: PriceSignal
    policy: PrivacyPolicy

    def __post_init__(self):
        ids = [a.id for a in self.appliances] + [a.id for a in self.ns_appliances]
        _require(len(set(ids)) == len(ids), f"duplicate appliance ids in {ids!r}")
        for a in self.appliances:
            _require(a.duration_slots <= self.grid.tau,
                     f"appliance {a.id}: duration {a.duration_slots} exceeds the "
                     f"{self.grid.tau}-slot horizon")
        for a in self.ns_appliances:
            _require(a.zone[1] <= self.grid.tau,
                     f"appliance {a.id}: zone {a.zone!r} leaves the "
                     f"{self.grid.tau}-slot horizon")
        _require(len(self.price) == self.grid.tau,
                 f"price signal covers {len(self.price)} slots, horizon has "
                 f"{self.grid.tau}")
        # every energy, grid-step count and cost the solver and the reports
        # form is bounded by one slot's largest energy, that energy in grid
        # steps, and the horizon's cost at that energy
        bat, h = self.battery, self.grid.slot_hours
        slot_wh = ((sum(self.powers_w) + sum(a.power_w for a in self.ns_appliances)
                    + self.policy.l_bar_w) * h
                   + min(max(bat.z_charge_max_wh, bat.z_discharge_max_wh),
                         bat.b_max_wh))
        _require(math.isfinite(slot_wh / bat.grid_step_wh),
                 f"the largest slot energy overflows: appliance powers and the "
                 f"reference load over {h!r} h, in {bat.grid_step_wh!r} Wh grid "
                 f"steps, exceed the float range")
        _require(math.isfinite(sum(self.price.values) * slot_wh),
                 f"the horizon cost overflows: prices times the largest slot "
                 f"energy of {slot_wh!r} Wh exceed the float range")

    @property
    def durations(self) -> tuple[int, ...]:
        return tuple(a.duration_slots for a in self.appliances)

    @property
    def powers_w(self) -> tuple[float, ...]:
        return tuple(a.power_w for a in self.appliances)

    def initial_state(self) -> SystemState:
        return SystemState(battery_wh=self.battery.b_init_wh,
                           remaining=self.durations)


# ---------------------------------------------------------------------------
# Pure operations


def step_remaining(state: SystemState, decision: Decision,
                   durations: Sequence[int]) -> tuple[int, ...]:
    """Remaining-work vector at the next slot.

    An appliance that starts this slot, or that has started earlier and
    is still owed work, sheds one slot of work; everything else is
    unchanged.
    """
    if not (len(state.remaining) == len(decision.starts) == len(durations)):
        raise ModelError(
            f"state/decision/durations disagree on appliance count: "
            f"{len(state.remaining)}/{len(decision.starts)}/{len(durations)}")
    out = []
    for r, s, dur in zip(state.remaining, decision.starts, durations):
        if s and r != dur:
            raise ModelError(
                f"cannot start an appliance with {r} of {dur} slots remaining")
        running = s or r < dur
        out.append(r - 1 if running and r > 0 else r)
    return tuple(out)


def appliance_load(remaining_now: Sequence[int], remaining_next: Sequence[int],
                   powers_w: Sequence[float]) -> float:
    """Schedulable-appliance power draw implied by the work decrement."""
    if not (len(remaining_now) == len(remaining_next) == len(powers_w)):
        raise ModelError(
            f"remaining/power vectors disagree on appliance count: "
            f"{len(remaining_now)}/{len(remaining_next)}/{len(powers_w)}")
    return float(sum(p * (rn - rx)
                     for rn, rx, p in zip(remaining_now, remaining_next, powers_w)))


def step_battery(state: SystemState, delta_wh: float,
                 battery: Battery) -> Optional[float]:
    """Next battery level, or ``None`` when the transition is infeasible.

    Infeasible means: off the level grid, outside [0, capacity], or past
    a per-slot rate bound.  Callers treat ``None`` as a pruned branch.
    """
    if delta_wh > battery.z_charge_max_wh or -delta_wh > battery.z_discharge_max_wh:
        return None
    nxt = state.battery_wh + delta_wh
    try:
        idx = battery.level_index(nxt)
    except ModelError:
        return None
    return idx * battery.grid_step_wh


def scenario_load(scenario: PrivacyScenario,
                  ns_appliances: Sequence[NonSchedulableAppliance],
                  t: int) -> float:
    """Non-schedulable power draw at slot ``t`` under one scenario."""
    if len(scenario.starts) != len(ns_appliances):
        raise ModelError(
            f"scenario places {len(scenario.starts)} appliances, instance has "
            f"{len(ns_appliances)}")
    return float(sum(a.power_w for a, s in zip(ns_appliances, scenario.starts)
                     if a.active(s, t)))


def aggregated_load(state: SystemState, decision: Decision,
                    scenario: PrivacyScenario, t: int,
                    instance: Instance) -> float:
    """Metered load in W at slot ``t``: appliances + battery + scenario."""
    remaining_next = step_remaining(state, decision, instance.durations)
    y = appliance_load(state.remaining, remaining_next, instance.powers_w)
    w = scenario_load(scenario, instance.ns_appliances, t)
    return y + decision.battery_delta_wh / instance.grid.slot_hours + w


def privacy_gap(load_w: float, policy: PrivacyPolicy) -> float:
    """Signed deviation of the metered load from the reference level."""
    return load_w - policy.l_bar_w


def slot_cost(load_w: float, price_per_wh: float, slot_hours: float) -> float:
    """Billed cost of one slot; negative when the meter runs backwards."""
    return price_per_wh * load_w * slot_hours

