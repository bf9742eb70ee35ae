"""Core domain types and the load/battery/privacy/cost arithmetic.

All quantities are normalized at ingestion: power in W, energy in Wh,
prices in currency per Wh.  With the default one-hour slot, W and Wh
coincide numerically; ``slot_hours`` carries the conversion otherwise.

Slots are numbered 1..tau throughout the public surface (configs,
scenarios, schedules, reports).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ModelError

#: Relative tolerance used when snapping energies onto the battery grid.
GRID_REL_TOL = 1e-9


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelError(message)


def _require_id(id: str) -> None:
    """An appliance id is non-empty and fits one field of ``report.csv``,
    whose ``started`` column joins ids with ``;``."""
    _require(bool(id), "appliance id must be non-empty")
    _require(set(id).isdisjoint(',;"\r\n'),
             f"appliance id {id!r} holds a comma, semicolon, double quote, "
             f"CR or LF, which would split a report.csv row")


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
        # not isinstance: True == 1, yet it hashes apart from 1 in a table
        # dump's model fingerprint, as in every int field of the model
        _require(type(self.tau) is int and self.tau >= 1,
                 f"horizon must be a positive integer slot count, got {self.tau!r}")
        _require(math.isfinite(self.slot_hours) and self.slot_hours > 0,
                 f"slot_hours must be positive and finite, got {self.slot_hours!r}")


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
        _require_id(self.id)
        _require(math.isfinite(self.power_w) and self.power_w > 0,
                 f"appliance {self.id}: power must be positive and finite, "
                 f"got {self.power_w!r}")
        _require(math.isfinite(self.workload_wh) and self.workload_wh > 0,
                 f"appliance {self.id}: workload must be positive and finite, "
                 f"got {self.workload_wh!r}")
        _require(type(self.duration_slots) is int and self.duration_slots >= 1,
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
        _require_id(self.id)
        _require(math.isfinite(self.power_w) and self.power_w > 0,
                 f"appliance {self.id}: power must be positive and finite, "
                 f"got {self.power_w!r}")
        lo, hi = self.zone
        _require(type(lo) is int and type(hi) is int and 1 <= lo <= hi,
                 f"appliance {self.id}: zone must be 1-based inclusive bounds, "
                 f"got {self.zone!r}")
        span = hi - lo + 1
        _require(type(self.runtime_slots) is int
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
            total = left_sum(self.start_prob)
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

    @functools.cached_property
    def start_cdf(self) -> tuple[float, ...]:
        """Cumulative start probabilities, as ``Generator.choice`` forms them.

        The running sum divided by its last entry.  A uniform draw ``u``
        picks the first feasible start whose entry exceeds ``u``, which is
        ``choice(len(starts), p=start_probabilities())``'s pick for the
        same ``u``.  Computed once per appliance.
        """
        cdf = np.cumsum(self.start_probabilities())
        cdf /= cdf[-1]
        return tuple(cdf.tolist())

    @functools.cached_property
    def run_slots(self) -> dict[int, range]:
        """Per feasible start, the 0-based slots its run covers.

        A placement only ever holds feasible starts, so this is every run
        the appliance can make.  Computed once per appliance.
        """
        return {s: range(s - 1, s - 1 + self.runtime_slots)
                for s in self.feasible_starts()}


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


@dataclass(frozen=True)
class PrivacyPolicy:
    """Two-sided band the metered load must stay inside.

    The metered load may deviate from the fixed reference level
    ``l_bar_w`` by at most ``lambda_w`` in either direction, plus a
    roundoff slack: a load is inside iff ``-bound_w <= privacy_gap(load)
    <= bound_w`` (:func:`band_sides`).  The DP's windows, the loop's stop
    and the replay's ``breach`` all test the walk's load bits
    ``(y + (k * step) / h) + w``: appliance draw, battery move, usage.

    Attributes:
        lambda_w: half-width of the allowed band, in W.
        l_bar_w: reference load level, in W.
    """

    lambda_w: float
    l_bar_w: float

    def __post_init__(self):
        _require(math.isfinite(self.lambda_w) and self.lambda_w >= 0,
                 f"privacy bound must be finite and non-negative, "
                 f"got {self.lambda_w!r}")
        _require(math.isfinite(self.l_bar_w) and self.l_bar_w >= 0,
                 f"reference load must be finite and non-negative, "
                 f"got {self.l_bar_w!r}")

    @property
    def tolerance_w(self) -> float:
        """Roundoff slack past ``lambda_w`` that the band admits."""
        return 1e-9 * max(1.0, self.lambda_w, self.l_bar_w)

    @property
    def bound_w(self) -> float:
        """The largest ``|privacy_gap|`` inside the band: ``lambda_w`` plus
        its slack."""
        return self.lambda_w + self.tolerance_w


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
        slot_wh = ((left_sum(self.powers_w)
                    + left_sum(a.power_w for a in self.ns_appliances)
                    + self.policy.l_bar_w) * h
                   + min(max(bat.z_charge_max_wh, bat.z_discharge_max_wh),
                         bat.b_max_wh))
        _require(math.isfinite(slot_wh / bat.grid_step_wh),
                 f"the largest slot energy overflows: appliance powers and the "
                 f"reference load over {h!r} h, in {bat.grid_step_wh!r} Wh grid "
                 f"steps, exceed the float range")
        _require(math.isfinite(left_sum(self.price.values) * slot_wh),
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


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0``.

    The one sum of the package: the built-in ``sum`` adds this way up to
    Python 3.11, but from 3.12 on it compensates float roundoff and
    returns other bits, so a cost, a draw or a table would differ by
    interpreter.  Exact on ints and bools.
    """
    return functools.reduce(operator.add, values, 0)


def check_placement(starts: Sequence,
                    ns_appliances: Sequence[NonSchedulableAppliance]) -> None:
    """Refuse anything but one start per appliance, each ``None`` (the
    appliance does not run) or a feasible start of that appliance.

    The one rule for a placement, wherever it comes from: a scenario
    set, a scenario file, a table dump's header or an event script.
    """
    if len(starts) != len(ns_appliances):
        raise ModelError(
            f"scenario places {len(starts)} appliances, instance has "
            f"{len(ns_appliances)} appliances")
    for app, s in zip(ns_appliances, starts):
        # a bool is an int to Python, and 2.0 == 2 finds the key 2
        if s is not None and (type(s) is not int or s not in app.run_slots):
            raise ModelError(
                f"appliance {app.id}: start {s!r} does not fit zone "
                f"{app.zone!r} with runtime {app.runtime_slots}")


def scenario_load(scenario: PrivacyScenario,
                  ns_appliances: Sequence[NonSchedulableAppliance],
                  t: int) -> float:
    """Non-schedulable power draw at slot ``t`` under one scenario."""
    check_placement(scenario.starts, ns_appliances)
    return float(left_sum(
        a.power_w for a, s in zip(ns_appliances, scenario.starts)
        if s is not None and t - 1 in a.run_slots[s]))


def scenario_draws(scenarios: Sequence[PrivacyScenario],
                   ns_appliances: Sequence[NonSchedulableAppliance],
                   tau: int) -> np.ndarray:
    """Non-schedulable draw of each scenario at slots 1..tau, one row each.

    Each entry is an :func:`in_order_sums` sum, so it is bit-equal to
    :func:`scenario_load`.  Every placement must pass
    :func:`check_placement`.
    """
    # None becomes NaN, which no comparison accepts: an inactive
    # appliance draws nothing
    starts = np.array([sc.starts for sc in scenarios], dtype=float)
    first = starts.reshape(len(scenarios), len(ns_appliances)).T[:, :, None]
    runtime = np.array([a.runtime_slots for a in ns_appliances],
                       dtype=float).reshape(-1, 1, 1)
    slots = np.arange(1, tau + 1)
    active = (first <= slots) & (slots <= first + (runtime - 1))
    return in_order_sums([a.power_w for a in ns_appliances], active)


def in_order_sums(powers: Sequence[float], active: np.ndarray) -> np.ndarray:
    """Per entry of ``active[0]``, the powers of the appliances active
    there (one mask of ``active`` per appliance), summed from 0 in
    appliance order.

    The one summing code for placement draws: the DP's envelope and the
    worst-case search agree bit for bit because both sum here.
    """
    total = np.zeros(active.shape[1:])
    for power, on in zip(powers, active):
        np.add(total, power, out=total, where=on)
    return total


def privacy_gap(load_w: float, policy: PrivacyPolicy) -> float:
    """Signed deviation of the metered load from the reference level."""
    return load_w - policy.l_bar_w


def band_sides(load_w, policy: PrivacyPolicy) -> tuple:
    """The band test's two halves on ``load_w``, a float or an array:
    whether its gap reaches ``-bound_w`` and whether it stays within
    ``bound_w``.  ``load_w`` is inside the band iff both hold."""
    gap = privacy_gap(load_w, policy)
    return -policy.bound_w <= gap, gap <= policy.bound_w


def slot_cost(load_w: float, price_per_wh: float, slot_hours: float) -> float:
    """Billed cost of one slot; negative when the meter runs backwards."""
    return price_per_wh * load_w * slot_hours

