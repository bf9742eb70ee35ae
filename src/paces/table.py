"""Backward-recursive construction of per-slot schedule tables.

For a fixed scenario set the builder sweeps the horizon from the last
slot to the first.  Each pass evaluates, for every discretized state
(battery level on the grid x remaining-work vector), every admissible
decision (appliance starts x grid-exact battery move), keeps the
cheapest continuation, and stores value and argmin decision.  Entries
with no feasible continuation hold an infinity sentinel.

A slot is solved in one batch: every start option of every remaining
vector is one row, evaluated against all battery levels at once, one
battery move at a time (see :class:`_Engine`).  The start options depend
on the appliances and the horizon only, so they are enumerated once per
instance shape and shared by every build of it.

The minimized objective is the controllable part of the bill: price
times appliance-plus-battery energy.  Non-schedulable consumption is
decision independent for a fixed scenario set and is reported
separately, see :func:`expected_total_cost`.

Ties between equally cheap decisions break deterministically: fewer
starts, then smaller battery-move magnitude, then lexicographically
smallest start vector, then the smaller signed battery move.
"""
from __future__ import annotations

import base64
import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (ConfigError, InfeasibleError, IntegrityError, ModelError,
                     StateSpaceError)
from .model import (Battery, Decision, Instance, PrivacyScenario, ScenarioSet,
                    SchedulableAppliance, SystemState, aggregated_load,
                    appliance_load, privacy_gap, scenario_load, slot_cost,
                    step_remaining)

DEFAULT_STATE_CAP = 2_000_000

#: Guard applied before snapping constraint bounds onto battery-grid steps,
#: so a bound that lands exactly on a grid point survives float roundoff.
_SNAP_EPS = 1e-9

OBJECTIVE_MODES = ("expected", "worst-case-cost")


@dataclass(frozen=True)
class SolveConfig:
    """Everything one backward pass needs: instance, scenarios, objective."""

    instance: Instance
    scenarios: ScenarioSet = field(default_factory=ScenarioSet.empty)
    scenario_weights: Optional[tuple[float, ...]] = None
    objective_mode: str = "expected"
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self):
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ModelError(
                f"objective_mode must be one of {OBJECTIVE_MODES}, "
                f"got {self.objective_mode!r}")
        n_ns = len(self.instance.ns_appliances)
        for sc in self.scenarios:
            if len(sc.starts) != n_ns:
                raise ModelError(
                    f"scenario {sc.starts!r} places {len(sc.starts)} appliances, "
                    f"instance has {n_ns}")
        if self.scenario_weights is not None:
            if len(self.scenario_weights) != len(self.scenarios):
                raise ModelError(
                    f"{len(self.scenario_weights)} weights for "
                    f"{len(self.scenarios)} scenarios")
            if any(w < 0 for w in self.scenario_weights):
                raise ModelError("scenario weights must be non-negative")
            if self.objective_mode == "expected" and len(self.scenarios) > 0:
                total = sum(self.scenario_weights)
                if abs(total - 1.0) > 1e-9:
                    raise ModelError(
                        f"scenario weights sum to {total}, expected 1")
        if self.state_cap < 1:
            raise ModelError(f"state cap must be positive, got {self.state_cap!r}")

    def resolved_weights(self) -> tuple[float, ...]:
        """Configured weights, or uniform over the scenario set."""
        if self.scenario_weights is not None:
            return self.scenario_weights
        n = len(self.scenarios)
        if n == 0:
            return ()
        return (1.0 / n,) * n


def model_fingerprint(config: SolveConfig) -> str:
    """Stable hash of every model ingredient a table depends on."""
    inst = config.instance
    payload = {
        "tau": inst.grid.tau,
        "slot_hours": inst.grid.slot_hours,
        "appliances": [
            [a.id, a.power_w, a.workload_wh, a.duration_slots]
            for a in inst.appliances
        ],
        "ns_appliances": [
            [a.id, a.power_w, a.runtime_slots, list(a.zone),
             None if a.start_prob is None else list(a.start_prob)]
            for a in inst.ns_appliances
        ],
        "battery": [inst.battery.b_max_wh, inst.battery.b_init_wh,
                    inst.battery.z_discharge_max_wh, inst.battery.z_charge_max_wh,
                    inst.battery.grid_step_wh],
        "price": list(inst.price.values),
        "policy": [inst.policy.lambda_w, inst.policy.l_bar_w,
                   inst.policy.l_bar_source.value],
        "omega": [list(sc.starts) for sc in config.scenarios],
        "weights": list(config.resolved_weights()),
        "objective_mode": config.objective_mode,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# State enumeration


def state_count(appliances: Sequence[SchedulableAppliance],
                battery: Battery) -> int:
    """Number of discretized states: battery levels x remaining vectors."""
    count = battery.n_levels
    for a in appliances:
        count *= a.duration_slots + 1
    return count


def enumerate_states(appliances: Sequence[SchedulableAppliance],
                     battery: Battery,
                     state_cap: int = DEFAULT_STATE_CAP) -> list[SystemState]:
    """Materialize every state, battery-major, remaining vectors ascending."""
    count = state_count(appliances, battery)
    if count > state_cap:
        raise StateSpaceError(count, state_cap)
    ranges = [range(a.duration_slots + 1) for a in appliances]
    return [SystemState(battery_wh=level, remaining=combo)
            for level in battery.levels()
            for combo in itertools.product(*ranges)]


# ---------------------------------------------------------------------------
# Decision machinery shared by the backward pass and the per-state API


@dataclass(frozen=True)
class _SlotOptions:
    """Admissible start sets of every remaining vector at one slot.

    One row per option: vectors ascending, each vector's options by
    start-set size, then lexicographically.  ``rank`` is the row's visit
    position inside its vector, by ``(n_starts, skey)`` where ``skey``
    reads the start mask with the first appliance as the most significant
    bit.  ``spans[r]`` is the slice of vector ``r``'s rows, or ``None``
    when some unstarted appliance can no longer meet the deadline, which
    dooms every continuation from that vector.  All arrays are read-only.
    """

    r_idx: np.ndarray
    mask: np.ndarray
    n_starts: np.ndarray
    y_w: np.ndarray
    r_next: np.ndarray
    rank: np.ndarray
    spans: tuple[Optional[slice], ...]


def _read_only(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=16)
def _option_tables(durations: tuple[int, ...], powers: tuple[float, ...],
                   tau: int) -> tuple[_SlotOptions, ...]:
    """Start options of slots ``1..tau``, at index ``t - 1``.

    They depend on the appliances and the horizon only, so every build
    of one instance shape shares them: the refinement loop, each sweep
    capacity and each probe of the lambda bisection.
    """
    n_app = len(durations)
    r_combos = list(itertools.product(*[range(d + 1) for d in durations]))
    r_index = {combo: i for i, combo in enumerate(r_combos)}
    # per vector: the last slot it is not doomed at, and its option rows
    # (r_idx, mask, n_starts, y_w, r_next, rank)
    per_vector = []
    for r_i, combo in enumerate(r_combos):
        startable = []
        last = tau
        running_y = 0.0
        for i, (r, dur, p) in enumerate(zip(combo, durations, powers)):
            if 0 < r < dur:
                running_y += p
            elif r == dur:
                startable.append(i)
                last = min(last, tau - dur + 1)
        options = []
        for size in range(len(startable) + 1):
            for subset in itertools.combinations(startable, size):
                y = running_y + sum(powers[i] for i in subset)
                nxt = []
                for i, (r, dur) in enumerate(zip(combo, durations)):
                    running = i in subset or 0 < r < dur
                    nxt.append(r - 1 if running and r > 0 else r)
                mask = sum(1 << i for i in subset)
                skey = sum(1 << (n_app - 1 - i) for i in subset)
                options.append((r_i, mask, size, y, r_index[tuple(nxt)], skey))
        visit = sorted(range(len(options)),
                       key=lambda j: (options[j][2], options[j][5]))
        rank = {j: pos for pos, j in enumerate(visit)}
        per_vector.append((last, [opt[:5] + (rank[j],)
                                  for j, opt in enumerate(options)]))

    # the all-done vector is never doomed, so no slot is empty
    slots = []
    for t in range(1, tau + 1):
        live, spans = [], []
        for last, rows in per_vector:
            if t > last:
                spans.append(None)
            else:
                spans.append(slice(len(live), len(live) + len(rows)))
                live.extend(rows)
        cols = list(zip(*live))
        slots.append(_SlotOptions(
            r_idx=_read_only(cols[0], np.intp),
            mask=_read_only(cols[1], np.int32),
            n_starts=_read_only(cols[2], np.int64),
            y_w=_read_only(cols[3], np.float64),
            r_next=_read_only(cols[4], np.intp),
            rank=_read_only(cols[5], np.int64),
            spans=tuple(spans)))
    return tuple(slots)


class _Engine:
    """Precomputed instance geometry for one solve.

    :meth:`solve_slot` evaluates a whole slot at once.  The start options
    come from :func:`_option_tables`, built once per instance shape on
    first use, so making an engine (as ``load_table`` does) builds none.
    The continuation is padded with ``inf`` by the rate limit on both
    sides, so each battery move ``k`` is one column shift of it.  Moves
    are scanned in ``(|k|, k)`` order with a strict ``<`` running minimum,
    which keeps the first minimum exactly as a per-option ``argmin`` over
    the same order would.  The affine form ``-c*step*b + min_j (f[j] +
    c*step*j)`` (a sliding-window minimum) would save the move loop but
    adds the price term in another order, which changes the rounding of
    the values and so which moves tie.  The tie-break then walks each
    vector's options by visit rank, all vectors at once.
    """

    def __init__(self, config: SolveConfig):
        inst = config.instance
        self.config = config
        self.inst = inst
        self.tau = inst.grid.tau
        self.h = inst.grid.slot_hours
        self.durations = inst.durations
        self.powers = inst.powers_w
        self.n_app = len(self.durations)
        bat = inst.battery
        if state_count(inst.appliances, bat) > config.state_cap:
            raise StateSpaceError(state_count(inst.appliances, bat),
                                  config.state_cap)
        self.step = bat.grid_step_wh
        self.m = bat.n_levels
        self.k_rate_lo = -self._rate_steps(bat.z_discharge_max_wh)
        self.k_rate_hi = self._rate_steps(bat.z_charge_max_wh)
        self.r_combos = list(itertools.product(
            *[range(d + 1) for d in self.durations]))
        self.r_index = {combo: i for i, combo in enumerate(self.r_combos)}
        self.n_r = len(self.r_combos)
        self.done_idx = self.r_index[(0,) * self.n_app]

        # per slot, the extreme non-schedulable draws over the scenario set
        omega = list(config.scenarios)
        self.has_privacy = len(omega) > 0
        self.w_min = np.zeros(self.tau + 1)
        self.w_max = np.zeros(self.tau + 1)
        for t in range(1, self.tau + 1):
            if omega:
                draws = [scenario_load(sc, inst.ns_appliances, t) for sc in omega]
                self.w_min[t] = min(draws)
                self.w_max[t] = max(draws)

    def _rate_steps(self, rate_wh: float) -> int:
        """Grid steps one slot may move; no move crosses the whole pack."""
        q = min(rate_wh / self.step, self.m - 1)
        return math.floor(q + _SNAP_EPS * max(1.0, abs(q)))

    def options(self, t: int) -> _SlotOptions:
        """Start options at slot ``t``, shared with every same-shape engine."""
        return _option_tables(self.durations, self.powers, self.tau)[t - 1]

    def k_windows(self, t: int, y_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Battery-step range allowed by rate and privacy bounds at slot t.

        One ``(k_lo, k_hi)`` pair per appliance draw in ``y_w``.  Privacy
        bounds are clamped to one step past the rate range, so an empty
        window stays empty and every bound fits an integer.
        """
        k_lo = np.full(len(y_w), self.k_rate_lo, dtype=np.int64)
        k_hi = np.full(len(y_w), self.k_rate_hi, dtype=np.int64)
        if self.has_privacy:
            pol = self.inst.policy
            # near 1e308 a bound overflows to +-inf, which the clip maps exactly
            with np.errstate(over="ignore"):
                lo_w = pol.l_bar_w - pol.lambda_w - y_w - self.w_min[t]
                hi_w = pol.l_bar_w + pol.lambda_w - y_w - self.w_max[t]
            q = lo_w * self.h / self.step
            q = np.ceil(q - _SNAP_EPS * np.maximum(1.0, np.abs(q)))
            k_lo = np.clip(q, self.k_rate_lo, self.k_rate_hi + 1).astype(np.int64)
            q = hi_w * self.h / self.step
            q = np.floor(q + _SNAP_EPS * np.maximum(1.0, np.abs(q)))
            k_hi = np.clip(q, self.k_rate_lo - 1, self.k_rate_hi).astype(np.int64)
        return k_lo, k_hi

    def solve_slot(self, t: int, f_next: np.ndarray):
        """One backward step: value and argmin decision for every state.

        ``f_next`` has shape (n_r, m) and holds the continuation values.
        Returns ``(values, dec_mask, dec_step)`` of the same shape;
        ``dec_mask`` is -1 where no decision is feasible.
        """
        c_t = self.inst.price.at(t)
        values = np.full((self.n_r, self.m), np.inf)
        dec_mask = np.full((self.n_r, self.m), -1, dtype=np.int32)
        dec_step = np.zeros((self.n_r, self.m), dtype=np.int32)
        opts = self.options(t)

        # cheapest move per (option, level), first hit in (|k|, k) order
        k_lo, k_hi = self.k_windows(t, opts.y_w)
        pad = -self.k_rate_lo
        padded = np.full((self.n_r, pad + self.m + self.k_rate_hi), np.inf)
        padded[:, pad:pad + self.m] = f_next
        cont = padded[opts.r_next]
        y_h = opts.y_w * self.h
        best = np.full((len(opts.r_idx), self.m), np.inf)
        best_k = np.zeros(best.shape, dtype=np.int64)
        cand = np.empty(best.shape)
        better = np.empty(best.shape, dtype=bool)
        for k in sorted(range(self.k_rate_lo, self.k_rate_hi + 1),
                        key=lambda k: (abs(k), k)):
            inside = (k_lo <= k) & (k <= k_hi)
            if not inside.any():
                continue
            stage = np.where(inside, c_t * (y_h + k * self.step), np.inf)
            np.add(stage[:, None], cont[:, pad + k:pad + k + self.m], out=cand)
            np.less(cand, best, out=better)
            np.copyto(best, cand, where=better)
            np.copyto(best_k, k, where=better)

        # visiting options by (n_starts, skey) settles the start-count and
        # start-vector tie-breaks by order: a later option can win a tie
        # only with as many starts and a smaller battery move
        finite = np.isfinite(best)
        abs_k = np.abs(best_k)
        best_n = np.zeros((self.n_r, self.m), dtype=np.int64)
        best_absk = np.zeros((self.n_r, self.m), dtype=np.int64)
        for rank in range(int(opts.rank.max()) + 1):
            rows = np.flatnonzero(opts.rank == rank)
            r = opts.r_idx[rows]
            vals, held = best[rows], values[r]
            n_starts = opts.n_starts[rows][:, None]
            take = finite[rows] & (
                (vals < held) | ((vals == held) & (n_starts == best_n[r])
                                 & (abs_k[rows] < best_absk[r])))
            values[r] = np.where(take, vals, held)
            best_n[r] = np.where(take, n_starts, best_n[r])
            best_absk[r] = np.where(take, abs_k[rows], best_absk[r])
            dec_mask[r] = np.where(take, opts.mask[rows][:, None], dec_mask[r])
            dec_step[r] = np.where(take, best_k[rows], dec_step[r])
        return values, dec_mask, dec_step

    def terminal_continuation(self) -> np.ndarray:
        """Continuation values past the horizon: 0 once all work is done."""
        f = np.full((self.n_r, self.m), np.inf)
        f[self.done_idx, :] = 0.0
        return f

    def state_indices(self, state: SystemState) -> tuple[int, int]:
        if len(state.remaining) != self.n_app:
            raise ModelError(
                f"state has {len(state.remaining)} appliances, instance has "
                f"{self.n_app}")
        r_idx = self.r_index.get(state.remaining)
        if r_idx is None:
            raise ModelError(
                f"remaining vector {state.remaining!r} outside "
                f"{tuple(self.durations)!r}")
        return r_idx, self.inst.battery.level_index(state.battery_wh)


# ---------------------------------------------------------------------------
# Public table type


@dataclass(frozen=True)
class TableEntry:
    """One table cell: argmin decision, value-to-go, feasibility flag."""

    decision: Optional[Decision]
    value: float
    feasible: bool


class ScheduleTable:
    """Per-slot mapping from system state to optimal decision and value."""

    def __init__(self, engine: _Engine, values: np.ndarray,
                 dec_mask: np.ndarray, dec_step: np.ndarray, model_hash: str):
        self.config = engine.config
        self._engine = engine
        self.values = values
        self.dec_mask = dec_mask
        self.dec_step = dec_step
        self.model_hash = model_hash

    @property
    def tau(self) -> int:
        return self._engine.tau

    @property
    def n_states(self) -> int:
        return self._engine.n_r * self._engine.m

    def states(self) -> list[SystemState]:
        return enumerate_states(self.config.instance.appliances,
                                self.config.instance.battery,
                                self.config.state_cap)

    def entry(self, t: int, state: SystemState) -> TableEntry:
        """Table cell for slot ``t``; raises on off-grid states."""
        if not 1 <= t <= self.tau:
            raise ModelError(f"slot {t} outside horizon 1..{self.tau}")
        r_idx, b_idx = self._engine.state_indices(state)
        value = float(self.values[t - 1, r_idx, b_idx])
        mask = int(self.dec_mask[t - 1, r_idx, b_idx])
        if mask < 0:
            return TableEntry(decision=None, value=value, feasible=False)
        starts = tuple(bool(mask >> i & 1) for i in range(self._engine.n_app))
        delta = float(self.dec_step[t - 1, r_idx, b_idx] * self._engine.step)
        return TableEntry(decision=Decision(starts=starts, battery_delta_wh=delta),
                          value=value, feasible=True)

    def value(self, t: int, state: SystemState) -> float:
        return self.entry(t, state).value

    def initial_value(self) -> float:
        """Optimal controllable cost from the configured initial state."""
        return self.value(1, self.config.instance.initial_state())


# ---------------------------------------------------------------------------
# Decision enumeration and the backward pass


def feasible_decisions(state: SystemState, t: int,
                       config: SolveConfig) -> list[Decision]:
    """Every admissible decision at ``(state, t)``, deterministically ordered.

    A decision is admissible when each started appliance is unstarted and
    can still finish by the horizon, the battery move is grid-exact and
    respects rate and level bounds, and the metered load satisfies the
    privacy band for every scenario in the configured set.
    """
    eng = _Engine(config)
    if not 1 <= t <= eng.tau:
        raise ModelError(f"slot {t} outside horizon 1..{eng.tau}")
    r_idx, b_idx = eng.state_indices(state)
    opts = eng.options(t)
    rows = opts.spans[r_idx]
    if rows is None:
        return []
    pol = config.instance.policy
    out = []
    for mask in opts.mask[rows].tolist():
        starts = tuple(bool(mask >> i & 1) for i in range(eng.n_app))
        k_cands = [k for k in range(eng.k_rate_lo, eng.k_rate_hi + 1)
                   if 0 <= b_idx + k < eng.m]
        for k in sorted(k_cands, key=lambda k: (abs(k), k)):
            decision = Decision(starts=starts, battery_delta_wh=k * eng.step)
            ok = True
            for sc in config.scenarios:
                load = aggregated_load(state, decision, sc, t, config.instance)
                if abs(privacy_gap(load, pol)) > pol.lambda_w:
                    ok = False
                    break
            if ok:
                out.append(decision)
    return out


def backward_recursion(config: SolveConfig) -> ScheduleTable:
    """Build the full table; raises when the initial state cannot finish."""
    eng = _Engine(config)
    values = np.empty((eng.tau, eng.n_r, eng.m))
    dec_mask = np.empty((eng.tau, eng.n_r, eng.m), dtype=np.int32)
    dec_step = np.empty((eng.tau, eng.n_r, eng.m), dtype=np.int32)
    f_next = eng.terminal_continuation()
    for t in range(eng.tau, 0, -1):
        f_t, mask_t, step_t = eng.solve_slot(t, f_next)
        values[t - 1] = f_t
        dec_mask[t - 1] = mask_t
        dec_step[t - 1] = step_t
        f_next = f_t
    init_r, init_b = eng.state_indices(config.instance.initial_state())
    if dec_mask[0, init_r, init_b] < 0:
        # the initial state is the only one reachable at slot 1, so slot 1 is
        # where every branch from it has died
        raise InfeasibleError(
            "SP infeasible under the configured scenario set: every branch "
            "from the initial state dies by slot 1", earliest_dead_slot=1)
    return ScheduleTable(eng, values, dec_mask, dec_step,
                         model_fingerprint(config))


# ---------------------------------------------------------------------------
# Schedule extraction


@dataclass(frozen=True)
class ScheduleSolution:
    """A concrete trajectory read out of a table.

    ``base_load_w`` is the scenario-independent part of the metered load
    (appliances plus battery); ``load_w`` adds the scenario draw.  The
    controllable cost prices the base load only, ``total_cost`` prices
    the realized load.
    """

    decisions: tuple[Decision, ...]
    states: tuple[SystemState, ...]
    base_load_w: tuple[float, ...]
    load_w: tuple[float, ...]
    privacy_gap_w: tuple[float, ...]
    slot_costs: tuple[float, ...]
    controllable_cost: float
    total_cost: float
    scenario: PrivacyScenario


def runtime_lookup(table: ScheduleTable, state: SystemState, t: int) -> Decision:
    """Decision stored for ``(state, t)``; off-table states are fatal.

    The diagnostic names the nearest feasible tabulated state, which is
    usually enough to spot meter drift or a mis-scaled battery reading.
    """
    try:
        entry = table.entry(t, state)
    except ModelError as err:
        if not 1 <= t <= table.tau:  # a bad slot, not an off-grid state
            raise
        nearest = _nearest_feasible(table, state, t)
        raise IntegrityError(
            f"state {state!r} is not on the table grid at slot {t}: {err}; "
            f"nearest tabulated feasible state is {nearest!r}") from None
    if not entry.feasible:
        nearest = _nearest_feasible(table, state, t)
        raise IntegrityError(
            f"state {state!r} has no feasible decision at slot {t}; nearest "
            f"tabulated feasible state is {nearest!r}")
    return entry.decision


def _nearest_feasible(table: ScheduleTable, state: SystemState,
                      t: int) -> Optional[SystemState]:
    """Feasible state of slot ``t`` nearest to ``state``, or ``None``.

    The distance is grid steps of battery level plus the summed
    differences of remaining work, or plus 1e9 when the appliance counts
    differ.  Cells are scored battery-major, the order of
    :func:`enumerate_states`, and the first nearest one wins, so a NaN or
    infinite level names the first feasible state.
    """
    eng = table._engine
    b_idx, r_idx = np.nonzero(table.dec_mask[t - 1].T >= 0)
    if len(b_idx) == 0:
        return None
    step = eng.step
    score = np.abs(b_idx * step - state.battery_wh) / step
    if len(state.remaining) == eng.n_app:
        # r_idx counts in itertools.product order, last appliance fastest;
        # a count past the duration adds its excess exactly, as ints do
        near = [min(r, d) for r, d in zip(state.remaining, eng.durations)]
        work, rest = np.zeros(len(r_idx), dtype=np.int64), r_idx.copy()
        for r, d in zip(reversed(near), reversed(eng.durations)):
            work += np.abs(rest % (d + 1) - r)
            rest //= d + 1
        excess = sum(state.remaining) - sum(near)
        score += (work.astype(object) + excess).astype(float) if excess else work
    else:
        score += 1e9
    pick = int(np.argmin(score))
    return SystemState(battery_wh=int(b_idx[pick]) * step,
                       remaining=eng.r_combos[r_idx[pick]])


def extract_schedule(table: ScheduleTable, initial_state: SystemState,
                     scenario: Optional[PrivacyScenario] = None
                     ) -> ScheduleSolution:
    """Walk the table forward from ``initial_state`` under one scenario.

    This is the one forward walk over a table: ``solve`` reads its
    schedule here and ``simulate`` replays through it.  A walk that
    reaches an off-grid or dead state, a decision that restarts an
    appliance or moves the battery outside ``[0, b_max]``, or work left
    unfinished past the horizon raises :class:`IntegrityError`.
    """
    config = table.config
    inst = config.instance
    if scenario is None:
        scenario = PrivacyScenario.inactive(len(inst.ns_appliances))
    if len(scenario.starts) != len(inst.ns_appliances):
        raise ModelError(
            f"scenario places {len(scenario.starts)} appliances, instance has "
            f"{len(inst.ns_appliances)}")

    state = initial_state
    decisions, states = [], [state]
    base_loads, loads, gaps, costs = [], [], [], []
    h = inst.grid.slot_hours
    bat = inst.battery
    for t in range(1, inst.grid.tau + 1):
        decision = runtime_lookup(table, state, t)
        try:
            next_remaining = step_remaining(state, decision, inst.durations)
        except ModelError as err:
            raise IntegrityError(
                f"table decision at slot {t} cannot be applied to "
                f"{state!r}: {err}") from None
        b_next = (bat.level_index(state.battery_wh)
                  + round(decision.battery_delta_wh / bat.grid_step_wh))
        next_level = b_next * bat.grid_step_wh
        if not 0 <= b_next < bat.n_levels:
            raise IntegrityError(
                f"table decision at slot {t} moves the battery to "
                f"{next_level!r} Wh, outside [0, {bat.b_max_wh!r}]")
        base = (appliance_load(state.remaining, next_remaining, inst.powers_w)
                + decision.battery_delta_wh / h)
        load = base + scenario_load(scenario, inst.ns_appliances, t)
        decisions.append(decision)
        base_loads.append(base)
        loads.append(load)
        gaps.append(privacy_gap(load, inst.policy))
        costs.append(slot_cost(load, inst.price.at(t), h))
        state = SystemState(battery_wh=next_level, remaining=next_remaining)
        states.append(state)
    if any(r != 0 for r in state.remaining):
        raise IntegrityError(
            f"schedule left unfinished work {state.remaining!r} past the horizon")
    controllable = sum(slot_cost(b, inst.price.at(t), h)
                       for t, b in enumerate(base_loads, start=1))
    return ScheduleSolution(
        decisions=tuple(decisions), states=tuple(states),
        base_load_w=tuple(base_loads), load_w=tuple(loads),
        privacy_gap_w=tuple(gaps), slot_costs=tuple(costs),
        controllable_cost=float(controllable), total_cost=float(sum(costs)),
        scenario=scenario)


def expected_total_cost(config: SolveConfig, controllable_cost: float) -> float:
    """Controllable cost plus the priced non-schedulable consumption.

    Non-schedulable runs are user-driven, so their cost depends only on
    the start distribution (``expected`` mode) or the costliest placement
    (``worst-case-cost`` mode), never on the decisions or on the scenario
    set the solver happened to accumulate.
    """
    inst = config.instance
    h = inst.grid.slot_hours

    def run_price(app, start: int) -> float:
        return sum(slot_cost(app.power_w, inst.price.at(t), h)
                   for t in range(start, start + app.runtime_slots))

    if config.objective_mode == "worst-case-cost":
        draw = sum(max(run_price(app, s) for s in app.feasible_starts())
                   for app in inst.ns_appliances)
    else:
        draw = sum(prob * run_price(app, s)
                   for app in inst.ns_appliances
                   for s, prob in zip(app.feasible_starts(),
                                      app.start_probabilities()))
    return controllable_cost + float(draw)


# ---------------------------------------------------------------------------
# Table persistence

_FORMAT_NAME = "paces-table"
_FORMAT_VERSION = 2

#: Each array's dump dtype, little-endian, in the order ``body_sha256``
#: hashes their bytes.
_ARRAY_DTYPES = {"values": "<f8", "dec_mask": "<i4", "dec_step": "<i4"}
_HEADER_KEYS = ("format", "version", "model_hash", "body_sha256", "omega",
                "weights", "objective_mode")


def save_table(table: ScheduleTable, path: str, format: str = "json") -> None:
    """Write the table with its header as one line of JSON, keys sorted.

    Each array is stored as the base64 of its little-endian, C-order
    bytes, cells indexed ``[t][r][b]``; ``body_sha256`` covers those
    bytes, so a loader detects a corrupted or edited body.
    """
    if format != "json":
        raise ConfigError(f"unknown table format {format!r}, expected 'json'")
    body = {name: getattr(table, name).astype(dtype, copy=False).tobytes()
            for name, dtype in _ARRAY_DTYPES.items()}
    payload = {name: base64.b64encode(raw).decode("ascii")
               for name, raw in body.items()}
    payload.update(
        format=_FORMAT_NAME, version=_FORMAT_VERSION,
        model_hash=table.model_hash,
        body_sha256=hashlib.sha256(b"".join(body.values())).hexdigest(),
        omega=[list(sc.starts) for sc in table.config.scenarios],
        weights=list(table.config.resolved_weights()),
        objective_mode=table.config.objective_mode)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":"))
                 + "\n")


def _read_payload(path: str) -> dict:
    with open(path, "rb") as fh:
        try:
            payload = json.loads(fh.read().decode("utf-8"))
        except (ValueError, RecursionError):
            raise IntegrityError(f"{path} is not a schedule-table dump") from None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT_NAME:
        raise IntegrityError(f"{path} is not a schedule-table dump")
    if payload.get("version") != _FORMAT_VERSION:
        raise IntegrityError(
            f"table version {payload.get('version')!r} unsupported, "
            f"expected {_FORMAT_VERSION}")
    missing = [k for k in _HEADER_KEYS + tuple(_ARRAY_DTYPES)
               if k not in payload]
    if missing:
        raise IntegrityError(f"{path} is truncated: no {', '.join(missing)}")
    return payload


def read_table_header(path: str) -> dict:
    """Model hash, body hash, scenario set and objective of a table dump."""
    payload = _read_payload(path)
    return {k: payload[k] for k in _HEADER_KEYS}


def load_table(path: str, config: SolveConfig) -> ScheduleTable:
    """Read a table dump and bind it to ``config``.

    Refuses, with :class:`IntegrityError`, a dump built for another model,
    one whose arrays are not base64 of the engine's ``(tau, n_r, m)``
    shape, whose body does not match ``body_sha256``, or that holds
    decisions outside the engine's range.
    """
    return _bind(path, _read_payload(path), config)


def open_table(path: str, instance: Instance,
               state_cap: int = DEFAULT_STATE_CAP) -> ScheduleTable:
    """Read a table dump and bind it to ``instance`` under its own header."""
    payload = _read_payload(path)
    try:
        omega = ScenarioSet(tuple(PrivacyScenario(starts=tuple(row))
                                  for row in payload["omega"]))
        weights = tuple(payload["weights"]) if payload["weights"] else None
        config = SolveConfig(instance=instance, scenarios=omega,
                             scenario_weights=weights,
                             objective_mode=payload["objective_mode"],
                             state_cap=state_cap)
    except (TypeError, ModelError) as err:
        raise IntegrityError(
            f"table header does not fit this model: {err}") from None
    return _bind(path, payload, config)


def _bind(path: str, payload: dict, config: SolveConfig) -> ScheduleTable:
    """Check a parsed dump against ``config`` and decode its arrays."""
    expected = model_fingerprint(config)
    if payload["model_hash"] != expected:
        raise IntegrityError(
            "table was built for a different model: hash "
            f"{str(payload['model_hash'])[:12]}... != config {expected[:12]}...")
    eng = _Engine(config)
    shape = (eng.tau, eng.n_r, eng.m)
    digest = hashlib.sha256()
    arrays = []
    for name, dtype in _ARRAY_DTYPES.items():
        try:
            raw = base64.b64decode(payload[name], validate=True)
        except (TypeError, ValueError):
            raise IntegrityError(f"{path}: {name} is not base64") from None
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if len(raw) != size:
            raise IntegrityError(
                f"{path}: {name} holds {len(raw)} bytes, expected shape "
                f"{shape} of {dtype} ({size} bytes)")
        digest.update(raw)
        native = np.dtype(dtype).newbyteorder("=")
        arrays.append(np.frombuffer(raw, dtype).astype(native).reshape(shape))
    if payload["body_sha256"] != digest.hexdigest():
        raise IntegrityError(
            f"{path}: table body does not match its body_sha256")
    values, dec_mask, dec_step = arrays
    if (dec_mask.min() < -1 or dec_mask.max() >= 1 << eng.n_app
            or dec_step.min() < eng.k_rate_lo or dec_step.max() > eng.k_rate_hi):
        raise IntegrityError(f"{path}: a decision cell is out of range")
    return ScheduleTable(eng, values, dec_mask, dec_step, expected)
