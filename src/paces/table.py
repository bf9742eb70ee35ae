"""Backward-recursive construction of per-slot schedule tables.

For a fixed scenario set the builder sweeps the horizon from the last
slot to the first.  Each pass evaluates, for every discretized state
(battery level on the grid x remaining-work vector), every admissible
decision (appliance starts x grid-exact battery move), keeps the
cheapest continuation, and stores value and argmin decision.  Entries
with no feasible continuation hold an infinity sentinel.

A slot is solved in one batch: every start option of every remaining
vector is one row, evaluated against all battery levels at once, one
battery move at a time (see :class:`_Engine`).  The start options are
made once per instance shape, the engine once per instance, and every
build, lambda probe and load shares them.  A build brings only its
battery-move windows: one integer range per option row, from its band
(lambda) and its per-slot draw envelope (the scenario set), made once
per build for every slot (:attr:`SolveConfig._windows`).  A backward
step at slot t reads only the engine, slot t's windows and slot t + 1,
so a build handed an earlier table of its engine (a refinement rebuild
against a grown scenario set, or a lambda probe given the bisection's
latest feasible table) copies every slot after the last one whose
windows differ (each is bit-identical to the earlier build's) and
re-solves only the slots up to it.  A failed build hands on the slots
it solved through its :class:`InfeasibleError`, and a lambda probe may
copy from that tail too: a probe whose windows match it down to the
slot where it died fails at once, without solving a slot.

The minimized objective is the controllable part of the bill: price
times appliance-plus-battery energy.  Non-schedulable consumption is
decision independent for a fixed scenario set and is reported
separately, see :func:`expected_total_cost`.  The state never holds it
either, so a schedule read out of a table (:func:`extract_schedule`)
has no usage on top: only :func:`~paces.simulate.simulate` scores a
realized placement.

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
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (ConfigError, InfeasibleError, IntegrityError, ModelError,
                     StateSpaceError)
from .model import (Battery, Decision, Instance, PrivacyPolicy,
                    PrivacyScenario, ScenarioSet, SchedulableAppliance,
                    SystemState, band_sides, check_placement, left_sum,
                    scenario_draws, slot_cost)

DEFAULT_STATE_CAP = 2_000_000

#: Guard applied before snapping a battery rate limit onto grid steps, so
#: a limit that lands exactly on a grid point survives float roundoff.
_SNAP_EPS = 1e-9

OBJECTIVE_MODES = ("expected", "worst-case-cost")

#: The slot solver's tie-break key of a row that does not hold its
#: block's least value.
_NO_KEY = np.iinfo(np.int64).max


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
        for sc in self.scenarios:
            check_placement(sc.starts, self.instance.ns_appliances)
        if self.scenario_weights is not None:
            if len(self.scenario_weights) != len(self.scenarios):
                raise ModelError(
                    f"{len(self.scenario_weights)} weights for "
                    f"{len(self.scenarios)} scenarios")
            if not all(0 <= w < math.inf for w in self.scenario_weights):
                raise ModelError(
                    "scenario weights must be finite and non-negative")
            if self.objective_mode == "expected" and len(self.scenarios) > 0:
                total = left_sum(self.scenario_weights)
                if abs(total - 1.0) > 1e-9:
                    raise ModelError(
                        f"scenario weights sum to {total}, expected 1")
        if type(self.state_cap) is not int or self.state_cap < 1:
            raise ModelError(f"state cap must be a positive integer, got "
                             f"{self.state_cap!r}")

    def resolved_weights(self) -> tuple[float, ...]:
        """Configured weights, or uniform over the scenario set."""
        if self.scenario_weights is not None:
            return self.scenario_weights
        n = len(self.scenarios)
        if n == 0:
            return ()
        return (1.0 / n,) * n

    @functools.cached_property
    def _engine(self) -> _Engine:
        """The engine of the instance without its policy and usage
        appliances: one per value of those (:data:`_engines`), looked up
        once per config.  A state space over the cap raises
        :class:`StateSpaceError` before the lookup."""
        inst = self.instance
        n_states = state_count(inst.appliances, inst.battery)
        if n_states > self.state_cap:
            raise StateSpaceError(n_states, self.state_cap)
        return _engines(inst.grid, inst.appliances, inst.battery, inst.price)

    @functools.cached_property
    def _envelope(self) -> np.ndarray:
        """Per slot ``t`` at index ``t``, the least and greatest draw over
        the scenario set, a (2, 1) column; ``(+inf, -inf)`` bounds nothing.
        A table's config keeps the one the table was built against."""
        inst = self.instance
        draws = scenario_draws(self.scenarios, inst.ns_appliances,
                               inst.grid.tau)
        w_min = np.append(np.inf, draws.min(axis=0, initial=np.inf))
        w_max = np.append(-np.inf, draws.max(axis=0, initial=-np.inf))
        return np.stack((w_min, w_max), axis=1)[:, :, None]

    @functools.cached_property
    def _windows(self) -> np.ndarray:
        """Every option row's battery-move window under this config's band
        and envelope: ``(k_lo, k_hi)``, a read-only (2, rows) int64 array
        over the engine's :attr:`_Engine.window_rows`, slot 1 first.  A
        build reads its band and envelope only through it."""
        eng = self._engine
        draws, offsets = eng.window_rows
        envelope = np.repeat(self._envelope[1:, :, 0].T, np.diff(offsets),
                             axis=1)
        windows = eng.k_windows(draws, self.instance.policy, envelope)
        windows.flags.writeable = False
        return windows

    def _at_lambda(self, lambda_w: float) -> SolveConfig:
        """This config under privacy bound ``lambda_w``.  The bound shapes
        only the band, so the new config starts with this one's engine and
        envelope."""
        inst = self.instance
        policy = replace(inst.policy, lambda_w=lambda_w)
        config = replace(self, instance=replace(inst, policy=policy))
        vars(config).update(_engine=self._engine, _envelope=self._envelope)
        return config


def model_fingerprint(config: SolveConfig) -> str:
    """Stable hash of what a table depends on: the household and its
    scenario set.

    The SHA-256 of one compact, key-sorted JSON text of the instance,
    every model dataclass written as its declared fields by name, and
    the scenario starts.  The weights and the objective mode shape no
    table, so they are left out.
    """
    blob = json.dumps(
        {"instance": config.instance,
         "omega": [list(sc.starts) for sc in config.scenarios]},
        sort_keys=True, separators=(",", ":"),
        default=lambda obj: {f.name: getattr(obj, f.name)
                             for f in fields(obj)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# State space size


def state_count(appliances: Sequence[SchedulableAppliance],
                battery: Battery) -> int:
    """Number of discretized states: battery levels x remaining vectors."""
    count = battery.n_levels
    for a in appliances:
        count *= a.duration_slots + 1
    return count


# ---------------------------------------------------------------------------
# Start options and the slot solver


@dataclass(frozen=True)
class _SlotOptions:
    """Admissible start sets of every remaining vector at one slot.

    One row per option: its start ``mask``, its appliance draw ``y_w``
    and the index ``r_next`` of the remaining vector it leads to.  The
    rows are the one place a decision's draw and next vector are
    computed; the slot solver, the table load and the walk all read them
    here.  Each vector's rows are one block, vectors ascending, in visit
    order: by start-set size ``n_starts``, then by ``skey``, which reads
    the start mask with the first appliance as the most significant bit.
    ``block`` holds each row's block and ``r_first`` each block's
    vector.  A vector with an unstarted
    appliance that can no longer meet the deadline has no rows: every
    continuation from it is doomed.

    ``order`` is the window order: the rows stably sorted by draw
    ``y_w``, along which every band's battery-move bounds fall (see
    :meth:`_Engine.solve_slot`); ``rank`` is its inverse, each row's
    place in it.  ``row_of[r, mask]`` is the row of vector ``r``'s start
    mask, or -1 where that mask is no option of it at this slot; a table
    load reads a stored decision's row through it.
    Everything here depends on ``(durations, powers, tau)`` only, so every
    build of one instance shape shares it, whatever its battery, band or
    scenario set.  All arrays are read-only.
    """

    mask: np.ndarray
    y_w: np.ndarray
    r_next: np.ndarray
    block: np.ndarray
    r_first: np.ndarray
    n_starts: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    row_of: np.ndarray


def _read_only(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=16)
def _vectors(durations: tuple[int, ...]
             ) -> tuple[tuple[tuple[int, ...], ...], Mapping, int]:
    """Remaining vectors ascending, their index map and the all-done one."""
    r_combos = tuple(itertools.product(*[range(d + 1) for d in durations]))
    r_index = MappingProxyType({combo: i for i, combo in enumerate(r_combos)})
    return r_combos, r_index, r_index[(0,) * len(durations)]


@functools.lru_cache(maxsize=16)
def _option_tables(durations: tuple[int, ...], powers: tuple[float, ...],
                   tau: int) -> tuple[_SlotOptions, ...]:
    """Start options of slots ``1..tau``, at index ``t - 1``.

    They depend on the appliances and the horizon only, so every build
    of one instance shape shares them: the refinement loop, each sweep
    capacity and each probe of the lambda bisection.  A row's draw is the
    power of every appliance that starts or is still running, added from
    0 in appliance order.
    """
    n_app = len(durations)
    r_combos, r_index, _ = _vectors(durations)
    # per vector: the last slot it is not doomed at, and its option rows
    # (r_idx, mask, n_starts, y_w, r_next) in visit order
    per_vector = []
    for r_i, combo in enumerate(r_combos):
        startable = [i for i, (r, dur) in enumerate(zip(combo, durations))
                     if r == dur]
        last = min([tau] + [tau - durations[i] + 1 for i in startable])
        options = []
        for size in range(len(startable) + 1):
            for subset in itertools.combinations(startable, size):
                # an appliance draws while it starts or is part-way through
                on = [i in subset or 0 < r < dur
                      for i, (r, dur) in enumerate(zip(combo, durations))]
                y = left_sum(p for p, run in zip(powers, on) if run)
                nxt = tuple(r - 1 if run else r for r, run in zip(combo, on))
                mask = left_sum(1 << i for i in subset)
                skey = left_sum(1 << (n_app - 1 - i) for i in subset)
                options.append((size, skey,
                                (r_i, mask, size, y, r_index[nxt])))
        per_vector.append((last, [row for _, _, row in sorted(options)]))

    # the all-done vector is never doomed, so no slot is empty
    slots = []
    for t in range(1, tau + 1):
        cols = list(zip(*[row for last, rows in per_vector if t <= last
                          for row in rows]))
        r_idx = np.array(cols[0], dtype=np.intp)
        first = np.flatnonzero(np.diff(r_idx, prepend=-1))
        # the window order, by draw; Python's sort keeps ties in row order
        order = sorted(range(len(r_idx)), key=cols[3].__getitem__)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        row_of = np.full((len(r_combos), 1 << n_app), -1, dtype=np.intp)
        row_of[r_idx, cols[1]] = np.arange(len(r_idx))
        slots.append(_SlotOptions(
            mask=_read_only(cols[1], np.int32),
            y_w=_read_only(cols[3], np.float64),
            r_next=_read_only(cols[4], np.intp),
            block=_read_only(np.repeat(np.arange(len(first)),
                                       np.diff(first, append=len(r_idx))),
                             np.intp),
            r_first=_read_only(r_idx[first], np.intp),
            n_starts=_read_only(cols[2], np.int64),
            order=_read_only(order, np.intp),
            rank=_read_only(rank, np.intp),
            row_of=_read_only(row_of, np.intp)))
    return tuple(slots)


def _tie_key_shifts(n_app: int, n_rows: int, k_max: int) -> tuple[int, int]:
    """Where the slot solver's tie-break key puts ``|k|`` and ``n_starts``.

    The key is one int64 of three fields, most significant first:
    ``n_starts``, ``|k|`` and the row, each as wide as its largest value
    needs (``n_app`` starts, ``k_max`` steps, row ``n_rows - 1``), so
    comparing keys compares the fields in that order.  A shape whose key
    needs more than 63 bits raises :class:`StateSpaceError`.
    """
    row_bits = (n_rows - 1).bit_length()
    k_bits = k_max.bit_length()
    bits = n_app.bit_length() + k_bits + row_bits
    if bits > 63:
        raise StateSpaceError(bits, 63, (
            f"state explosion: the slot solver's tie-break key needs {bits} "
            f"bits ({n_app} appliances, moves of up to {k_max} steps, "
            f"{n_rows} option rows), cap is 63"))
    return row_bits, row_bits + k_bits


class _Engine:
    """One instance's slot solver, shared by all its builds and walks.

    An engine holds only what no build changes: the battery moves in
    ``(|k|, k)`` order, the level index and rate limits, the remaining
    vectors, the prices and every slot's draws in window order
    (:attr:`window_rows`).  It is made from the instance's fields
    other than the policy and the non-schedulable appliances
    (:attr:`SolveConfig._engine`), so a build hands :meth:`solve_slot`
    its :attr:`SolveConfig._windows`.  The start options come from
    :func:`_option_tables`, once per instance shape, and what the slot
    solver reads of them in every build once per engine
    (:attr:`_slot_rows`).  The walks read their states and decisions
    from the engine too (:meth:`state`, :meth:`decision`), each made
    once by its own constructor and held in tables on the engine, so
    they live exactly as long as it does.

    Per slot, the continuation is padded with ``inf`` by the rate limit
    on both sides, so each battery move ``k`` is one column shift of it.
    The rows are scanned in window order (:class:`_SlotOptions`): both
    halves of the band test are monotone in the draw, so both bounds of
    :meth:`k_windows` fall along that order, and the rows that admit ``k``
    are one slice, found for every move by two ``np.searchsorted`` calls.
    Each move is added to its slice only, in ``(|k|, k)`` order; a row
    outside the slice could only add ``inf``.  The running minimum is one
    ``np.minimum``, and a strict ``<`` mask marks where the move wins by
    its rank in that order, one ``np.putmask`` into an array as narrow as
    the move count allows (``uint8`` up to 255 moves).  That keeps the
    first minimum exactly as a per-option ``argmin`` over the same order
    would.  It is bit-equal because no cell is ever NaN or -0.0, so equal
    values have equal bits: the terminal value is +0.0, and a sum is -0.0
    only when both terms are, which a stage may be (price 0, a
    discharge) but a continuation never is.  Move 0 is rank 0 and comes
    first, against an all-``inf`` minimum, so it is added straight into
    it.

    The rows then go once to the block layout (:attr:`_slot_rows`): the
    blocks by size, largest first, ties by vector, each in visit order.
    A vector with ``s`` appliances still startable has ``2**s`` rows, one
    per start set, or none, so every block starts at a multiple of its
    own size.  A strided min-tree settles all blocks at once (a reduction
    tree over aligned segments, as in Blelloch's "Prefix sums and their
    applications", 1990): for ``h = 1, 2, 4, ...`` one ``np.minimum``
    folds row ``i + h`` into row ``i`` for every multiple ``i`` of ``2h``
    among the rows of blocks of ``2h`` rows or more, each pair inside one
    block, and in the end each block's head holds its minimum.  The tree
    runs twice: on a copy of the values, then on the int64 key
    ``(n_starts, |k|, place)`` of the rows that hold their block's least
    value (:func:`_tie_key_shifts`), its ``|k|`` field read from the
    rank.  A row's place in the layout keeps visit order within its
    block, so the pick is the documented least
    ``(value, n_starts, |k|, row)``.  Flat ``take`` calls then write
    every vector's picked cell, and only the doomed vectors are filled.

    These alternatives were slower, fatter or not bit-equal.  The affine
    form ``-c*step*b + min_j (f[j] + c*step*j)`` (a sliding-window
    minimum) would save the move loop but adds the price term in another
    order, which changes the rounding of the values and so which moves
    tie.  Stacking every move into one (moves x rows x m) array and
    taking one ``argmin`` allocates that whole array per slot: on
    solve-ns4, on a 2-core VM, its slot solves took 25.0 ms per operation
    against the dense move loop's 15.3 ms.  Gathering the shifted windows
    with ``sliding_window_view`` and fancy indexing copied as much and was
    slower again; a compact 3-D ``argmin`` and flat pair gathers took
    18.3 and 24.1 ms against the loop's 16.2 ms.  Clipping each move's
    level range to the grid as well as its rows turns a row into a short
    strided loop, which was slower than the row slice alone.  Gathering
    each window group's shifted continuations at once took 17.5 ms of
    slot solves per solve-ns4 operation against the loop's 10.8 ms.  One
    lexicographic ``np.minimum`` over complex128 ``(value, rank)`` pairs
    took 8.0 us per move against 7.4 us for the minimum plus the rank
    mask.  Reusing the held build's windows and one batched
    ``searchsorted`` per build together saved under 1 % of an operation.
    Two ``np.minimum.reduceat`` calls settled the blocks before the tree and
    paid once per (block, level) segment: 28 us on the values and 23 us
    on the keys of solve-ns4's 60 blocks x 31 levels.  Doubling with
    ``where=`` masks in place of the size-sorted layout took about 8 us
    per step, because of branchy masks, and halving each size class by
    reshape added about 10 us per slot at one battery level and made
    sweep-tight slower.  Caching each slot's stage matrix on the engine
    raised replay-fine's peak RSS by 1.4-2.0 MB (101 moves x 120 rows x
    12 slots).

    Two variants were timed on the recorded slot solves of one
    operation, both versions per call, on a 2-core VM whose load varied
    between runs (medians of 9 replays per run on solve-ns4, 25 on
    sweep-tight, four runs).  One complex128 ``(value, key)`` min-tree in
    place of the value tree and the key tree read 1-4 % less per slot on
    solve-ns4 (226.9 against 223.1 us in one run) and 5-7 % less on
    sweep-tight (86.8 against 80.6 us); it is bit-equal only while the
    tie key fits float64's 53-bit significand, and
    :func:`_tie_key_shifts` allows 63 bits.  A per-slot call diet
    (``y_w * h`` held on the engine, one reused inf-framed ``padded``,
    local ufunc bindings and ``values == inf`` as the dead mask) read
    7-9 % less on solve-ns4 (224.3 against 204.0 us) and 7-8 % less on
    sweep-tight (85.0 against 78.6 us), bit-equal.  An earlier harness
    read 274.9 against 280.4 and 84.6 against 84.2 us for the tree, and
    248.1 against 244.4 and 88.4 against 86.4 us for the diet, so
    neither is taken until paired benchmark runs settle it.
    """

    def __init__(self, grid, appliances, battery, price):
        self.tau = grid.tau
        self.h = grid.slot_hours
        self.durations = tuple(a.duration_slots for a in appliances)
        self.powers = tuple(a.power_w for a in appliances)
        self.n_app = len(self.durations)
        self.battery = battery
        self.prices = price.values
        self.step = battery.grid_step_wh
        self.m = battery.n_levels
        self.k_rate_lo = -self._rate_steps(battery.z_discharge_max_wh)
        self.k_rate_hi = self._rate_steps(battery.z_charge_max_wh)
        # a slot has at most one row per start set of each vector, which
        # is prod(d + 2) rows over all vectors
        self._k_shift, self._n_shift = _tie_key_shifts(
            self.n_app, math.prod(d + 2 for d in self.durations),
            max(-self.k_rate_lo, self.k_rate_hi))
        self._row_mask = (1 << self._k_shift) - 1
        self.r_combos, self.r_index, self.done_idx = _vectors(self.durations)
        self.n_r = len(self.r_combos)

        # the window clamps as (2, 1) columns and the moves in (|k|, k) order
        self._clip_lo = np.array([[self.k_rate_lo], [self.k_rate_lo - 1]])
        self._clip_hi = np.array([[self.k_rate_hi + 1], [self.k_rate_hi]])
        self._moves = sorted(range(self.k_rate_lo, self.k_rate_hi + 1),
                             key=lambda k: (abs(k), k))
        self._move_col = np.array(self._moves, dtype=np.int64)[:, None]
        self._neg_moves = -self._move_col[:, 0]
        # the slot solver keeps a cell's move as its rank in _moves, in the
        # narrowest dtype that holds every rank; per rank, the move as
        # dec_step stores it and its |k| field of the tie key
        self._rank_dtype = np.min_scalar_type(len(self._moves))
        self._moves_i32 = self._move_col[:, 0].astype(np.int32)
        self._k_key = np.abs(self._move_col[:, 0]) << self._k_shift
        self._levels = np.arange(self.m)
        # the walks' states and decisions, each made once per engine
        self._ids = tuple(a.id for a in appliances)
        self._states = {}
        self._decisions = {}

    def _rate_steps(self, rate_wh: float) -> int:
        """Grid steps one slot may move; no move crosses the whole pack."""
        q = min(rate_wh / self.step, self.m - 1)
        return math.floor(q + _SNAP_EPS * max(1.0, abs(q)))

    def options(self, t: int) -> _SlotOptions:
        """Start options at slot ``t``, shared with every same-shape engine."""
        return _option_tables(self.durations, self.powers, self.tau)[t - 1]

    @functools.cached_property
    def window_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Every slot's option draws in window order, slot 1 first, and the
        slot offsets: slot ``t``'s rows are ``offsets[t - 1]:offsets[t]``.
        Made from :func:`_option_tables` on first use; read-only."""
        slots = _option_tables(self.durations, self.powers, self.tau)
        draws = np.concatenate([opts.y_w.take(opts.order) for opts in slots])
        offsets = np.cumsum([0] + [len(opts.order) for opts in slots])
        return _read_only(draws, np.float64), _read_only(offsets, np.intp)

    @functools.cached_property
    def _slot_rows(self) -> tuple[tuple, ...]:
        """Per slot ``t`` at index ``t - 1``, what :meth:`solve_slot` reads
        of it in every build.

        Its rows' range in :attr:`window_rows` and each row's next vector
        in window order; then the block layout: the blocks by size,
        largest first, ties by vector, each in visit order.  Of the layout
        it holds each row's window place (the ``take`` into it), its
        tie-key column ``(n_starts, place)``, its start mask and its
        block's head; each vector's head, -1 for a doomed one; the
        min-tree steps ``(h, 2h, end_h)``, ``end_h`` being the rows in
        blocks of ``2h`` rows or more; and the doomed vectors."""
        slots = _option_tables(self.durations, self.powers, self.tau)
        offsets = self.window_rows[1].tolist()
        out = []
        for i, opts in enumerate(slots):
            sizes = np.bincount(opts.block)
            # stable sorts keep vectors ascending within a size and each
            # block in visit order
            layout = np.argsort(-sizes[opts.block], kind="stable")
            by_size = np.argsort(-sizes, kind="stable")
            size = sizes[by_size]
            heads = np.cumsum(size) - size
            # a doomed vector's head is -1, a row that solve_slot overwrites
            head = np.full(self.n_r, -1)
            head[opts.r_first.take(by_size)] = heads
            out.append((
                slice(offsets[i], offsets[i + 1]),
                opts.r_next.take(opts.order),
                opts.rank.take(layout),
                ((opts.n_starts.take(layout) << self._n_shift)
                 | np.arange(len(layout)))[:, None],
                opts.mask.take(layout), np.repeat(heads, size), head,
                [(1 << j, 2 << j, int(size[size >= 2 << j].sum()))
                 for j in range(int(size[0]).bit_length() - 1)],
                np.flatnonzero(head < 0)))
        return tuple(out)

    def k_windows(self, y_w: np.ndarray, policy: PrivacyPolicy,
                  envelope: np.ndarray) -> np.ndarray:
        """Battery-step range allowed by rate and privacy bounds.

        One ``(k_lo, k_hi)`` column per appliance draw in ``y_w``, each
        under its column of ``envelope``, the least and greatest draw of
        its slot: a (2, rows) int64 array, or one (2, 1) column for every
        row.  A move ``k`` is admitted iff the load
        ``(y_w + (k * step) / h) + w`` passes the lower half of the band
        test (:func:`~paces.model.band_sides`) at the least draw ``w`` and
        its upper half at the greatest.  Each half is monotone in ``k`` and
        in the draw, so the admitted moves are one range.  Privacy bounds
        are clamped to one step past the rate range, so an empty window
        stays empty and every bound fits an integer.

        Each bound is first guessed in closed form: the quotient
        ``(((l_bar -+ bound_w) - y_w) - envelope) * h / step``, ceiled or
        floored.  The guess and the test each round a few times, so they
        can disagree only where the quotient lies within ``eps`` steps of
        an integer.  Only those bounds are tested, and each is stepped
        until the test flips between it and the move past it.  Every step
        is element by element, so a row's window has the same bits
        whatever rows are computed with it.
        """
        l_bar, bound = policy.l_bar_w, policy.bound_w
        # an infinite envelope or an overflowed bound is +-inf, which is
        # never near an integer and which the clamp maps exactly
        with np.errstate(over="ignore", invalid="ignore"):
            # a few roundings of the largest magnitude either form adds,
            # with a wide margin; draws are never negative
            eps = 2.0 ** -48 * (
                (l_bar + bound + y_w.max(initial=0.0)) * self.h / self.step
                + max(-self.k_rate_lo, self.k_rate_hi) + 2)
            q = np.array([[l_bar - bound], [l_bar + bound]]) - y_w
            q -= envelope
            q *= self.h
            q /= self.step
            near = np.abs(q - np.rint(q)) <= eps
            np.ceil(q[0], out=q[0])
            np.floor(q[1], out=q[1])
            np.maximum(q, self._clip_lo, out=q)
            k = np.minimum(q, self._clip_hi, out=q).astype(np.int64)
            if near.any():
                # a near bound steps out (-1 for k_lo, +1 for k_hi) while
                # the move past it passes and in while it fails itself,
                # within the clamp
                side, row = np.nonzero(near)
                out = 2 * side - 1
                w = np.broadcast_to(envelope, k.shape)[side, row]
                at, last = k[side, row], None
                while last is None or (at != last).any():
                    # the bound and the move past it, as the walk moves
                    moves = np.stack((at, at + out)) * self.step
                    lower, upper = band_sides((y_w[row] + moves / self.h) + w,
                                              policy)
                    passes = np.where(side, upper, lower)
                    last, at = at, np.clip(
                        at + out * passes[1] - out * ~passes[0],
                        self._clip_lo[side, 0], self._clip_hi[side, 0])
                k[side, row] = at
        return k

    def stage_cost(self, t: int, y_w, k) -> np.ndarray:
        """Slot ``t``'s price of appliance draw ``y_w`` plus battery move
        ``k`` (grid steps), element by element.  The slot solver and a
        table load both price a decision here, so they agree bit for bit.
        """
        return self.prices[t - 1] * (y_w * self.h + k * self.step)

    def solve_slot(self, t: int, f_next: np.ndarray, neg_lo: np.ndarray,
                   neg_hi: np.ndarray, values: np.ndarray,
                   dec_mask: np.ndarray, dec_step: np.ndarray) -> None:
        """One backward step: value and argmin decision for every state.

        ``f_next`` has shape (n_r, m) and holds the continuation values;
        ``neg_lo`` and ``neg_hi`` are the build's windows of every slot's
        rows (:attr:`SolveConfig._windows`), negated once per build so that
        both rise along the window order, of which slot ``t``'s are read.
        Every cell of ``values``, ``dec_mask`` and ``dec_step``, each of
        ``f_next``'s shape, is written; ``dec_mask`` is -1 where no
        decision is feasible.
        """
        m = self.m
        (rows, r_next, place, tie_key, mask, head_of, head, steps,
         doomed) = self._slot_rows[t - 1]

        # rows in window order, where both bounds fall as the draw rises:
        # the rows that admit the i-th move are lo[i]:hi[i]
        y_w = self.window_rows[0][rows]
        lo = np.searchsorted(neg_lo[rows], self._neg_moves,
                             side="left").tolist()
        hi = np.searchsorted(neg_hi[rows], self._neg_moves,
                             side="right").tolist()
        stage = self.stage_cost(t, y_w, self._move_col)

        # cheapest move per (option, level), first hit in (|k|, k) order,
        # kept as its rank in _moves; each admitted cell is the per-move
        # float expression, so bit-equal to it.  With no -0.0 anywhere the
        # value is a plain np.minimum, and only the rank needs the strict <
        pad = -self.k_rate_lo
        padded = np.full((self.n_r, pad + m + self.k_rate_hi), np.inf)
        padded[:, pad:pad + m] = f_next
        cont = padded.take(r_next, 0)
        best = np.full((len(r_next), m), np.inf)
        rank = np.zeros(best.shape, dtype=self._rank_dtype)
        cand = np.empty(best.shape)
        better = np.empty(best.shape, dtype=bool)
        # move 0 comes first and is rank 0: against all-inf, it is the value
        a, b = lo[0], hi[0]
        if a < b:
            np.add(cont[a:b, pad:pad + m], stage[0, a:b, None], out=best[a:b])
        for i, k, stage_k, a, b in zip(range(1, len(lo)), self._moves[1:],
                                       stage[1:], lo[1:], hi[1:]):
            if a >= b:
                continue
            cand_ab, best_ab, better_ab = cand[a:b], best[a:b], better[a:b]
            np.add(cont[a:b, pad + k:pad + k + m], stage_k[a:b, None],
                   out=cand_ab)
            np.less(cand_ab, best_ab, out=better_ab)
            np.minimum(best_ab, cand_ab, out=best_ab)
            np.putmask(rank[a:b], better_ab, i)

        # in the block layout a vector's rows are one block in visit order,
        # so its documented tie-break is the least (value, n_starts, |k|,
        # row) of the block, the last three as one key.  Each tree step
        # folds the upper half of every block of 2h rows or more into its
        # lower half, so the block's head ends up holding its minimum.
        # An all-inf block picks a row whose rank stayed 0, which is move 0
        best = best.take(place, 0)
        rank = rank.take(place, 0)
        low = best.copy()
        for h, h2, end in steps:
            lower = low[:end:h2]
            np.minimum(lower, low[h:end:h2], out=lower)
        key = self._k_key.take(rank)
        key |= tie_key
        np.copyto(key, _NO_KEY, where=best != low.take(head_of, 0))
        for h, h2, end in steps:
            lower = key[:end:h2]
            np.minimum(lower, key[h:end:h2], out=lower)
        # every vector's pick, as a place and then as a flat (place, level);
        # no pick is out of range, and "clip" lets take write to out unbuffered
        pick = key.take(head, 0)
        pick &= self._row_mask
        mask.take(pick, out=dec_mask, mode="clip")
        pick *= m
        pick += self._levels
        best.take(pick, out=values, mode="clip")
        self._moves_i32.take(rank.take(pick), out=dec_step, mode="clip")
        np.copyto(dec_mask, -1, where=~np.isfinite(values))
        # a doomed vector has no rows and keeps the dead cell
        if len(doomed):
            values[doomed] = np.inf
            dec_mask[doomed] = -1
            dec_step[doomed] = 0

    def terminal_continuation(self) -> np.ndarray:
        """Continuation values past the horizon: 0 once all work is done."""
        f = np.full((self.n_r, self.m), np.inf)
        f[self.done_idx, :] = 0.0
        return f

    def state(self, r: int, b: int) -> SystemState:
        """The state of cell ``(r, b)``, made once per engine."""
        state = self._states.get((r, b))
        if state is None:
            state = self._states[r, b] = SystemState(
                battery_wh=b * self.step, remaining=self.r_combos[r])
        return state

    def decision(self, mask: int, k: int
                 ) -> tuple[Decision, tuple[str, ...]]:
        """The decision of a live cell ``(mask, k)``, start mask and
        battery move in grid steps, with the ids it starts; made once per
        engine."""
        pair = self._decisions.get((mask, k))
        if pair is None:
            starts = tuple(bool(mask >> i & 1) for i in range(self.n_app))
            pair = self._decisions[mask, k] = (
                Decision(starts=starts, battery_delta_wh=float(k * self.step)),
                tuple(i for i, s in zip(self._ids, starts) if s))
        return pair

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
        return r_idx, self.battery.level_index(state.battery_wh)


#: One engine per value of its arguments, as :func:`_vectors` keeps vectors
_engines = functools.lru_cache(maxsize=16)(_Engine)


# ---------------------------------------------------------------------------
# Public table type


@dataclass(frozen=True)
class TableEntry:
    """One table cell: argmin decision, value-to-go, feasibility flag."""

    decision: Optional[Decision]
    value: float
    feasible: bool


class ScheduleTable:
    """Per-slot mapping from system state to optimal decision and value.

    ``model_hash`` is :func:`model_fingerprint` of the table's config.
    Given as ``None`` it is computed when first read: the refinement
    loop's intermediate tables and the lambda bisection's probes are
    never saved or checked, so they never pay for it.  The grid is read
    through the instance's shared engine (:attr:`SolveConfig._engine`),
    and the config keeps the envelope and the windows the table was built
    against.

    The arrays come from a build or a load and are not checked here: a
    build makes only closed tables and a load refuses any other (see
    :meth:`walk`).  They are set read-only in place, so a table stays as
    it was checked and a kept walk never goes stale.
    """

    def __init__(self, config: SolveConfig, values: np.ndarray,
                 dec_mask: np.ndarray, dec_step: np.ndarray,
                 model_hash: Optional[str]):
        self.config = config
        self._engine = config._engine
        for arr in (values, dec_mask, dec_step):
            arr.flags.writeable = False
        self.values = values
        self.dec_mask = dec_mask
        self.dec_step = dec_step
        self._model_hash = model_hash
        self._walks: dict[tuple[int, int], QuietWalk] = {}

    @property
    def model_hash(self) -> str:
        if self._model_hash is None:
            self._model_hash = model_fingerprint(self.config)
        return self._model_hash

    @property
    def tau(self) -> int:
        return self._engine.tau

    def entry(self, t: int, state: SystemState) -> TableEntry:
        """Table cell for slot ``t``; raises on off-grid states."""
        if not 1 <= t <= self.tau:
            raise ModelError(f"slot {t} outside horizon 1..{self.tau}")
        r_idx, b_idx = self._engine.state_indices(state)
        value = float(self.values[t - 1, r_idx, b_idx])
        mask = int(self.dec_mask[t - 1, r_idx, b_idx])
        if mask < 0:
            return TableEntry(decision=None, value=value, feasible=False)
        k = int(self.dec_step[t - 1, r_idx, b_idx])
        return TableEntry(decision=self._engine.decision(mask, k)[0],
                          value=value, feasible=True)

    def initial_value(self) -> float:
        """Optimal controllable cost from the configured initial state."""
        return self.entry(1, self.config.instance.initial_state()).value

    def walk(self, initial_state: SystemState) -> QuietWalk:
        """The walk from ``initial_state`` with no usage on top.

        The walk carries the state as grid indices and reads the decision
        cells directly.  Each cell's draw and next vector are its option
        row's (:class:`_SlotOptions`), so a base load is the draw the
        build priced plus the battery throughput.  The walk is made on the
        first call from a start cell and kept; a later call from the same
        cell returns it.  An off-grid or dead start state raises :class:`IntegrityError`
        through :func:`runtime_lookup`, which names the nearest feasible
        state.  Nothing else can: in a closed table every live cell's
        decision is an option of its vector and moves within the rate
        limits and the grid to a live cell (after slot ``tau``, to the
        finished vector).
        """
        eng = self._engine
        try:
            start = eng.state_indices(initial_state)
        except ModelError:
            # an off-grid initial state: the lookup raises, naming the nearest
            runtime_lookup(self, initial_state, 1)
            raise
        walk = self._walks.get(start)
        if walk is not None:
            return walk
        r_idx, b_idx = start
        if self.dec_mask[0, r_idx, b_idx] < 0:
            # a dead start: the lookup raises, naming the nearest
            runtime_lookup(self, initial_state, 1)

        prices = self.config.instance.price.values
        # a row's draw and next vector depend on (r, mask) only, and an
        # idle run repeats one cell, so a repeat reuses its results
        cell = eng.state(r_idx, b_idx)
        last = None
        decisions, states, base_loads, rows = [], [], [], []
        for t in range(1, eng.tau + 1):
            mask = int(self.dec_mask[t - 1, r_idx, b_idx])
            k = int(self.dec_step[t - 1, r_idx, b_idx])
            if (r_idx, mask, k) != last:
                last = (r_idx, mask, k)
                opts = eng.options(t)
                row = opts.row_of[r_idx, mask]
                r_next = int(opts.r_next[row])
                decision, started = eng.decision(mask, k)
                base = float(opts.y_w[row]) + decision.battery_delta_wh / eng.h
            b_idx += k
            if k or r_next != r_idx:
                cell = eng.state(r_next, b_idx)
                r_idx = r_next
            decisions.append(decision)
            states.append(cell)
            base_loads.append(base)
            rows.append((t, prices[t - 1], base, decision.battery_delta_wh,
                         started))
        controllable = left_sum(slot_cost(b, prices[t - 1], eng.h)
                                for t, b in enumerate(base_loads, start=1))
        walk = self._walks[start] = QuietWalk(
            decisions=tuple(decisions), states=tuple(states),
            base_load_w=tuple(base_loads), controllable_cost=float(controllable),
            levels=tuple(s.battery_wh for s in states[:-1]), rows=tuple(rows))
        return walk


# ---------------------------------------------------------------------------
# The backward pass


@dataclass(frozen=True)
class _FailedTail:
    """The slots a failed build solved, handed on by its
    :class:`InfeasibleError` as ``_tail``.

    Not a :class:`ScheduleTable`, because the table is not closed.
    Every slot after ``dies_at`` is as a build of ``config`` from scratch
    makes it.  Slot ``dies_at`` is where every branch from the initial
    state died: a slot with no feasible cell, or slot 1 when only the
    start cell is dead.
    """

    config: SolveConfig
    values: np.ndarray
    dec_mask: np.ndarray
    dec_step: np.ndarray
    dies_at: int


def _infeasible(tail: _FailedTail) -> InfeasibleError:
    # the initial state is the only one reachable at slot 1, so slot 1 is
    # where every branch from it has died
    err = InfeasibleError(
        "SP infeasible under the configured scenario set: every branch "
        "from the initial state dies by slot 1")
    err._tail = tail
    return err


def backward_recursion(config: SolveConfig,
                       previous: Optional[ScheduleTable] = None,
                       failed: Optional[_FailedTail] = None
                       ) -> ScheduleTable:
    """Build the full table; raises when the initial state cannot finish.

    ``previous``, an earlier table of the same engine (any band, any
    scenario set), and ``failed``, the tail an earlier failed build of
    it handed on, let the build reuse their slots.  Slot ``t`` is a
    function of the engine, slot ``t``'s windows
    (:attr:`SolveConfig._windows`) and the slot after it, so every slot
    after the last one whose windows differ from a held build's is
    bit-identical to that build's.  The build copies those slots from
    the held build that matches further back and starts the sweep there.
    A failed tail that matches down to the slot where it died proves
    this build dead too, so the build raises at once.  A held build of
    another engine is ignored.  A slot with no feasible cell ends the
    sweep: every slot before it is dead too, so the build raises there
    and hands on the slots it holds (:class:`_FailedTail`).  The windows
    are computed once per build, the engine once per config.
    """
    eng = config._engine
    windows = config._windows
    shape = (eng.tau, eng.n_r, eng.m)
    values = np.empty(shape)
    dec_mask = np.empty(shape, dtype=np.int32)
    dec_step = np.empty(shape, dtype=np.int32)
    # the first slot the backward sweep solves, and the build whose slots
    # after it are copied
    last, source = eng.tau, None
    for held in (failed, previous):
        if held is None or held.config._engine is not eng:
            continue
        changed = np.flatnonzero(
            (windows != held.config._windows).any(axis=0))
        match = (int(np.searchsorted(eng.window_rows[1], changed[-1],
                                     side="right"))
                 if len(changed) else 0)
        if held is failed and match < failed.dies_at:
            raise _infeasible(failed)
        if match < last:
            last, source = match, held
    if source is not None:
        values[last:] = source.values[last:]
        dec_mask[last:] = source.dec_mask[last:]
        dec_step[last:] = source.dec_step[last:]
    f_next = values[last] if last < eng.tau else eng.terminal_continuation()
    neg_lo, neg_hi = -windows
    for t in range(last, 0, -1):
        eng.solve_slot(t, f_next, neg_lo, neg_hi, values[t - 1],
                       dec_mask[t - 1], dec_step[t - 1])
        if dec_mask[t - 1].max() < 0:
            # a slot with no feasible cell leaves every earlier one dead
            dies_at = t
            break
        f_next = values[t - 1]
    else:
        init_r, init_b = eng.state_indices(config.instance.initial_state())
        if dec_mask[0, init_r, init_b] >= 0:
            return ScheduleTable(config, values, dec_mask, dec_step, None)
        dies_at = 1
    raise _infeasible(_FailedTail(config, values, dec_mask, dec_step,
                                  dies_at))


# ---------------------------------------------------------------------------
# Schedule extraction


@dataclass(frozen=True)
class ScheduleSolution:
    """The schedule a table makes from one start state.

    ``base_load_w`` is the metered load with no usage on top (appliances
    plus battery), and the controllable cost prices it.  No placement of
    the non-schedulable appliances changes a field: usage is scored when
    a schedule is replayed, by :func:`~paces.simulate.simulate`.
    """

    decisions: tuple[Decision, ...]
    states: tuple[SystemState, ...]
    base_load_w: tuple[float, ...]
    controllable_cost: float


@dataclass(frozen=True)
class QuietWalk:
    """A table's walk from one start cell, with no usage on top.

    What no scenario changes: the decisions, the states after slots
    ``1..tau``, the base loads and their controllable cost.  ``levels``
    holds the battery level at the start of slots ``2..tau`` (the start
    state's is the caller's), and ``rows`` each slot's scenario-free
    report fields: ``(slot, price_per_wh, base_load_w,
    battery_delta_wh, started)``.
    """

    decisions: tuple[Decision, ...]
    states: tuple[SystemState, ...]
    base_load_w: tuple[float, ...]
    controllable_cost: float
    levels: tuple[float, ...]
    rows: tuple[tuple, ...]


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
    differ.  Cells are scored battery-major: battery levels ascending,
    and within a level the remaining vectors ascending lexicographically,
    the engine's ``r_combos`` order.  The first nearest cell wins, so a
    NaN or infinite level names the first feasible state.
    """
    eng = table._engine
    b_idx, r_idx = np.nonzero(table.dec_mask[t - 1].T >= 0)
    if len(b_idx) == 0:
        return None
    step = eng.step
    score = np.abs(b_idx * step - state.battery_wh) / step
    if len(state.remaining) == eng.n_app:
        # a count past the duration adds its excess exactly, as ints do
        near = [min(r, d) for r, d in zip(state.remaining, eng.durations)]
        combos = np.array(eng.r_combos, dtype=np.int64).reshape(eng.n_r,
                                                                 eng.n_app)
        work = np.abs(combos[r_idx] - near).sum(axis=1)
        excess = left_sum(state.remaining) - left_sum(near)
        score += (work.astype(object) + excess).astype(float) if excess else work
    else:
        score += 1e9
    pick = int(np.argmin(score))
    return SystemState(battery_wh=int(b_idx[pick]) * step,
                       remaining=eng.r_combos[r_idx[pick]])


def extract_schedule(table: ScheduleTable,
                     initial_state: SystemState) -> ScheduleSolution:
    """The schedule the table makes from ``initial_state``.

    ``solve`` reads its schedule here.  The walk and its refusals are
    :meth:`ScheduleTable.walk`'s, made once per start cell.  Only
    ``states[0]`` is the caller's ``initial_state``; the decisions and the
    later states are shared by every walk of the table from its cell.
    """
    walk = table.walk(initial_state)
    return ScheduleSolution(
        decisions=walk.decisions, states=(initial_state,) + walk.states,
        base_load_w=walk.base_load_w, controllable_cost=walk.controllable_cost)


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
        return left_sum(slot_cost(app.power_w, inst.price.values[i], h)
                        for i in app.run_slots[start])

    if config.objective_mode == "worst-case-cost":
        draw = left_sum(max(run_price(app, s) for s in app.run_slots)
                        for app in inst.ns_appliances)
    else:
        draw = left_sum(prob * run_price(app, s)
                        for app in inst.ns_appliances
                        for s, prob in zip(app.run_slots,
                                           app.start_probabilities()))
    return controllable_cost + float(draw)


# ---------------------------------------------------------------------------
# Table persistence

_FORMAT_NAME = "paces-table"
_FORMAT_VERSION = 5

_HEADER_KEYS = ("format", "version", "model_hash", "body_sha256", "omega",
                "weights", "objective_mode")


def _decision_ranges(eng: _Engine) -> dict[str, tuple[int, int]]:
    """The stored arrays in the order ``body_sha256`` hashes their bytes,
    each with its range on ``eng``: ``dec_mask`` from -1 (no decision) to
    every appliance started, ``dec_step`` over the battery-rate limits."""
    return {"dec_mask": (-1, (1 << eng.n_app) - 1),
            "dec_step": (eng.k_rate_lo, eng.k_rate_hi)}


def _dump_dtype(lo: int, hi: int) -> str:
    """The narrowest little-endian signed integer type holding ``lo..hi``."""
    for name in ("<i1", "<i2"):
        if np.iinfo(name).min <= lo and hi <= np.iinfo(name).max:
            return name
    return "<i4"  # the in-memory int32 holds every range an engine has


def save_table(table: ScheduleTable, path: str, format: str = "json") -> None:
    """Write the table's decisions with its header as one line of JSON,
    keys sorted.

    ``dec_mask`` and ``dec_step`` are each stored as the base64 of their
    little-endian, C-order bytes, cells indexed ``[t][r][b]``, in the
    narrowest signed integer type that holds the array's range on the
    table's engine; ``body_sha256`` covers those bytes, so a loader
    detects a corrupted or edited body.  The values are not stored: a
    load rebuilds them from the decisions.  A decision cell outside its
    range, or a header number that is not finite, has no dump form: it
    raises :class:`IntegrityError` and writes nothing.
    """
    if format != "json":
        raise ConfigError(f"unknown table format {format!r}, expected 'json'")
    digest = hashlib.sha256()
    payload = {}
    for name, (lo, hi) in _decision_ranges(table._engine).items():
        arr = getattr(table, name)
        if arr.min() < lo or arr.max() > hi:
            raise IntegrityError(
                f"{path}: refusing to write a {name} cell outside {lo}..{hi}")
        raw = arr.astype(_dump_dtype(lo, hi)).tobytes()
        digest.update(raw)
        payload[name] = base64.b64encode(raw).decode("ascii")
    payload.update(
        format=_FORMAT_NAME, version=_FORMAT_VERSION,
        model_hash=table.model_hash, body_sha256=digest.hexdigest(),
        omega=[list(sc.starts) for sc in table.config.scenarios],
        weights=list(table.config.resolved_weights()),
        objective_mode=table.config.objective_mode)
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError:
        raise IntegrityError(
            f"{path}: refusing to write a non-finite number as JSON") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


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
    missing = [k for k in _HEADER_KEYS + ("dec_mask", "dec_step")
               if k not in payload]
    if missing:
        raise IntegrityError(f"{path} is truncated: no {', '.join(missing)}")
    return payload


def read_table_header(path: str) -> dict:
    """Model hash, body hash, scenario set and objective of a table dump."""
    payload = _read_payload(path)
    return {k: payload[k] for k in _HEADER_KEYS}


def load_table(path: str, config: SolveConfig) -> ScheduleTable:
    """Read a table dump, bind it to ``config`` and rebuild its values.

    Refuses, with :class:`IntegrityError`, a dump built for another model,
    one whose arrays are not base64 of the engine's ``(tau, n_r, m)``
    shape, whose body does not match ``body_sha256``, that holds
    decisions outside the engine's range, or whose decisions do not make
    a table (see :func:`_rebuild_values`).
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
    """Check a parsed dump against ``config``, decode its decisions and
    rebuild its values."""
    expected = model_fingerprint(config)
    if payload["model_hash"] != expected:
        raise IntegrityError(
            "table was built for a different model: hash "
            f"{str(payload['model_hash'])[:12]}... != config {expected[:12]}...")
    eng = config._engine
    shape = (eng.tau, eng.n_r, eng.m)
    ranges = _decision_ranges(eng)
    digest = hashlib.sha256()
    arrays = []
    for name, (lo, hi) in ranges.items():
        dtype = _dump_dtype(lo, hi)
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
        arrays.append(np.frombuffer(raw, dtype).astype(np.int32).reshape(shape))
    if payload["body_sha256"] != digest.hexdigest():
        raise IntegrityError(
            f"{path}: table body does not match its body_sha256")
    for arr, (lo, hi) in zip(arrays, ranges.values()):
        if arr.min() < lo or arr.max() > hi:
            raise IntegrityError(f"{path}: a decision cell is out of range")
    dec_mask, dec_step = arrays
    values = _rebuild_values(path, eng, dec_mask, dec_step)
    return ScheduleTable(config, values, dec_mask, dec_step, expected)


def _rebuild_values(path: str, eng: _Engine, dec_mask: np.ndarray,
                    dec_step: np.ndarray) -> np.ndarray:
    """The values a build stores with these decisions, bit for bit.

    One backward pass.  At slot ``t`` a live cell ``(r, b)`` with
    decision ``(mask, k)`` is worth :meth:`_Engine.stage_cost` of its
    option row's draw and ``k``, plus the continuation at the row's next
    vector and level ``b + k``: the very sum :meth:`_Engine.solve_slot`
    keeps for the decision it picks.  A dead cell is worth ``inf``, as a
    build leaves it.  The pass is also the dump's whole-table check: a
    live cell whose mask is no option of its vector at ``t``, whose move
    leaves the battery grid or whose continuation is not finite is
    refused (:func:`_refusal`).
    """
    values = np.empty(dec_mask.shape)
    f_next = eng.terminal_continuation()
    m = eng.m
    # each vector's first entry in the flat row_of, where mask adds on
    row_base = np.arange(eng.n_r)[:, None] << eng.n_app
    for t in range(eng.tau, 0, -1):
        opts = eng.options(t)
        mask, k = dec_mask[t - 1], dec_step[t - 1]
        live = mask >= 0
        row = opts.row_of.take(row_base + mask)
        b_next = eng._levels + k
        dead = ~live | (row < 0) | (b_next < 0) | (b_next >= m)
        # a dead or faulty cell reads row 0 at level 0, then holds inf
        np.copyto(row, 0, where=dead)
        np.copyto(b_next, 0, where=dead)
        f_t = (eng.stage_cost(t, opts.y_w.take(row), k)
               + f_next.take(opts.r_next.take(row) * m + b_next))
        np.copyto(f_t, np.inf, where=dead)
        fault = live & ~np.isfinite(f_t)
        if fault.any():
            r, b = np.argwhere(fault)[0].tolist()
            raise _refusal(path, eng, t, r, b, int(mask[r, b]), int(k[r, b]))
        values[t - 1] = f_next = f_t
    return values


def _refusal(path: str, eng: _Engine, t: int, r: int, b: int, mask: int,
             k: int) -> IntegrityError:
    """Why slot ``t``'s live cell ``(r, b)`` cannot hold ``(mask, k)``."""
    state = SystemState(battery_wh=b * eng.step, remaining=eng.r_combos[r])
    where = f"{path}: table decision at slot {t} for {state!r}"
    for i, (rem, dur) in enumerate(zip(state.remaining, eng.durations)):
        if mask >> i & 1 and rem != dur:
            return IntegrityError(
                f"{where} cannot be applied: cannot start an appliance with "
                f"{rem} of {dur} slots remaining")
    opts = eng.options(t)
    row = opts.row_of[r, mask]
    if row < 0:
        return IntegrityError(
            f"{where} leaves unfinished work past the horizon: an unstarted "
            f"appliance can no longer finish by slot {eng.tau}")
    if not 0 <= b + k < eng.m:
        return IntegrityError(
            f"{where} moves the battery to {(b + k) * eng.step!r} Wh, outside "
            f"[0, {eng.battery.b_max_wh!r}]")
    r_next = int(opts.r_next[row])
    if t == eng.tau:
        return IntegrityError(
            f"{where} leaves unfinished work {eng.r_combos[r_next]!r} past "
            f"the horizon")
    nxt = SystemState(battery_wh=(b + k) * eng.step,
                      remaining=eng.r_combos[r_next])
    return IntegrityError(
        f"{where} leads to {nxt!r}, which has no feasible decision at slot "
        f"{t + 1}")
