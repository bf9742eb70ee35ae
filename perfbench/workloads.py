"""The workloads: set-up, the timed operation, output checks.

One operation, repeated back to back, one at a time:

- solve-ns4: ``paces solve`` in-process through ``paces.cli.main``;
- sweep-tight: ``paces sweep`` through ``paces.cli.main``;
- replay-fine: ``save_table`` of the hardened table to a JSON dump,
  ``read_table_header`` then ``load_table`` of that dump (the sequence
  ``paces simulate`` runs), then ``REPLAYS`` sampled ``simulate`` calls
  on the loaded table.

Every output is checked; a failed check or an exception counts the
operation (for replay-fine: the round trip, or one replay) as failed.
Functions are looked up on their modules at call time, so a traced run
sees the rebound names.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import instances
import reference

cli = importlib.import_module("paces.cli")
pconfig = importlib.import_module("paces.config")
pmodel = importlib.import_module("paces.model")
pscen = importlib.import_module("paces.scenarios")
# ``paces.simulate`` as an attribute is the function, not the module
psim = importlib.import_module("paces.simulate")
ptable = importlib.import_module("paces.table")

#: controllable cost of the solved instance at seed 0
PINNED_COST = {
    "solve-ns4": 0.016328660000000002,
    "replay-fine": 0.020145000000000003,
}
#: expected total cost per sweep capacity at seed 0, None = infeasible
PINNED_SWEEP = (None, 0.026494508333333326)

#: simulate calls per replay-fine operation, about a third of its time
REPLAYS = 500

#: relative tolerance for costs that scale with the seed's tariff factor
COST_RTOL = 1e-9


def _cost_ok(got: float, pinned: float, seed: int) -> bool:
    if seed == 0:
        return got == pinned
    want = pinned * instances.tariff_scale(seed)
    return abs(got - want) <= COST_RTOL * abs(want)


def _band_tol(policy) -> float:
    # the solver's own stop tolerance for decisions on the band edge
    return 1e-9 * max(1.0, policy.lambda_w, policy.l_bar_w)


@dataclasses.dataclass
class Fixture:
    """What one set-up produces."""

    config_path: Path
    cfg: object                 # paces.InstanceConfig
    draw_lo: list[float]        # per slot, least NS draw over candidates
    draw_hi: list[float]        # per slot, largest NS draw over candidates
    table: object = None        # replay-fine: the hardened ScheduleTable


def _draw_envelope(inst) -> tuple[list[float], list[float]]:
    """Per-slot min and max draw over every candidate placement.

    Placements of different appliances are independent, so the extremes
    over the cross product are sums of per-appliance extremes; each draw
    is taken from ``paces.model.scenario_load`` with one appliance placed.
    """
    ns = inst.ns_appliances
    lo = [0.0] * inst.grid.tau
    hi = [0.0] * inst.grid.tau
    for j, app in enumerate(ns):
        for t in range(1, inst.grid.tau + 1):
            draws = []
            for s in app.feasible_starts():
                starts = [None] * len(ns)
                starts[j] = s
                sc = pmodel.PrivacyScenario(starts=tuple(starts))
                draws.append(pmodel.scenario_load(sc, ns, t))
            lo[t - 1] += min(draws)
            hi[t - 1] += max(draws)
    return lo, hi


def set_up(name: str, seed: int, work: Path) -> Fixture:
    """Write and load the config; replay-fine also hardens its table."""
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(instances.CONFIGS[name](seed),
                                      indent=2) + "\n", encoding="utf-8")
    cfg = pconfig.load_config(str(config_path))
    lo, hi = _draw_envelope(cfg.instance)
    fx = Fixture(config_path, cfg, lo, hi)
    if name == "replay-fine":
        result = pscen.solve_with_scenarios(cfg.instance, cfg.options,
                                            cfg.state_cap)
        cost = result.solution.controllable_cost
        # the seed picks only the replayed scripts here, never the tariff
        if cost != PINNED_COST[name]:
            raise AssertionError(f"hardened cost {cost!r} differs from the "
                                 f"pinned {PINNED_COST[name]!r}")
        fx.table = result.table
    return fx


# ---------------------------------------------------------------------------
# Output checks; each returns None when the output is right, else why not


def check_solution(fx: Fixture, name: str, seed: int,
                   solution: dict) -> Optional[str]:
    inst = fx.cfg.instance
    cost = solution["controllable_cost"]
    if not _cost_ok(cost, PINNED_COST[name], seed):
        return f"controllable cost {cost!r} != pinned {PINNED_COST[name]!r}"
    pol = inst.policy
    tol = _band_tol(pol)
    h = inst.grid.slot_hours
    slots = solution["slots"]
    if len(slots) != inst.grid.tau:
        return f"{len(slots)} slots, expected {inst.grid.tau}"
    for t, row in enumerate(slots, start=1):
        base = row["base_load_w"]
        for gap in (base + fx.draw_hi[t - 1] - pol.l_bar_w,
                    base + fx.draw_lo[t - 1] - pol.l_bar_w):
            if abs(gap) > pol.lambda_w + tol:
                return f"slot {t}: a candidate placement leaves the band " \
                       f"(gap {gap!r} W, lambda {pol.lambda_w!r} W)"
    starts = solution["appliance_starts"]
    for app in inst.appliances:
        s = starts.get(app.id)
        if s is None or s + app.duration_slots - 1 > inst.grid.tau:
            return f"{app.id}: start {s!r} cannot finish by {inst.grid.tau}"
        n_started = sum(app.id in row["started"] for row in slots)
        if n_started != 1:
            return f"{app.id} started {n_started} times"
    # the base load must be exactly one contiguous block per appliance
    # plus the battery move
    for t, row in enumerate(slots, start=1):
        running = sum(app.power_w for app in inst.appliances
                      if starts[app.id] <= t < starts[app.id]
                      + app.duration_slots)
        want = running + row["battery_delta_wh"] / h
        if abs(row["base_load_w"] - want) > 1e-9 * max(1.0, abs(want)):
            return f"slot {t}: base load {row['base_load_w']!r} W is not " \
                   f"the appliance blocks plus battery ({want!r} W)"
    return None


def check_sweep(seed: int, csv_text: str) -> Optional[str]:
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    feasible = [int(r[1]) for r in rows]
    if feasible != [0, 1]:
        return f"feasibility pattern {feasible}"
    costs = [float(r[3]) if r[3] else None for r in rows]
    for cost, pinned in zip(costs, PINNED_SWEEP):
        if pinned is not None and not _cost_ok(cost, pinned, seed):
            return f"sweep costs {costs} != pinned {list(PINNED_SWEEP)}"
    return None


def check_round_trip(fx: Fixture, header: dict, loaded) -> Optional[str]:
    if header["model_hash"] != fx.table.model_hash:
        return "header model hash differs from the saved table's"
    for field in ("values", "dec_mask", "dec_step"):
        a, b = getattr(fx.table, field), getattr(loaded, field)
        if a.shape != b.shape or a.dtype != b.dtype \
                or not np.array_equal(a, b):
            return f"loaded {field} differs from the saved array"
    return None


# ---------------------------------------------------------------------------
# The timed operation


@dataclasses.dataclass
class Samples:
    """Timings of every operation and its parts, and what was checked."""

    op_s: list[float] = dataclasses.field(default_factory=list)
    save_s: list[float] = dataclasses.field(default_factory=list)
    load_s: list[float] = dataclasses.field(default_factory=list)
    replay_s: list[float] = dataclasses.field(default_factory=list)
    #: one block of reference-loop times before the first operation and
    #: after each one
    ref_s: list[list[float]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    dump_bytes: int = 0
    artifact_bytes: int = 0


class Runner:
    """Runs operations of one workload against one set-up."""

    def __init__(self, name: str, seed: int, fx: Fixture, work: Path):
        self.name, self.seed, self.fx, self.work = name, seed, fx, work
        self.clock = time.perf_counter
        self.samples = Samples()
        self._first_artifacts: Optional[dict[str, bytes]] = None
        self._replays = 0

    def _check(self, what: str, step: Callable[[], Optional[str]]) -> None:
        try:
            problem = step()
        except Exception as err:  # a failing step is counted, not fatal
            problem = f"{type(err).__name__}: {err}"
        self.samples.attempted += 1
        if problem is not None:
            self.samples.failed += 1
            if len(self.samples.errors) < 10:
                self.samples.errors.append(f"{what}: {problem}")

    def reference(self) -> None:
        """Time one block of the reference loop (see ``reference.py``)."""
        self.samples.ref_s.append(reference.block(self.clock))

    def operation(self) -> None:
        """One operation; its timed parts, not its checks, go into op_s."""
        if self.name == "replay-fine":
            self._replay_op()
        else:
            self._check(self.name, self._command)

    # -- solve and sweep: one CLI command -----------------------------------

    def _command(self) -> Optional[str]:
        cfg = str(self.fx.config_path)
        out = self.work / "out"
        if self.name == "sweep-tight":
            caps = ",".join(repr(c) for c in instances.SWEEP_CAPACITIES_WH)
            argv = ["sweep", "--config", cfg, "--capacities", caps,
                    "--out", str(out / "sweep.csv")]
        else:
            argv = ["solve", "--config", cfg, "--out", str(out)]
        out.mkdir(exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = self.clock()
            try:
                code = cli.main(argv)
            finally:
                self.samples.op_s.append(self.clock() - t0)
        if code != 0:
            return f"exit code {code}"
        arts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        self.samples.artifact_bytes = sum(len(b) for b in arts.values())
        if self._first_artifacts is None:
            self._first_artifacts = arts
        elif arts != self._first_artifacts:
            return "artifacts differ from the first operation's bytes"
        if self.name == "sweep-tight":
            return check_sweep(self.seed, arts["sweep.csv"].decode())
        return check_solution(self.fx, self.name, self.seed,
                              json.loads(arts["solution.json"]))

    # -- replay-fine: dump, cold start, replays ----------------------------

    def _replay_op(self) -> None:
        loaded = []
        n_save, n_replay = len(self.samples.save_s), len(self.samples.replay_s)

        def round_trip() -> Optional[str]:
            path = str(self.work / "dump.json")
            t0 = self.clock()
            ptable.save_table(self.fx.table, path, "json")
            t1 = self.clock()
            header = ptable.read_table_header(path)
            config = _config_from_header(self.fx.cfg, header)
            table = ptable.load_table(path, config)
            t2 = self.clock()
            self.samples.save_s.append(t1 - t0)
            self.samples.load_s.append(t2 - t1)
            self.samples.dump_bytes = (self.work / "dump.json").stat().st_size
            loaded.append((table, config))
            return check_round_trip(self.fx, header, table)

        self._check("round trip", round_trip)
        if loaded:
            table, config = loaded[0]
            for _ in range(REPLAYS):
                self._check("replay", lambda: self._replay(table, config))
        s = self.samples
        s.op_s.append(sum(s.save_s[n_save:]) + sum(s.load_s[n_save:])
                      + sum(s.replay_s[n_replay:]))

    def _replay(self, table, config) -> Optional[str]:
        script = psim.EventScript.sampled(self.seed * 1_000_003
                                          + self._replays)
        self._replays += 1
        t0 = self.clock()
        report = psim.simulate(table, script, config)
        self.samples.replay_s.append(self.clock() - t0)
        if report.breach_count != 0:
            return f"{report.breach_count} breaching slots"
        if not math.isfinite(report.total_cost):
            return f"total cost {report.total_cost!r}"
        return None


def _config_from_header(cfg, header: dict):
    """The SolveConfig ``paces simulate`` binds a dump to."""
    omega = pmodel.ScenarioSet(tuple(
        pmodel.PrivacyScenario(starts=tuple(row)) for row in header["omega"]))
    weights = tuple(header["weights"]) if header["weights"] else None
    return ptable.SolveConfig(instance=cfg.instance, scenarios=omega,
                              scenario_weights=weights,
                              objective_mode=header["objective_mode"],
                              state_cap=cfg.state_cap)
