"""Metric catalogue and the reductions that produce each metric.

End-to-end metrics come from untraced runs; per-layer metrics from a
traced run, per operation (see ``README.md``), so a count repeats
exactly however many operations a run fits in.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Sequence

from reference import NOMINAL_S, ref_seconds
from spans import INFO, NAME, OK, self_time

#: name -> unit of every metric an untraced run reports; each one is
#: measured on every workload, so it can carry a bound
END_TO_END = {
    "setup_s": "s",
    "op_ref.p10": "ref",
    "peak_rss_mb": "MB",
}

#: name -> unit of the raw times, and of the parts of an operation that
#: only some workloads have; printed with their sample counts, not bounded
DETAIL = {
    "setup_wall_s": "s",
    "op_s.p10": "s",
    "op_s.p50": "s",
    "solve_s": "s",
    "sweep_s": "s",
    "table_save_s": "s",
    "table_load_s": "s",
    "replay_per_s": "1/s",
    "replay_ms.p50": "ms",
    "replay_ms.p99": "ms",
}

#: name -> unit of every metric a traced run prints
PER_LAYER = {
    "config.load_s": "s",
    "table.build_calls": "count",
    "table.build_s": "s",
    "table.state_slots": "count",
    "table.state_slots_per_s": "1/s",
    "table.infeasible_builds": "count",
    "table.infeasible_build_s": "s",
    "table.extract_s": "s",
    "table.save_s": "s",
    "table.header_s": "s",
    "table.load_s": "s",
    "table.dump_bytes": "bytes",
    "table.entry_calls": "count",
    "table.entry_s": "s",
    "table.fingerprint_calls": "count",
    "table.fingerprint_s": "s",
    "scenarios.worst_calls": "count",
    "scenarios.worst_s": "s",
    "scenarios.candidates": "count",
    "scenarios.candidates_scanned": "count",
    "scenarios.candidates_per_s": "1/s",
    "scenarios.omega_final": "count",
    "scenarios.widening_builds_ratio": "ratio",
    "scenarios.solve_calls": "count",
    "scenarios.solve_s": "s",
    "simulate.replay_calls": "count",
    "simulate.replay_s": "s",
    "simulate.slots": "count",
    "simulate.breaches": "count",
    "simulate.sweep_points": "count",
    "simulate.sweep_infeasible": "count",
    "simulate.sweep_self_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.op_s": "s",
    "trace.replay_ms.p50": "ms",
    "trace.replay_ms.p99": "ms",
}


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile, inclusive method; the median for q=50."""
    if q == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_ref(op_s: Sequence[float], ref_s: Sequence[Sequence[float]]):
    """Each operation's time in reference-loop runs.

    The divisor is the median of the loop times taken right before and
    right after the operation, so both sides saw the same machine speed.
    """
    return [ref_seconds(op, ref_s[i], ref_s[i + 1]) / NOMINAL_S
            for i, op in enumerate(op_s)]


def end_to_end(setup_s: float, op_s, ref_s, peak_rss_mb: float) -> dict:
    return {"setup_s": setup_s,
            "op_ref.p10": percentile(op_ref(op_s, ref_s), 10),
            "peak_rss_mb": peak_rss_mb}


def detail(name: str, samples) -> dict[str, tuple[float, int]]:
    """Raw times of the workload's operation and its parts:
    name -> (value, sample count)."""
    n_op = len(samples.op_s)
    out = {"op_s.p10": (percentile(samples.op_s, 10), n_op)}
    op = (statistics.median(samples.op_s), n_op)
    if name.startswith("solve-"):
        return {**out, "solve_s": op}
    if name == "sweep-tight":
        return {**out, "sweep_s": op}
    replay_ms = [1e3 * s for s in samples.replay_s]
    n = len(replay_ms)
    return {
        **out,
        "op_s.p50": op,
        "table_save_s": (statistics.median(samples.save_s),
                         len(samples.save_s)),
        "table_load_s": (statistics.median(samples.load_s),
                         len(samples.load_s)),
        "replay_per_s": (n / sum(samples.replay_s), n),
        "replay_ms.p50": (percentile(replay_ms, 50), n),
        "replay_ms.p99": (percentile(replay_ms, 99), n),
    }


def _envelope_widened(instance, rebuilds) -> list[bool]:
    """Per refinement rebuild: did its new scenario widen [w_min, w_max]?

    The first build of a solve uses the no-draw scenario alone, so the
    envelope starts at zero on every slot.
    """
    from paces.model import scenario_load
    slots = range(1, instance.grid.tau + 1)
    lo = [0.0 for _ in slots]
    hi = [0.0 for _ in slots]
    out = []
    for k, sc in enumerate(rebuilds):
        draw = [scenario_load(sc, instance.ns_appliances, t) for t in slots]
        if k == 0:
            widened = any(d > h for d, h in zip(draw, hi))
            lo, hi = draw, list(draw)
        else:
            widened = any(d < a or d > b for d, a, b in zip(draw, lo, hi))
            lo = [min(a, d) for a, d in zip(lo, draw)]
            hi = [max(b, d) for b, d in zip(hi, draw)]
        out.append(widened)
    return out


def per_layer(spans: list, samples) -> dict[str, float]:
    """Per-operation layer metrics from the traced run's spans."""
    by = defaultdict(list)
    for rec in spans:
        by[rec[NAME]].append(rec)

    def self_s(name, recs=None):
        return sum(self_time(r) for r in (by[name] if recs is None else recs))

    def info_sum(name, key):
        return sum(r[INFO][key] for r in by[name] if r[INFO] is not None
                   and key in r[INFO])

    builds = by["table.build"]
    failed_builds = [r for r in builds if not r[OK]]
    state_slots = info_sum("table.build", "state_slots")
    scanned = info_sum("scenarios.worst", "candidates")
    solves = [r for r in by["scenarios.solve"] if r[OK]]
    widened = [w for r in solves
               for w in _envelope_widened(r[INFO]["instance"],
                                          r[INFO]["rebuilds"])]
    n = len(samples.op_s)
    replay_ms = [1e3 * s for s in samples.replay_s] or [0.0]
    return {
        "config.load_s": self_s("config.load") / n,
        "table.build_calls": len(builds) / n,
        "table.build_s": self_s("table.build") / n,
        "table.state_slots": state_slots / n,
        "table.state_slots_per_s":
            state_slots / self_s("table.build") if builds else 0.0,
        "table.infeasible_builds": len(failed_builds) / n,
        "table.infeasible_build_s": self_s("table.build", failed_builds) / n,
        "table.extract_s": self_s("table.extract") / n,
        "table.save_s": self_s("table.save") / n,
        "table.header_s": self_s("table.header") / n,
        "table.load_s": self_s("table.load") / n,
        "table.dump_bytes": samples.dump_bytes,
        "table.entry_calls": len(by["table.entry"]) / n,
        "table.entry_s": self_s("table.entry") / n,
        "table.fingerprint_calls": len(by["table.fingerprint"]) / n,
        "table.fingerprint_s": self_s("table.fingerprint") / n,
        "scenarios.worst_calls": len(by["scenarios.worst"]) / n,
        "scenarios.worst_s": self_s("scenarios.worst") / n,
        "scenarios.candidates": max((r[INFO]["candidates"]
                                     for r in by["scenarios.worst"]),
                                    default=0),
        "scenarios.candidates_scanned": scanned / n,
        "scenarios.candidates_per_s":
            scanned / self_s("scenarios.worst") if scanned else 0.0,
        "scenarios.omega_final":
            statistics.mean(r[INFO]["omega"] for r in solves)
            if solves else 0.0,
        "scenarios.widening_builds_ratio":
            sum(widened) / len(widened) if widened else 0.0,
        "scenarios.solve_calls": len(by["scenarios.solve"]) / n,
        "scenarios.solve_s": self_s("scenarios.solve") / n,
        "simulate.replay_calls": len(by["simulate.replay"]) / n,
        "simulate.replay_s": self_s("simulate.replay") / n,
        "simulate.slots": info_sum("simulate.replay", "slots") / n,
        "simulate.breaches": info_sum("simulate.replay", "breaches") / n,
        "simulate.sweep_points": info_sum("simulate.sweep", "points") / n,
        "simulate.sweep_infeasible":
            info_sum("simulate.sweep", "infeasible") / n,
        "simulate.sweep_self_s": self_s("simulate.sweep") / n,
        "cli.self_s": self_s("cli.main") / n,
        "cli.artifact_bytes": samples.artifact_bytes,
        "trace.op_s": percentile(samples.op_s, 10),
        "trace.replay_ms.p50": percentile(replay_ms, 50),
        "trace.replay_ms.p99": percentile(replay_ms, 99),
    }
