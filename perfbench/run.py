#!/usr/bin/env python3
"""Benchmark of the paces pipeline: solve, sweep, table round trip, replay.

Run from the repository root.  One workload, one fresh process, closed
loop (one operation at a time, no extra threads):

    python3 perfbench/run.py --workload solve-ns4 --seed 0 --seconds 32 --trace 0

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same operations with spans around the
package's public functions and reports the per-layer metrics instead.

Without ``--workload`` every workload runs twice, untraced then traced,
each in its own fresh process, and a summary with units, sample counts,
the failed fraction and the tracing overhead is printed and written to
``.perfbench_out/results.json``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import os
import time

import reference  # this directory; the standard library only

#: the reference loop right before start-up, the divisor of setup_s
REF_BEFORE = reference.block()
T_START = time.perf_counter()

# pinned before numpy loads: single-threaded BLAS, the sweep's default
# sequential path
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PACES_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import instances  # noqa: E402  (this directory; numpy, no paces)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: set-ups per run, each in a fresh interpreter (this one and
#: SETUP_REPS - 1 children); setup_s reports their median in reference
#: seconds
SETUP_REPS = 5

#: a single workload run must end well inside this, in seconds
CHILD_TIMEOUT_S = 170

#: a metric line of a workload run: name, value, unit, sample count
_METRIC_LINE = re.compile(r"^#   (\S+) = (\S+) (\S+)(?: \(n=(\d+)\))?$")


def _import_package() -> None:
    """Import ``paces`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "paces" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'paces'}; "
                 f"run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import paces
    if Path(paces.__file__).resolve().parent != (SRC / "paces").resolve():
        sys.exit(f"perfbench: imported paces from {paces.__file__}, "
                 f"expected {SRC / 'paces'}")


def environment() -> dict:
    import numpy
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                   "HEAD"], capture_output=True, text=True,
                                  timeout=30)
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


def _work_dir(name: str) -> Path:
    return ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"


def _remove(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        work.parent.rmdir()


def _since_start() -> tuple[float, float]:
    """Wall seconds since start-up, and the same in reference seconds."""
    wall = time.perf_counter() - T_START
    return wall, reference.ref_seconds(wall, REF_BEFORE, reference.block())


def set_up_only(name: str, seed: int) -> tuple[float, float]:
    """Import and set up once, as a run does; see ``_since_start``."""
    _import_package()
    import workloads
    work = _work_dir(name)
    try:
        workloads.set_up(name, seed, work)
        return _since_start()
    finally:
        _remove(work)


def _set_up_in_child(name: str, seed: int) -> tuple[float, float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S / SETUP_REPS, check=True)
    wall, ref = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(ref)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_package()
    import metrics
    import spans
    import workloads

    work = _work_dir(name)
    try:
        fixture = workloads.set_up(name, seed, work)
        # this process imported and set up once; fresh children repeat it
        setups = [_since_start()]
        setups += [_set_up_in_child(name, seed)
                   for _ in range(SETUP_REPS - 1)]

        runner = workloads.Runner(name, seed, fixture, work)
        tracer = spans.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            runner.reference()
            while True:
                if tracer is not None:
                    tracer.op = len(runner.samples.op_s)
                runner.operation()
                runner.reference()
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        _remove(work)

    s = runner.samples
    counts = {"setup_s": len(setups), "op_ref.p10": len(s.op_s),
              "peak_rss_mb": 1,
              "trace.op_s": len(s.op_s),
              "trace.replay_ms.p50": len(s.replay_s),
              "trace.replay_ms.p99": len(s.replay_s)}
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{name}-seed{seed}.csv"))
        values = metrics.per_layer(tracer.spans, s)
        units = metrics.PER_LAYER
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = metrics.end_to_end(statistics.median(r for _, r in setups),
                                    s.op_s, s.ref_s, rss_mb)
        units = metrics.END_TO_END

    print(f"# {name} seed {seed} trace {int(trace)}: {len(s.op_s)} "
          f"operations, env {json.dumps(environment(), sort_keys=True)}")
    for key, value in values.items():
        n = counts.get(key)
        print(f"#   {key} = {value!r} {units[key]}"
              + (f" (n={n})" if n is not None else ""))
    if tracer is None:
        details = {"setup_wall_s": (statistics.median(w for w, _ in setups),
                                    len(setups)),
                   **metrics.detail(name, s)}
        for key, (value, n) in details.items():
            print(f"#   {key} = {value!r} {metrics.DETAIL[key]} (n={n})")
    print(f"#   fail_frac = {s.failed / max(1, s.attempted)!r} "
          f"({s.failed} of {s.attempted} checked operations)")
    for err in s.errors:
        print(f"#   FAILED {err}")
    return {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results: dict = {}
    ok = True
    for name in instances.NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 2 * seconds)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                print(f"{name} trace {trace}: exit code {done.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not trace:
                result["printed"] = [m.groups() for m in
                                     map(_METRIC_LINE.match, lines) if m]
            results.setdefault(name, {})["traced" if trace
                                         else "untraced"] = result
            ok = ok and result["correct"]

    print("\nworkload        metric            value          unit   samples")
    for name, res in results.items():
        plain = res.get("untraced")
        if plain is None:
            continue
        for key, value, unit, n in plain["printed"]:
            print(f"{name:15} {key:17} {float(value):<14.6g} {unit:6} "
                  f"{n or ''}")
        print(f"{name:15} {'fail_frac':17} "
              f"{plain['failed'] / plain['attempted']:<14.6g} {'':6} "
              f"{plain['attempted']}")
        traced = res.get("traced")
        if traced is not None:
            op_p10 = next(float(v) for k, v, _, _ in plain["printed"]
                          if k == "op_s.p10")
            over = traced["metrics"]["trace.op_s"]["value"] / op_p10 - 1.0
            res["tracing_overhead_op_s"] = over
            print(f"{name:15} {'tracing overhead':17} {over:<14.3%} "
                  f"(trace.op_s / op_s.p10 - 1)")
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(
        {"seed": seed, "seconds": seconds, "environment": environment(),
         "workloads": results}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"results written to {OUT / 'results.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=instances.NAMES,
                        help="run one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="length of the timed region of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up the workload once, print "
                             "the wall and reference seconds taken and "
                             "exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_only:
        if args.workload is None:
            parser.error("--setup-only needs --workload")
        print(*map(repr, set_up_only(args.workload, args.seed)))
        return 0
    if args.workload is None:
        _import_package()
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
