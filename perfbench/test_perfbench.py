"""Smoke test of the benchmark code: tracer, checks, catalogue, one run."""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)

    def body():
        leaf()
        leaf()
    tracer.wrap("root", body)()
    root, first, second = tracer.spans
    assert [r[spans.NAME] for r in tracer.spans] == ["root", "leaf", "leaf"]
    assert first[spans.PARENT] == second[spans.PARENT] == 0
    assert spans.self_time(root) == 10.0 - 2.0 - 0.5
    assert spans.self_time(first) == 2.0


def test_traced_solve_counts_builds_and_restores_names(tmp_path):
    import paces.scenarios
    import paces.table
    original = paces.scenarios.backward_recursion
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert paces.scenarios.backward_recursion is not original
        tracer.op = 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = workloads.cli.main(["solve", "--config",
                                       "motivating-example",
                                       "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert paces.scenarios.backward_recursion is original
    assert paces.table.ScheduleTable.entry.__name__ == "entry"
    layer = metrics.per_layer(tracer.spans, SimpleNamespace(
        op_s=[1.0], replay_s=[], dump_bytes=0, artifact_bytes=0))
    # 2 builds of 3 battery levels x 12 remaining vectors x 4 slots
    assert layer["table.build_calls"] == 2
    assert layer["table.state_slots"] == 2 * 36 * 4
    assert layer["scenarios.worst_calls"] == 2
    assert layer["scenarios.candidates"] == 2
    assert layer["scenarios.widening_builds_ratio"] == 1.0
    assert layer["simulate.replay_calls"] == 1
    assert layer["config.load_s"] > 0
    assert set(layer) == set(metrics.PER_LAYER)


def test_op_ref_divides_by_the_loops_on_both_sides():
    blocks = [[1.0] * 10, [1.0] * 10, [3.0] * 10]
    assert metrics.op_ref([2.0, 6.0], blocks) == [2.0, 3.0]


def test_catalogue_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.instances.NAMES)


def test_checks_reject_wrong_outputs():
    good = ("capacity_wh,feasible,controllable_cost,expected_total_cost,"
            "solves,message\n0.0,0,,,0,x\n"
            f"250.0,1,0.1,{workloads.PINNED_SWEEP[1]!r},7,\n")
    assert workloads.check_sweep(0, good) is None
    assert "pattern" in workloads.check_sweep(0, good.replace(",0,,,", ",1,,,"))
    assert "pinned" in workloads.check_sweep(
        0, good.replace(repr(workloads.PINNED_SWEEP[1]), "0.5"))


def test_solution_check_catches_a_band_breach(tmp_path):
    fx = workloads.set_up("solve-ns4", 0, tmp_path)
    slots = [{"base_load_w": 85.0 - fx.draw_hi[t] / 2 - fx.draw_lo[t] / 2,
              "battery_delta_wh": 0.0, "started": []}
             for t in range(fx.cfg.instance.grid.tau)]
    solution = {"controllable_cost": workloads.PINNED_COST["solve-ns4"],
                "slots": slots, "appliance_starts": {}}
    assert "cannot finish" in workloads.check_solution(
        fx, "solve-ns4", 0, solution)
    slots[3]["base_load_w"] += 200.0
    assert "leaves the band" in workloads.check_solution(
        fx, "solve-ns4", 0, solution)


def test_run_without_package_source_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sweep-tight", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_the_result_line(trace):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sweep-tight", "--seconds", "0", "--trace",
                           str(trace)], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        assert result["metrics"]["table.build_calls"]["value"] == 23
        assert result["metrics"]["table.infeasible_builds"]["value"] == 5
