"""The benchmark's replay and solve workloads run end to end.

``perfbench/run.py`` calls the package as a user does: replay-fine
dumps a table with ``save_table``, reads it back through
``read_table_header``, the ``SolveConfig`` keywords and ``load_table``,
and replays it with ``simulate``; solve-ns4 runs ``paces solve``.  A
zero-second run checks one operation of each, so a break in one of
those calls fails here, not only in a benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["replay-fine", "solve-ns4"])
def test_a_zero_second_run_is_correct(workload):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           workload, "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
