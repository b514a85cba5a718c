"""Smoke test of the repository benchmark at test scale.

Runs ``perfbench/run.py --quick`` for each workload and requires every
answer check to pass: template match, ``(score, id)`` order, recomputed
scores and full-probe exactness against exhaustive search. The traced run
also runs the batch on the Spark engine, whose answers and counters must
be bit-identical to the local engine's. Run records go to the git-ignored
``.perfbench/``.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _quick_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["msturing-hqi", "relatedqs-prefilter"])
def test_quick_run_answers_correctly(workload):
    result = _quick_run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_quick_run_local_spark_parity():
    """PreFilter's per-query scan runs inside Spark's mapInPandas tasks
    too; the traced run fails any query whose Spark answer differs."""
    result = _quick_run("relatedqs-prefilter", trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
