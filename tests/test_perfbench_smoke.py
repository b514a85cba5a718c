"""Smoke test of the repository benchmark at test scale.

Runs ``perfbench/run.py --quick`` for each workload and requires every
answer check to pass: template match, ``(score, id)`` order, recomputed
scores and full-probe exactness against exhaustive search. Run records go
to the git-ignored ``.perfbench/``.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["msturing-hqi", "relatedqs-prefilter"])
def test_quick_run_answers_correctly(workload):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", "0", "--quick",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
