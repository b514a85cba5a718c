"""Smoke tests for each table's command line, ``python -m repro.bench.tables
N``: argument parsing, and the Spark-free Tables 1 and 2 end to end."""
import subprocess
import sys

import pytest

from repro.bench.tables import RESULTS_DIR, main

# Table numbers, keyed by the per-table script each one replaced.
JOBS = {
    "table1_workload.py": "1",
    "table2_datasets.py": "2",
    "table3_slowdown.py": "3",
    "table4_index_time.py": "4",
    "table5_robustness.py": "5",
}


def _results_snapshot():
    return RESULTS_DIR.exists() and {p: p.stat().st_mtime_ns for p in RESULTS_DIR.iterdir()}


class TestSparkFreeJobs:
    def test_table1_job(self, tmp_path, capsys):
        assert main(["1", "--scale", "test"], out_dir=tmp_path) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "T10" in out

    def test_table2_job(self, tmp_path, capsys):
        assert main(["2", "--scale", "test"], out_dir=tmp_path) == 0
        out = capsys.readouterr().out
        for name in ("RelatedQS", "LP", "MSTuring", "SIFT", "YandexT2I"):
            assert name in out

    def test_bad_scale_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["1", "--scale", "galactic"], out_dir=tmp_path)
        assert e.value.code != 0
        assert list(tmp_path.iterdir()) == []


class TestJobHelp:
    @pytest.mark.parametrize("script", list(JOBS))
    def test_help_exits_zero(self, script, tmp_path):
        before = _results_snapshot()
        p = subprocess.run(
            [sys.executable, "-m", "repro.bench.tables", JOBS[script], "--help"],
            capture_output=True, text=True, timeout=300, cwd=tmp_path,
        )
        assert p.returncode == 0, p.stderr[-2000:]
        assert "--scale" in p.stdout
        # --help writes nothing, here or into bench_results/.
        assert list(tmp_path.iterdir()) == [] and _results_snapshot() == before
