"""The table harness ``python -m repro.bench.tables``: the files it writes,
and the result checks it exits non-zero on. Each table's command line is
smoke-tested in test_jobs.py."""
import json
import os

import pytest

from repro.bench.config import SCALES
from repro.bench.e2e import DATASETS, BenchRow
from repro.bench.robustness import RobustnessRow
from repro.bench.tables import (
    check_table1, check_table3, check_table4, check_table5, main,
)

SCALE = SCALES["test"]
TEMPLATES = [f"T{i}" for i in range(1, 11)]


class TestCommandLine:
    def test_tables_1_and_2_write_txt_and_json(self, tmp_path):
        assert main(["1", "2", "--scale", "test"], out_dir=tmp_path) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "table1.json", "table1.txt", "table2.json", "table2.txt",
        ]
        t1 = (tmp_path / "table1.txt").read_text().splitlines()
        assert t1[0].startswith("Table 1")
        assert [ln.split("|")[0].strip() for ln in t1[3:]] == TEMPLATES
        t2 = (tmp_path / "table2.txt").read_text()
        assert all(name in t2 for name in DATASETS)
        for n, key, expect in ((1, "template", TEMPLATES), (2, "dataset", list(DATASETS))):
            record = json.loads((tmp_path / f"table{n}.json").read_text())
            assert (record["table"], record["scale"]) == (n, "test")
            assert record["cpu_count"] == os.cpu_count()
            assert [r[key] for r in record["rows"]] == expect

    @pytest.mark.parametrize(
        "argv",
        [["6", "--scale", "test"], []],
        ids=["unknown-table", "no-table"],
    )
    def test_bad_arguments_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(argv, out_dir=tmp_path)
        assert e.value.code != 0
        assert list(tmp_path.iterdir()) == []


def _e2e_rows(recall=0.85, lp_build=1.0):
    return [
        BenchRow(d, ap, build_seconds=lp_build if d == "LP" else 1.0,
                 recall=recall if ap == "hqi" else 0.5)
        for d in DATASETS for ap in ("hqi", "prefilter")
    ]


class TestChecks:
    def test_table1(self):
        assert check_table1(TEMPLATES) == []
        (msg,) = check_table1(TEMPLATES[:-1])
        assert msg.startswith("table1:") and "10" in msg

    def test_table3_recall_and_datasets(self):
        assert check_table3(_e2e_rows(), SCALE) == []
        # The floor is target - 0.05, inclusive.
        assert check_table3(_e2e_rows(recall=SCALE.target_recall - 0.05), SCALE) == []
        for recall in (0.7, float("nan")):
            fails = check_table3(_e2e_rows(recall=recall), SCALE)
            assert len(fails) == len(DATASETS)
            assert all(f.startswith("table3: HQI recall") for f in fails)
        (msg,) = check_table3([r for r in _e2e_rows() if r.dataset != "SIFT"], SCALE)
        assert msg.startswith("table3: HQI rows")

    def test_table4_lp_build_timed(self):
        assert check_table4(_e2e_rows()) == []
        (msg,) = check_table4(_e2e_rows(lp_build=0.0))
        assert msg.startswith("table4:") and "LP" in msg
        assert check_table4([r for r in _e2e_rows() if r.dataset != "LP"]) == [msg]

    def test_table5_flat_and_ahead(self):
        hqi = RobustnessRow("hqi", qps=[100, 105, 103, 150])
        pre = RobustnessRow("prefilter", qps=[99, 50, 50, 50])
        assert check_table5([hqi, pre]) == []
        (msg,) = check_table5([RobustnessRow("hqi", qps=[100, 105, 103, 160]), pre])
        assert msg.startswith("table5: HQI max/min QPS")
        (msg,) = check_table5([hqi, RobustnessRow("prefilter", qps=[3, 3, 103, 3])])
        assert msg.startswith("table5:") and "PreFilter" in msg
