"""Smoke tests of the Table 1-5 harnesses at the 'test' scale."""
import numpy as np
import pytest

from repro.bench.config import SCALES
from repro.bench.e2e import (
    BenchRow,
    load_dataset,
    run_dataset,
)
from repro.bench.report import (
    format_details,
    format_table2,
    format_table3,
    format_table4,
    format_table5,
)
from repro.bench.robustness import RobustnessRow, split_nprobe
from repro.exec.recall import exhaustive_local
from repro.exec.strategies import build_index, run_queries
from repro.kg.entities import kg_entities
from repro.kg.table1 import format_table1, workload_characteristics
from repro.kg.workload import relatedqs_workload

SCALE = SCALES["test"]


class TestLoadDataset:
    @pytest.mark.parametrize("name", ["RelatedQS", "LP", "MSTuring", "SIFT", "YandexT2I"])
    def test_loads(self, name):
        ds, wl, idx_wl = load_dataset(name, SCALE)
        assert ds.n == (SCALE.kg_n if name in ("RelatedQS", "LP") else SCALE.bigann_n)
        assert wl.nq > 0
        if name == "LP":
            assert idx_wl is None
        if name == "SIFT":
            # SIFT keeps its 10x smaller query set (Table 2).
            _, wl_ms, _ = load_dataset("MSTuring", SCALE)
            assert wl.nq <= wl_ms.nq / 3


class TestTable1:
    def test_characteristics_shape_and_stability(self):
        ds = kg_entities(n=SCALE.kg_n, dim=SCALE.kg_dim, seed=0)
        splits = relatedqs_workload(ds, n_queries_per_split=1000, seed=0)
        df = workload_characteristics(ds, splits)
        assert list(df["template"]) == [f"T{i}" for i in range(1, 11)]
        # Shares sum to 1 within each split.
        for s in range(4):
            assert abs(df[f"t{s}"].sum() - 1.0) < 1e-9
        # Filter stability: split-to-split share drift is small (Table 1's
        # true drift is <=4pp; sampling noise adds a few more).
        for s in range(1, 4):
            assert (df[f"t{s}"] - df["t0"]).abs().max() < 0.1
        # Selectivity spans orders of magnitude, T1 min.
        assert df["feasible_frac"].idxmin() == 0
        assert df["feasible_frac"].max() > 100 * df["feasible_frac"].min()
        text = format_table1(df)
        assert "T10" in text and "%" in text


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def relatedqs_rows(self, spark):
        return run_dataset(
            spark, "RelatedQS", SCALE, approaches=("hqi", "prefilter", "range")
        )

    def test_hqi_reaches_recall(self, relatedqs_rows):
        hqi = next(r for r in relatedqs_rows if r.approach == "hqi")
        assert hqi.recall >= SCALE.target_recall - 0.05
        assert hqi.note == ""
        assert hqi.run_seconds > 0 and hqi.build_seconds > 0

    def test_range_na_on_relatedqs(self, relatedqs_rows):
        rng = next(r for r in relatedqs_rows if r.approach == "range")
        assert rng.note == "NA"
        assert not rng.applicable

    def test_hqi_scans_fewer_tuples(self, relatedqs_rows):
        hqi = next(r for r in relatedqs_rows if r.approach == "hqi")
        pre = next(r for r in relatedqs_rows if r.approach == "prefilter")
        assert pre.recall >= SCALE.target_recall - 0.05
        assert hqi.tuples_scanned < pre.tuples_scanned

    def test_report_formatting(self, relatedqs_rows):
        t3 = format_table3(relatedqs_rows, datasets=("RelatedQS",))
        assert "HQI" in t3 and "NA" in t3
        t4 = format_table4(relatedqs_rows, datasets=("RelatedQS",))
        assert "PreFilter" in t4
        det = format_details(relatedqs_rows)
        assert "tuples_scanned" in det


class TestReportUnits:
    def test_table3_handles_missing_and_na(self):
        rows = [
            BenchRow("D", "hqi", run_seconds=1.0, recall=0.9),
            BenchRow("D", "prefilter", run_seconds=5.0, recall=0.85),
            BenchRow("D", "range", note="NA"),
        ]
        text = format_table3(rows, datasets=("D",))
        assert "5.00x" in text and "NA" in text

    def test_table3_flags_unreached_recall(self):
        rows = [
            BenchRow("D", "hqi", run_seconds=1.0, recall=0.9),
            BenchRow(
                "D", "postfilter", run_seconds=9.0, recall=0.5,
                note="recall target not reached",
            ),
        ]
        text = format_table3(rows, datasets=("D",))
        assert "9.00x *" in text

    def test_table4_relative_build_time(self):
        rows = [
            BenchRow("D", "hqi", build_seconds=2.0, run_seconds=1.0),
            BenchRow("D", "prefilter", build_seconds=4.0, run_seconds=1.0),
        ]
        text = format_table4(rows, datasets=("D",))
        assert "2.00x" in text

    def test_table5_normalized_by_hqi_t0(self):
        rows = [
            RobustnessRow("hqi", qps=[100, 105, 103, 105], recall=[0.9] * 4),
            RobustnessRow("prefilter", qps=[3.2, 3.1, 3.2, 3.2], recall=[0.85] * 4),
        ]
        text = format_table5(rows)
        assert "1.000x" in text and "0.032x" in text

    def test_table5_names_full_probe_templates(self):
        rows = [
            RobustnessRow("hqi", qps=[100] * 4, recall=[0.9] * 4,
                          full_probe_tids=[9]),
            RobustnessRow("prefilter", qps=[3.0] * 4, recall=[0.85] * 4),
        ]
        text = format_table5(rows)
        assert "templates [9] are absent from t0" in text
        assert text.count("full probe") == 1  # only the row that used it

    def test_table2_lists_all_datasets(self):
        text = format_table2(SCALE)
        for name in ("RelatedQS", "LP", "MSTuring", "SIFT", "YandexT2I"):
            assert name in text
        assert "uint8" in text and "ip" in text


class TestNumpyDeterminism:
    def test_run_dataset_deterministic_data(self):
        a, _, _ = load_dataset("MSTuring", SCALE)
        b, _, _ = load_dataset("MSTuring", SCALE)
        np.testing.assert_array_equal(a.vecs(), b.vecs())


class TestTable5UnseenTemplates:
    """Table 5 tunes nprobe on t0. With workload seed 1 at test scale, T9
    is absent from t0 but present in t2 and t3."""

    @pytest.fixture(scope="class")
    def setup(self):
        ds = kg_entities(n=SCALE.kg_n, dim=SCALE.kg_dim, seed=0)
        splits = relatedqs_workload(
            ds, n_queries_per_split=SCALE.relatedqs_per_split, seed=1
        )
        return ds, splits

    def test_unseen_templates_run_at_max_nprobe(self, setup):
        _, splits = setup
        assert 9 not in splits[0].template_counts()
        assert 9 in splits[2].template_counts() and 9 in splits[3].template_counts()
        tuned = {tid: 2 for tid in splits[0].template_counts()}
        nprobe, full = split_nprobe(tuned, splits, max_nprobe=78)
        assert full == [9]
        assert nprobe == {**tuned, 9: 78}
        assert split_nprobe(nprobe, splits, max_nprobe=78) == (nprobe, [])

    def test_full_probe_is_exact_for_unseen_template(self, setup):
        ds, splits = setup
        built = build_index("hqi", ds, splits[0], min_size=SCALE.min_size)
        tuned = {tid: 1 for tid in splits[0].template_counts()}
        max_nprobe = int(np.sqrt(ds.n)) + 1
        nprobe, _ = split_nprobe(tuned, splits, max_nprobe)
        t2 = splits[2].subset(splits[2].queries_of_template(9))
        got = run_queries(built, t2, k=SCALE.k, nprobe_by_tid=nprobe)
        exp = exhaustive_local(ds, t2, SCALE.k)
        for qid in t2.qids.tolist():
            np.testing.assert_array_equal(got.ids_by_qid[qid], exp.ids_by_qid[qid])
