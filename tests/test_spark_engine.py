"""Distributed engine tests: the Spark layout holds the driver-built
partitions, the Spark engine's results and work counters equal the local
engine's, and both stay exact at full probe on unseen templates and
later workload splits."""
import numpy as np
import pandas as pd
import pytest

from repro.bench.datasets import bigann_lite, bigann_workload
from repro.core.predicates import Cmp, Conjunction, In, NotNull
from repro.core.types import Workload
from repro.exec.engine import PartitionData
from repro.exec.recall import exhaustive_local
from repro.exec.strategies import build_index, run_queries
from repro.index.layout import (
    lpt_slots,
    materialize_local,
    materialize_spark,
    plan_flat,
    plan_hqi,
)
from repro.kg.entities import kg_entities
from repro.kg.workload import relatedqs_workload

K = 10
FULL = 10**6


@pytest.fixture(scope="module")
def kg():
    return kg_entities(n=2_500, dim=8, seed=0)


@pytest.fixture(scope="module")
def kg_load(kg):
    return relatedqs_workload(kg, n_queries_per_split=120, seed=0)[0]


@pytest.fixture(scope="module")
def ms():
    return bigann_lite("msturing", n=2_000, seed=0)


@pytest.fixture(scope="module")
def ms_load(ms):
    return bigann_workload(ms, nq=6, seed=1)


def _nprobe_all(workload, value):
    return {int(t): value for t in np.unique(workload.qtemplates)}


def _assert_results_equal(a, b, workload):
    for qid in workload.qids:
        qid = int(qid)
        np.testing.assert_array_equal(
            a.ids_by_qid[qid], b.ids_by_qid[qid], err_msg=f"qid={qid}"
        )
        np.testing.assert_allclose(
            a.scores_by_qid[qid], b.scores_by_qid[qid], atol=1e-9
        )


class TestLayoutParity:
    @pytest.mark.parametrize("kind", ["hqi", "flat"])
    def test_spark_layout_matches_local(self, spark, kg, kg_load, kind):
        """The shipped layout must put every tuple in the same partition
        and posting list as the driver-built partitions, with identical
        centroids, vectors and attributes."""
        if kind == "hqi":
            plan = plan_hqi(kg, kg_load, min_size=256)
        else:
            plan = plan_flat(kg, n_buckets=4)
        local = materialize_local(kg, plan)
        layout = materialize_spark(spark, plan, local)
        by_pid = {int(r["pid"]): PartitionData.unpack(r) for r in layout.df.collect()}
        assert set(by_pid) == set(local)
        for pid, part in local.items():
            shipped = by_pid[pid]
            np.testing.assert_array_equal(shipped.vecs, part.vecs)
            pd.testing.assert_frame_equal(shipped.attrs, part.attrs)
            got = pd.DataFrame(
                {"id": shipped.ids, "list_id": shipped.labels}
            ).sort_values("id")
            want = pd.DataFrame(
                {"id": part.ids, "list": part.labels}
            ).sort_values("id")
            np.testing.assert_array_equal(
                got["id"].to_numpy(), want["id"].to_numpy()
            )
            np.testing.assert_array_equal(
                got["list_id"].to_numpy(), want["list"].to_numpy()
            )
            np.testing.assert_array_equal(shipped.centroids, part.centroids)
        layout.unpersist()

    @pytest.mark.parametrize("kind", ["hqi", "flat"])
    def test_spark_partitions_are_lpt_slots(self, spark, kg, kg_load, kind):
        """One non-empty Spark partition per slot, each pid once, in the
        slot ``lpt_slots`` gives it; shipping the layout shuffles nothing."""
        if kind == "hqi":
            plan = plan_hqi(kg, kg_load, min_size=128)
        else:
            plan = plan_flat(kg, n_buckets=8)
        local = materialize_local(kg, plan)
        layout = materialize_spark(spark, plan, local)
        n_slots = min(spark.sparkContext.defaultParallelism, len(local))
        got = [
            sorted(int(r["pid"]) for r in part)
            for part in layout.df.select("pid").rdd.glom().collect()
        ]
        assert len(got) == n_slots and all(got)
        assert sorted(p for slot in got for p in slot) == sorted(local)
        assert got == lpt_slots({pid: len(p.ids) for pid, p in local.items()}, n_slots)
        assert "Exchange" not in layout.df._jdf.queryExecution().executedPlan().toString()
        layout.unpersist()


class TestExecutionParity:
    """run_spark and run_local share search_partition; the full pipelines
    must produce identical top-k and identical work counters."""

    @pytest.mark.parametrize("approach", ["hqi", "prefilter", "postfilter"])
    def test_kg_parity(self, spark, kg, kg_load, approach):
        wl = kg_load if approach == "hqi" else None
        local = build_index(approach, kg, wl, engine="local", min_size=256)
        dist = build_index(approach, kg, wl, engine="spark", spark=spark, min_size=256)
        # A Spark build carries the driver-built partitions too.
        assert dist.parts.keys() == local.parts.keys()
        for pid, part in local.parts.items():
            for field in ("ids", "labels", "centroids"):
                np.testing.assert_array_equal(
                    getattr(dist.parts[pid], field), getattr(part, field)
                )
        cfg = _nprobe_all(kg_load, 4)
        a = run_queries(local, kg_load, k=K, nprobe_by_tid=cfg, engine="local")
        b = run_queries(
            dist, kg_load, k=K, nprobe_by_tid=cfg, engine="spark", spark=spark
        )
        _assert_results_equal(a, b, kg_load)
        assert a.tuples_scanned == b.tuples_scanned
        assert a.distance_computations == b.distance_computations

    def test_hqi_m10_parity(self, spark, kg, kg_load):
        local = build_index("hqi", kg, kg_load, engine="local", m=10, min_size=256)
        dist = build_index(
            "hqi", kg, kg_load, engine="spark", spark=spark, m=10, min_size=256
        )
        cfg = _nprobe_all(kg_load, FULL)
        a = run_queries(local, kg_load, k=K, nprobe_by_tid=cfg, engine="local")
        b = run_queries(
            dist, kg_load, k=K, nprobe_by_tid=cfg, engine="spark", spark=spark
        )
        _assert_results_equal(a, b, kg_load)

    def test_range_parity_on_bigann(self, spark, ms, ms_load):
        local = build_index("range", ms, ms_load, engine="local", range_parts=4)
        dist = build_index(
            "range", ms, ms_load, engine="spark", spark=spark, range_parts=4
        )
        cfg = _nprobe_all(ms_load, 4)
        a = run_queries(local, ms_load, k=K, nprobe_by_tid=cfg, engine="local")
        b = run_queries(
            dist, ms_load, k=K, nprobe_by_tid=cfg, engine="spark", spark=spark
        )
        _assert_results_equal(a, b, ms_load)

    def test_spark_hqi_full_probe_equals_exhaustive(self, spark, kg, kg_load):
        dist = build_index("hqi", kg, kg_load, engine="spark", spark=spark, min_size=256)
        res = run_queries(
            dist, kg_load, k=K, nprobe_by_tid=_nprobe_all(kg_load, FULL),
            engine="spark", spark=spark,
        )
        gt = exhaustive_local(kg, kg_load, K)
        _assert_results_equal(res, gt, kg_load)


class TestUnseenTemplatesAndDrift:
    """An HQI index trained on split t0 must stay exact at full probe
    (m = 0) on templates the qd-tree never saw and on the later splits:
    routing drops atoms outside the cut set, so it keeps every partition
    a matching tuple may sit in."""

    UNSEEN = {
        101: Conjunction([Cmp("etype", "=", "person")]),  # subset of T4
        102: Conjunction([Cmp("etype", "=", "team"), NotNull("nobel")]),  # T2 x T1
        103: Conjunction([In("etype", ["song", "person"])]),
        104: Conjunction([NotNull("height")]),  # NULL for ~99% of tuples
        105: Conjunction([]),
        106: Conjunction([Cmp("etype", "=", "no-such-type")]),
    }
    NO_MATCH = (102, 106)

    def test_local_spark_exhaustive_agree(self, spark, kg):
        splits = relatedqs_workload(kg, n_queries_per_split=120, seed=0)
        templates = {**splits[0].templates, **self.UNSEEN}
        for tid in self.NO_MATCH:
            assert not templates[tid].mask(kg.pdf).any()
        built = build_index(
            "hqi", kg, splits[0], engine="spark", spark=spark, min_size=256
        )
        g = np.random.default_rng(3)
        unseen_tids = np.repeat(list(self.UNSEEN), 5)
        later = splits[1:]
        wl = Workload(
            templates=templates,
            qids=np.concatenate(
                [w.qids for w in later]
                + [10**6 + np.arange(len(unseen_tids), dtype=np.int64)]
            ),
            qvecs=np.concatenate(
                [w.qvecs for w in later]
                + [kg.vecs()[g.choice(kg.n, len(unseen_tids))]]
            ),
            qtemplates=np.concatenate(
                [w.qtemplates for w in later] + [unseen_tids]
            ),
        )
        cfg = _nprobe_all(wl, FULL)
        a = run_queries(built, wl, k=K, nprobe_by_tid=cfg, engine="local")
        b = run_queries(
            built, wl, k=K, nprobe_by_tid=cfg, engine="spark", spark=spark
        )
        gt = exhaustive_local(kg, wl, K)
        _assert_results_equal(a, gt, wl)
        _assert_results_equal(b, a, wl)
        assert a.stats_by_tid == b.stats_by_tid
        for tid in self.NO_MATCH:
            for qid in wl.qids[wl.qtemplates == tid]:
                assert len(a.ids_by_qid[int(qid)]) == 0
        built.layout.unpersist()
