"""End-to-end correctness of every approach on the local reference
engine. The central invariant: with every posting list probed, any
approach's results must exactly equal exhaustive search (Strategy A) —
partition routing is complete and filters are exact."""
import numpy as np
import pytest

from repro.bench.datasets import bigann_lite, bigann_workload
from repro.exec.engine import ExecParams
from repro.exec.local_engine import run_local
from repro.exec.recall import exhaustive_local, recall_at_k, recall_by_template
from repro.exec.strategies import (
    RangeNotApplicable,
    build_index,
    run_queries,
)
from repro.exec.tuning import sample_workload, tune_nprobe
from repro.kg.entities import kg_entities
from repro.kg.workload import lp_workload, relatedqs_workload

K = 10
FULL = 10**6  # nprobe large enough to scan every list everywhere


@pytest.fixture(scope="module")
def kg():
    return kg_entities(n=8_000, dim=8, seed=0)


@pytest.fixture(scope="module")
def kg_load(kg):
    return relatedqs_workload(kg, n_queries_per_split=300, seed=0)[0]


@pytest.fixture(scope="module")
def kg_gt(kg, kg_load):
    return exhaustive_local(kg, kg_load, K)


@pytest.fixture(scope="module")
def ms():
    return bigann_lite("msturing", n=6_000, seed=0)


@pytest.fixture(scope="module")
def ms_load(ms):
    return bigann_workload(ms, nq=15, seed=1)


@pytest.fixture(scope="module")
def ms_gt(ms, ms_load):
    return exhaustive_local(ms, ms_load, K)


def _nprobe_all(workload, value):
    return {int(t): value for t in np.unique(workload.qtemplates)}


def _assert_same_results(result, gt, workload):
    for qid in workload.qids:
        qid = int(qid)
        np.testing.assert_array_equal(
            result.ids_by_qid[qid], gt.ids_by_qid[qid],
            err_msg=f"qid={qid}",
        )


class TestExactnessAtFullProbe:
    def test_hqi_equals_exhaustive(self, kg, kg_load, kg_gt):
        built = build_index("hqi", kg, kg_load, m=0, min_size=256)
        res = run_queries(
            built, kg_load, k=K, nprobe_by_tid=_nprobe_all(kg_load, FULL)
        )
        _assert_same_results(res, kg_gt, kg_load)

    def test_hqi_m10_high_recall_not_exact(self, kg, kg_load, kg_gt):
        """m > 0 routing is itself approximate (§4.1.1): a true neighbor
        may sit in a partition containing none of the query's m nearest
        centroids. Recall stays high but exactness is not guaranteed."""
        built = build_index("hqi", kg, kg_load, m=10, min_size=256)
        res = run_queries(
            built, kg_load, k=K, nprobe_by_tid=_nprobe_all(kg_load, FULL)
        )
        assert recall_at_k(res, kg_gt) >= 0.9

    def test_prefilter_equals_exhaustive(self, kg, kg_load, kg_gt):
        built = build_index("prefilter", kg)
        res = run_queries(
            built, kg_load, k=K, nprobe_by_tid=_nprobe_all(kg_load, FULL)
        )
        _assert_same_results(res, kg_gt, kg_load)

    def test_range_equals_exhaustive_on_bigann(self, ms, ms_load, ms_gt):
        built = build_index("range", ms, ms_load, range_parts=8)
        res = run_queries(
            built, ms_load, k=K, nprobe_by_tid=_nprobe_all(ms_load, FULL)
        )
        _assert_same_results(res, ms_gt, ms_load)

    def test_prefilter_equals_exhaustive_on_bigann(self, ms, ms_load, ms_gt):
        built = build_index("prefilter", ms)
        res = run_queries(
            built, ms_load, k=K, nprobe_by_tid=_nprobe_all(ms_load, FULL)
        )
        _assert_same_results(res, ms_gt, ms_load)

    def test_hqi_equals_exhaustive_on_bigann(self, ms, ms_load, ms_gt):
        built = build_index("hqi", ms, ms_load, min_size=256)
        res = run_queries(
            built, ms_load, k=K, nprobe_by_tid=_nprobe_all(ms_load, FULL)
        )
        _assert_same_results(res, ms_gt, ms_load)


def _run_batching(built, workload, nprobe_by_tid, batch_vectors):
    """``run_local`` with vector batching forced on or off."""
    params = ExecParams(
        k=K,
        metric=built.dataset.metric,
        templates=workload.templates,
        nprobe_by_tid=nprobe_by_tid,
        qvecs=workload.qvecs,
        batch_vectors=batch_vectors,
    )
    return run_local(built.parts, built.plan, workload, params)


class TestBatchingIsPureOptimization:
    def test_hqi_batch_on_off_identical(self, kg, kg_load):
        built = build_index("hqi", kg, kg_load, min_size=256)
        np_cfg = _nprobe_all(kg_load, 4)
        a = _run_batching(built, kg_load, np_cfg, batch_vectors=True)
        b = _run_batching(built, kg_load, np_cfg, batch_vectors=False)
        _assert_same_results(a, b, kg_load)
        # Same distance work, fewer shared scans when batched.
        assert a.distance_computations == b.distance_computations
        assert a.tuples_scanned <= b.tuples_scanned

    def test_prefilter_batch_on_off_identical(self, ms, ms_load):
        built = build_index("prefilter", ms)
        np_cfg = _nprobe_all(ms_load, 8)
        a = _run_batching(built, ms_load, np_cfg, batch_vectors=True)
        b = _run_batching(built, ms_load, np_cfg, batch_vectors=False)
        _assert_same_results(a, b, ms_load)


class TestPostFilter:
    def test_postfilter_results_satisfy_constraints(self, ms, ms_load):
        built = build_index("postfilter", ms)
        res = run_queries(
            built, ms_load, k=K, nprobe_by_tid=_nprobe_all(ms_load, 8),
            fetch_k=50,
        )
        pdf = ms.pdf.set_index("id")
        for qpos in range(0, ms_load.nq, 37):
            qid = int(ms_load.qids[qpos])
            tid = int(ms_load.qtemplates[qpos])
            ids = res.ids_by_qid[qid]
            if len(ids):
                mask = ms_load.templates[tid].mask(pdf.loc[ids])
                assert mask.all()
            assert len(ids) <= K

    def test_postfilter_recall_lower_on_selective_filters(self, ms, ms_load, ms_gt):
        """Strategy D's known failure mode (§2.3): selective filters prune
        most unfiltered candidates => low recall."""
        built = build_index("postfilter", ms)
        res = run_queries(
            built, ms_load, k=K, nprobe_by_tid=_nprobe_all(ms_load, FULL),
            fetch_k=3 * K,
        )
        by_t = recall_by_template(res, ms_gt, ms_load)
        assert by_t[10] < 0.8  # most selective A-filter (2^-9)
        assert by_t[1] > 0.9  # unselective filter (A < 1) barely prunes

    def test_larger_fetch_k_not_worse(self, ms, ms_load, ms_gt):
        built = build_index("postfilter", ms)
        cfg = _nprobe_all(ms_load, FULL)
        lo = run_queries(built, ms_load, k=K, nprobe_by_tid=cfg, fetch_k=20)
        hi = run_queries(built, ms_load, k=K, nprobe_by_tid=cfg, fetch_k=400)
        assert recall_at_k(hi, ms_gt) >= recall_at_k(lo, ms_gt)


class TestRangeApplicability:
    @pytest.mark.parametrize("templates", ["relatedqs", "lp"])
    def test_range_rejected_for_kg_templates(self, kg, kg_load, templates):
        """RelatedQS's IN / IS NOT NULL and LP's ``etype =`` templates have
        no range predicate over the partitioning attribute: Table 3's NA."""
        wl = kg_load if templates == "relatedqs" else lp_workload(kg, n_queries=50)
        with pytest.raises(RangeNotApplicable):
            build_index("range", kg, wl)

    def test_range_prunes_a_filters_not_b_filters(self, ms, ms_load):
        """Strategy C prunes only queries over the partitioning attribute
        (Figure 6's contrast)."""
        built = build_index("range", ms, ms_load, range_parts=8)
        cfg = _nprobe_all(ms_load, 4)
        res = run_queries(built, ms_load, k=K, nprobe_by_tid=cfg)
        # A-filter template 10 (sel 2^-9) routes to 1 bucket; B-filter
        # template 20 routes to all 8 => scans ~8x the tuples.
        a_scan = res.stats_by_tid[10].tuples_scanned
        b_scan = res.stats_by_tid[20].tuples_scanned
        assert b_scan > 4 * a_scan


class TestWorkloadAwarePruning:
    def test_hqi_scans_fewer_tuples_than_prefilter(self, kg, kg_load):
        """§6: workload-aware partitioning cuts tuple scans (77-95%)."""
        hqi = build_index("hqi", kg, kg_load, min_size=256)
        pre = build_index("prefilter", kg)
        cfg = _nprobe_all(kg_load, FULL)
        r_h = run_queries(hqi, kg_load, k=K, nprobe_by_tid=cfg)
        r_p = run_queries(pre, kg_load, k=K, nprobe_by_tid=cfg)
        assert r_h.tuples_scanned < 0.5 * r_p.tuples_scanned
        # Low-selectivity template T1 gains the most.
        t1_h = r_h.stats_by_tid[1].tuples_scanned
        t1_p = r_p.stats_by_tid[1].tuples_scanned
        assert t1_h < 0.25 * t1_p


class TestLPWorkloadRuns:
    def test_hqi_without_history_uses_flat_plan(self, kg):
        w = lp_workload(kg, n_queries=200, seed=0)
        built = build_index("hqi", kg, workload=None)
        assert built.plan.kind == "flat"
        gt = exhaustive_local(kg, w, K)
        res = run_queries(built, w, k=K, nprobe_by_tid=_nprobe_all(w, FULL))
        _assert_same_results(res, gt, w)


class TestTuning:
    def test_tuning_reaches_target(self, kg, kg_load, kg_gt):
        built = build_index("hqi", kg, kg_load, min_size=256)
        sample = sample_workload(kg_load, per_template=10, seed=0)
        gt = exhaustive_local(kg, sample, K)

        def run_fn(cfg):
            return run_queries(built, sample, k=K, nprobe_by_tid=cfg)

        outcome = tune_nprobe(run_fn, sample, gt, target=0.8)
        assert outcome.reached
        assert all(r >= 0.8 for r in outcome.recall_by_tid.values())
        # Tuned config on the full workload also reaches target recall.
        res = run_queries(built, kg_load, k=K, nprobe_by_tid=outcome.nprobe_by_tid)
        assert recall_at_k(res, kg_gt) >= 0.75

    def test_sample_workload_caps_per_template(self, kg_load):
        s = sample_workload(kg_load, per_template=5, seed=0)
        assert all(c <= 5 for c in s.template_counts().values())
        assert set(s.qids).issubset(set(kg_load.qids))

    def test_tuning_reports_unreachable(self, ms, ms_load):
        """PostFilter at tiny fetch_k cannot reach recall on selective
        filters — the paper's '-' entries."""
        built = build_index("postfilter", ms)
        sample = sample_workload(ms_load, per_template=8, seed=0)
        gt = exhaustive_local(ms, sample, K)

        def run_fn(cfg):
            return run_queries(
                built, sample, k=K, nprobe_by_tid=cfg, fetch_k=K
            )

        outcome = tune_nprobe(run_fn, sample, gt, target=0.95, max_nprobe=64)
        assert not outcome.reached


class TestRecallBehaviour:
    def test_recall_increases_with_nprobe_prefilter(self, ms, ms_load, ms_gt):
        built = build_index("prefilter", ms)
        recalls = [
            recall_at_k(
                run_queries(
                    built, ms_load, k=K, nprobe_by_tid=_nprobe_all(ms_load, p)
                ),
                ms_gt,
            )
            for p in (1, 8, FULL)
        ]
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[2] == 1.0

    def test_exhaustive_recall_is_one(self, kg, kg_load, kg_gt):
        assert recall_at_k(kg_gt, kg_gt) == 1.0
