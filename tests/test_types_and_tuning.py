"""Unit tests for the Dataset/Workload containers and the nprobe tuner."""
import numpy as np
import pandas as pd
import pytest

from repro.bench.config import SCALES
from repro.bench.datasets import bigann_lite, bigann_workload
from repro.core.ivf import SearchStats
from repro.core.predicates import Cmp, Conjunction
from repro.core.types import Dataset, Workload, vec_matrix
from repro.exec.engine import RunResult
from repro.exec.recall import exhaustive_local
from repro.exec.strategies import build_index, run_queries
from repro.exec.tuning import sample_workload, tune_nprobe


def _dataset(n=20, d=3):
    g = np.random.default_rng(0)
    pdf = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "etype": g.choice(["a", "b"], n),
            "h": np.where(g.random(n) < 0.5, g.random(n), np.nan),
            "rank": g.integers(0, 5, n),
        }
    )
    pdf["vec"] = list(g.random((n, d)))
    pdf = pdf[["id", "vec", "etype", "h", "rank"]]
    return Dataset(name="t", metric="l2", pdf=pdf, attr_cols=["etype", "h", "rank"])


def _workload(nq=12, d=3):
    g = np.random.default_rng(1)
    return Workload(
        templates={1: Conjunction([Cmp("etype", "=", "a")]), 2: Conjunction()},
        qids=np.arange(100, 100 + nq, dtype=np.int64),
        qvecs=g.random((nq, d)),
        qtemplates=np.array(([1, 2] * nq)[:nq], dtype=np.int64),
    )


class TestDataset:
    def test_dims(self):
        ds = _dataset()
        assert ds.n == 20 and ds.dim == 3

    def test_vecs_cached(self):
        ds = _dataset()
        assert ds.vecs() is ds.vecs()

    def test_vec_matrix_shape(self):
        ds = _dataset()
        assert vec_matrix(ds.pdf["vec"]).shape == (20, 3)


class TestWorkload:
    def test_template_counts(self):
        wl = _workload(10)
        assert wl.template_counts() == {1: 5, 2: 5}

    def test_queries_of_template(self):
        wl = _workload(6)
        np.testing.assert_array_equal(wl.queries_of_template(1), [0, 2, 4])

    def test_subset_preserves_qids(self):
        wl = _workload(8)
        sub = wl.subset(np.array([1, 3]))
        assert sub.nq == 2
        assert sub.qids.tolist() == [101, 103]
        np.testing.assert_array_equal(sub.qvecs, wl.qvecs[[1, 3]])


class TestSampleWorkload:
    def test_deterministic(self):
        wl = _workload(40)
        a = sample_workload(wl, 5, seed=3)
        b = sample_workload(wl, 5, seed=3)
        np.testing.assert_array_equal(a.qids, b.qids)

    def test_small_templates_kept_whole(self):
        wl = _workload(6)
        s = sample_workload(wl, 100, seed=0)
        assert s.nq == 6


class FakeIndex:
    """Recall rises deterministically with nprobe; lets us test the tuner
    without a real index."""

    def __init__(self, thresholds):
        self.thresholds = thresholds  # tid -> nprobe at which recall hits 1.0
        self.calls = 0

    def run(self, cfg, sample, gt):
        self.calls += 1
        res = RunResult()
        for qpos in range(sample.nq):
            qid = int(sample.qids[qpos])
            tid = int(sample.qtemplates[qpos])
            if cfg[tid] >= self.thresholds[tid]:
                res.ids_by_qid[qid] = gt.ids_by_qid[qid]
            else:
                frac = cfg[tid] / self.thresholds[tid]
                n = int(len(gt.ids_by_qid[qid]) * frac)
                res.ids_by_qid[qid] = gt.ids_by_qid[qid][:n]
        return res


def _gt_for(sample, k=4):
    gt = RunResult()
    for qpos in range(sample.nq):
        qid = int(sample.qids[qpos])
        gt.ids_by_qid[qid] = np.arange(qid * 10, qid * 10 + k, dtype=np.int64)
    return gt


class TestTuner:
    def test_per_template_nprobe(self):
        wl = _workload(12)
        gt = _gt_for(wl)
        fake = FakeIndex({1: 8, 2: 1})
        out = tune_nprobe(
            lambda cfg: fake.run(cfg, wl, gt), wl, gt, target=0.9,
            max_nprobe=64,
        )
        assert out.reached
        assert out.nprobe_by_tid[1] == 8  # doubled 1->2->4->8
        assert out.nprobe_by_tid[2] == 1  # already sufficient
        assert out.recall_by_tid[1] >= 0.9

    def test_cap_reported_as_unreached(self):
        wl = _workload(12)
        gt = _gt_for(wl)
        fake = FakeIndex({1: 10**6, 2: 1})
        out = tune_nprobe(
            lambda cfg: fake.run(cfg, wl, gt), wl, gt, target=0.9,
            max_nprobe=16,
        )
        assert not out.reached
        assert out.nprobe_by_tid[1] == 16
        assert out.recall_by_tid[1] < 0.9

    def test_joint_rounds_bounded(self):
        wl = _workload(12)
        gt = _gt_for(wl)
        fake = FakeIndex({1: 64, 2: 4})
        tune_nprobe(
            lambda cfg: fake.run(cfg, wl, gt), wl, gt, target=0.95,
            max_nprobe=256,
        )
        # log2(64) + 1 measurement rounds, not per-template rounds.
        assert fake.calls <= 8


class TestSearchStatsContainer:
    def test_run_result_totals(self):
        r = RunResult(stats_by_tid={1: SearchStats(5, 2), 2: SearchStats(7, 3)})
        assert r.tuples_scanned == 12
        assert r.distance_computations == 5


class TestTunerRunsPendingTemplatesOnly:
    """Rounds after the first run the templates still below target only;
    the others run at nprobe 0. The outcome equals running every template
    at its latest nprobe in every round."""

    @pytest.mark.parametrize("approach", ["hqi", "range", "prefilter"])
    def test_outcome_equals_running_every_template(self, approach):
        s = SCALES["test"]
        ds = bigann_lite("msturing", n=s.bigann_n, seed=0)
        wl = bigann_workload(ds, nq=s.bigann_nq, seed=1)
        built = build_index(
            approach, ds, None if approach == "prefilter" else wl,
            min_size=s.min_size, n_buckets=s.n_buckets,
        )
        sample = sample_workload(wl, s.tune_per_template)
        gt = exhaustive_local(ds, sample, s.k)
        configs, latest = [], {}

        def pending_only(cfg):
            configs.append(cfg)
            return run_queries(built, sample, k=s.k, nprobe_by_tid=cfg)

        def every_template(cfg):
            latest.update({t: n for t, n in cfg.items() if n})
            return run_queries(built, sample, k=s.k, nprobe_by_tid=dict(latest))

        args = dict(target=s.target_recall, max_nprobe=int(np.sqrt(ds.n)) + 1)
        got = tune_nprobe(pending_only, sample, gt, **args)
        assert got == tune_nprobe(every_template, sample, gt, **args)
        # Some round skipped a template that had reached the target.
        assert any(0 in cfg.values() for cfg in configs[1:])
        assert 0 not in configs[0].values()
