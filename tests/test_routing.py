"""Unit tests for query -> partition routing over each layout kind."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.bench.datasets import bigann_lite, bigann_workload
from repro.core.distance import pairwise_scores
from repro.core.predicates import Cmp, Conjunction, In, NotNull
from repro.core.types import Workload
from repro.exec.engine import ExecParams
from repro.exec.routing import ROUTE_COLUMNS, _range_pids, route_queries
from repro.index.layout import (
    CENTROID_COL,
    materialize_local,
    plan_flat,
    plan_hqi,
    plan_range,
)
from repro.kg.entities import kg_entities
from repro.kg.workload import relatedqs_workload
from tests.test_property_based import scalar_routed


@pytest.fixture(scope="module")
def ms():
    return bigann_lite("msturing", n=3_000, seed=0)


@pytest.fixture(scope="module")
def ms_load(ms):
    return bigann_workload(ms, nq=10, seed=1)


def _rows(routed):
    return list(routed[["pid", "qpos", "tid"]].itertuples(index=False, name=None))


def _loop_rows(workload, pids_of_query, by_template=True):
    """Per-query reference for the routed rows: by template, then query
    position (or by position only), each query's pids in list order. Row
    order decides which BLAS tile a query's scores fall in."""
    qpos = (
        np.argsort(workload.qtemplates, kind="stable")
        if by_template
        else np.arange(workload.nq)
    )
    return [
        (p, int(q), int(workload.qtemplates[q]))
        for q in qpos
        for p in pids_of_query(int(q))
    ]


def _params(workload, metric, nprobe=4, **kw):
    return ExecParams(
        k=10,
        metric=metric,
        templates=workload.templates,
        nprobe_by_tid={int(t): nprobe for t in np.unique(workload.qtemplates)},
        qvecs=workload.qvecs,
        **kw,
    )


def _template_nprobe(workload, metric):
    """Params whose nprobe differs between templates, and a check that
    every routed row carries its template's."""
    params = _params(workload, metric)
    params.nprobe_by_tid = {t: 1 + t % 7 for t in params.nprobe_by_tid}

    def check(routed):
        assert list(routed.columns) == ROUTE_COLUMNS
        assert routed["nprobe"].tolist() == [
            params.nprobe_by_tid[t] for t in routed["tid"].tolist()
        ]

    return params, check


@pytest.mark.parametrize("kind", ["hqi", "range", "flat"])
def test_template_without_nprobe_raises(kind, ms, ms_load):
    """Routing reads every template's nprobe, so a template missing from
    ``nprobe_by_tid`` raises on every layout, routed or not."""
    plan = {
        "hqi": lambda: plan_hqi(ms, ms_load, min_size=256),
        "range": lambda: plan_range(ms, attr="A", n_parts=8),
        "flat": lambda: plan_flat(ms, n_buckets=4, seed=0),
    }[kind]()
    params = _params(ms_load, ms.metric)
    del params.nprobe_by_tid[10]
    with pytest.raises(KeyError, match="template 10"):
        route_queries(plan, ms_load, params)


@pytest.mark.parametrize("kind", ["hqi", "hqi-m2", "range", "flat"])
def test_nprobe_zero_routes_no_rows(kind, ms, ms_load):
    """A template at nprobe 0 probes nothing, so it gets no routed rows;
    every other template's rows are the ones it gets on its own."""
    plan = {
        "hqi": lambda: plan_hqi(ms, ms_load, min_size=256),
        "hqi-m2": lambda: plan_hqi(ms, ms_load, m=2, min_size=256),
        "range": lambda: plan_range(ms, attr="A", n_parts=8),
        "flat": lambda: plan_flat(ms, n_buckets=4, seed=0),
    }[kind]()
    params, _ = _template_nprobe(ms_load, ms.metric)
    every = route_queries(plan, ms_load, params)
    zero = set(list(params.nprobe_by_tid)[::2])
    params.nprobe_by_tid = {
        t: 0 if t in zero else n for t, n in params.nprobe_by_tid.items()
    }
    got = route_queries(plan, ms_load, params)
    assert not got["tid"].isin(zero).any()
    assert (got["nprobe"] > 0).all()
    exp = every[~every["tid"].isin(zero)].reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)
    assert len(got) and len(got) < len(every)


class TestRangeRouting:
    @pytest.fixture(scope="class")
    def plan(self, ms):
        return plan_range(ms, attr="A", n_parts=8)

    def test_quantile_edges_balanced(self, plan, ms):
        counts = np.bincount(plan.pid_of_row, minlength=8)
        assert counts.min() > 0.8 * ms.n / 8
        assert counts.max() < 1.2 * ms.n / 8

    def test_selective_a_filter_routes_to_one_bucket(self, plan):
        # A < 2^-9 covers only the lowest quantile bucket.
        t = Conjunction([Cmp("A", "<", 2.0**-9)])
        assert _range_pids(t, plan) == [0]

    def test_unselective_a_filter_routes_everywhere(self, plan):
        t = Conjunction([Cmp("A", "<", 1.0)])
        assert _range_pids(t, plan) == list(range(8))

    def test_b_filter_routes_everywhere(self, plan):
        t = Conjunction([Cmp("B", "<", 0.001)])
        assert _range_pids(t, plan) == list(range(8))

    def test_non_range_predicate_routes_everywhere(self, plan):
        t = Conjunction([NotNull("A")])
        assert _range_pids(t, plan) == list(range(8))

    def test_rows_match_per_query_loop(self, plan, ms, ms_load):
        params, check_nprobe = _template_nprobe(ms_load, ms.metric)
        routed = route_queries(plan, ms_load, params)
        check_nprobe(routed)
        assert _rows(routed) == _loop_rows(
            ms_load,
            lambda q: _range_pids(ms_load.templates[int(ms_load.qtemplates[q])], plan),
        )

    def test_routing_complete_for_matching_rows(self, plan, ms, ms_load):
        """Every row matching a template must live in a routed bucket."""
        params = _params(ms_load, ms.metric)
        routed = route_queries(plan, ms_load, params)
        for tid in (5, 10, 15, 20):
            pids = set(routed[routed["tid"] == tid]["pid"])
            rows = ms_load.templates[tid].mask(ms.pdf)
            assert set(plan.pid_of_row[rows]) <= pids


class TestFlatRouting:
    @pytest.fixture(scope="class")
    def plan(self, ms):
        return plan_flat(ms, n_buckets=4, seed=0)

    def test_lists_spread_round_robin(self, plan):
        assert set(plan.pid_of_row) == set(range(4))
        np.testing.assert_array_equal(
            plan.pid_of_row, plan.list_of_row % 4
        )

    @staticmethod
    def _nearest(plan, wl, metric, nprobe):
        """Per query position: its nprobe nearest global lists by (score,
        list id), from the score matrix routing computes per template."""
        out = {}
        for tid in np.unique(wl.qtemplates):
            qpos = wl.queries_of_template(tid)
            scores = pairwise_scores(wl.qvecs[qpos], plan.global_centroids, metric)
            for q, row in zip(qpos.tolist(), scores.tolist()):
                out[q] = sorted(range(len(row)), key=lambda l: (row[l], l))[:nprobe]
        return out

    def test_each_query_routed_to_nprobe_lists(self, plan, ms, ms_load):
        params = _params(ms_load, ms.metric, nprobe=6)
        routed = route_queries(plan, ms_load, params)
        assert list(routed.columns) == ROUTE_COLUMNS
        assert (routed["nprobe"] > 0).all()
        assert (routed.groupby("qpos")["nprobe"].sum() == 6).all()
        assert routed["qpos"].nunique() == ms_load.nq

    def test_lists_live_in_their_bucket(self, plan, ms, ms_load):
        """A (query, bucket) row counts the query's nearest global lists
        that live in that bucket; buckets holding none get no row."""
        params = _params(ms_load, ms.metric, nprobe=6)
        routed = route_queries(plan, ms_load, params)
        nearest = self._nearest(plan, ms_load, ms.metric, 6)
        got = {
            (q, p): n for p, q, n in routed[["pid", "qpos", "nprobe"]].values.tolist()
        }
        want = {}
        for q, lists in nearest.items():
            for l in lists:
                want[q, l % 4] = want.get((q, l % 4), 0) + 1
        assert got == want

    @pytest.mark.parametrize("duplicated", [False, True])
    def test_probe_order_is_score_then_list_id(
        self, plan, ms, ms_load, duplicated
    ):
        """The lists a query's buckets probe — each bucket's own nearest
        ``nprobe`` lists, mapped back to global ids (local j of bucket b is
        global b + j * n_buckets) and joined in bucket order — are its
        nprobe nearest global centroids in (score, list id) order, grouped
        by bucket. With duplicated integer-valued centroids and queries,
        scores tie exactly and the list id decides."""
        wl = ms_load
        if duplicated:
            g = np.random.default_rng(3)
            n_lists = len(plan.global_centroids)
            base = g.integers(-2, 3, (n_lists // 3 + 1, ms.dim)).astype(float)
            plan = dataclasses.replace(
                plan, global_centroids=base[np.arange(n_lists) % len(base)]
            )
            wl = dataclasses.replace(
                wl, qvecs=g.integers(-2, 3, wl.qvecs.shape).astype(float)
            )
        nprobe, n_buckets = 7, plan.n_buckets
        routed = route_queries(plan, wl, _params(wl, ms.metric, nprobe=nprobe))
        index = {
            pid: part.index(ms.metric)
            for pid, part in materialize_local(ms, plan).items()
        }
        n_tied = 0
        for q, nearest in self._nearest(plan, wl, ms.metric, nprobe).items():
            scores = pairwise_scores(
                wl.qvecs[q : q + 1], plan.global_centroids, ms.metric
            )[0]
            n_tied += len(set(scores[nearest].tolist())) < nprobe
            probed = []
            rows = routed[routed["qpos"] == q].sort_values("pid")
            for pid, count in rows[["pid", "nprobe"]].values.tolist():
                local = index[pid].nearest_centroids(wl.qvecs[q], count)[0]
                probed += (pid + local * n_buckets).tolist()
            assert probed == sorted(nearest, key=lambda l: l % n_buckets)
        if duplicated:
            assert n_tied == wl.nq

    def test_nprobe_capped_at_list_count(self, plan, ms, ms_load):
        """At full probe every bucket probes all the lists it stores."""
        params = _params(ms_load, ms.metric, nprobe=10**6)
        routed = route_queries(plan, ms_load, params)
        n_lists = len(plan.global_centroids)
        per_q = routed.groupby("qpos")["nprobe"].sum()
        assert (per_q == n_lists).all()
        assert routed["nprobe"].tolist() == [
            len(range(p, n_lists, 4)) for p in routed["pid"].tolist()
        ]


class TestHQIRouting:
    @pytest.fixture(scope="class")
    def kg(self):
        return kg_entities(n=4_000, dim=8, seed=0)

    @pytest.fixture(scope="class")
    def wl(self, kg):
        return relatedqs_workload(kg, n_queries_per_split=150, seed=0)[0]

    def test_m0_routing_is_per_template(self, kg, wl):
        plan = plan_hqi(kg, wl, m=0, min_size=256)
        params = _params(wl, kg.metric)
        routed = route_queries(plan, wl, params)
        # All queries of one template route to the same pid set.
        for tid, grp in routed.groupby("tid"):
            per_q = grp.groupby("qpos")["pid"].apply(frozenset)
            assert per_q.nunique() == 1

    def test_m0_routing_complete(self, kg, wl):
        plan = plan_hqi(kg, wl, m=0, min_size=256)
        params = _params(wl, kg.metric)
        routed = route_queries(plan, wl, params)
        for tid in np.unique(wl.qtemplates):
            pids = set(routed[routed["tid"] == tid]["pid"])
            rows = wl.templates[int(tid)].mask(kg.pdf)
            assert set(plan.pid_of_row[rows]) <= pids

    def test_m_routing_is_subset_of_attribute_routing(self, kg, wl):
        """On the same tree, adding the centroid disjunction (m > 0) can
        only shrink a query's routed partition set — never widen it."""
        plan = plan_hqi(kg, wl, m=10, min_size=256, seed=0)
        tree = plan.tree
        d = pairwise_scores(wl.qvecs, plan.routing_centroids, "l2")
        qc = np.argsort(d, axis=1, kind="stable")[:, :10]
        for qpos in range(0, wl.nq, 13):
            tid = int(wl.qtemplates[qpos])
            atoms = list(wl.templates[tid])
            with_c, without_c = tree.route_groups(
                [
                    tree.group_for(
                        atoms, [In(CENTROID_COL, [int(c)]) for c in qc[qpos]]
                    ),
                    tree.group_for(atoms),
                ]
            )
            assert not (with_c & ~without_c).any()

    @pytest.mark.parametrize("m", [0, 3, 10])
    def test_rows_match_per_query_loop(self, kg, wl, m):
        """The routed rows equal a per-query, per-leaf loop over the leaves'
        semantic descriptions."""
        plan = plan_hqi(kg, wl, m=m, min_size=256, seed=0)
        params, check_nprobe = _template_nprobe(wl, kg.metric)
        routed = route_queries(plan, wl, params)
        check_nprobe(routed)
        tree = plan.tree
        if m:
            d = pairwise_scores(wl.qvecs, plan.routing_centroids, "l2")
            qc = np.sort(np.argsort(d, axis=1, kind="stable")[:, :m], axis=1)

        def pids_of_query(q):
            atoms = list(wl.templates[int(wl.qtemplates[q])])
            centroids = [In(CENTROID_COL, [int(c)]) for c in qc[q]] if m else []
            g = tree.group_for(atoms, centroids)
            return [lf.pid for lf in tree.leaves if scalar_routed(lf.any_true, g)]

        assert _rows(routed) == _loop_rows(wl, pids_of_query, by_template=m == 0)

    def test_selective_template_routes_to_few_partitions(self, kg, wl):
        plan = plan_hqi(kg, wl, m=0, min_size=256)
        params = _params(wl, kg.metric)
        routed = route_queries(plan, wl, params)
        t1 = routed[routed["tid"] == 1].groupby("qpos")["pid"].nunique()
        if len(t1):
            assert t1.iloc[0] <= max(1, plan.n_parts // 2)


class TestEmptyWorkloadRouting:
    def test_empty_routing_frame(self, ms):
        plan = plan_flat(ms, n_buckets=4)
        wl = Workload(
            templates={1: Conjunction()},
            qids=np.empty(0, np.int64),
            qvecs=np.empty((0, ms.dim)),
            qtemplates=np.empty(0, np.int64),
        )
        params = ExecParams(
            k=10, metric=ms.metric, templates=wl.templates,
            nprobe_by_tid={}, qvecs=wl.qvecs,
        )
        routed = route_queries(plan, wl, params)
        assert routed.empty
