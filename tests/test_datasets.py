"""Tests for the synthetic substrates: KG entities/workloads (S11, S12)
and BIGANN-lite (S13)."""
import numpy as np
import pytest

from repro.bench.datasets import (
    SPECS,
    bigann_lite,
    bigann_workload,
    range_filter_templates,
)
from repro.kg.entities import ATTR_COLS, TYPE_SHARES, kg_entities
from repro.kg.workload import (
    TABLE1_SELECTIVITY_BOUNDS,
    TABLE1_SHARES,
    lp_workload,
    relatedqs_templates,
    relatedqs_workload,
)


@pytest.fixture(scope="module")
def kg():
    return kg_entities(n=20_000, dim=8, seed=0)


@pytest.fixture(scope="module")
def splits(kg):
    return relatedqs_workload(kg, n_queries_per_split=600, seed=0)


class TestKGEntities:
    def test_shape_and_columns(self, kg):
        assert kg.n == 20_000
        assert kg.dim == 8
        assert kg.metric == "ip"
        assert list(kg.pdf.columns) == ["id", "vec", *ATTR_COLS]

    def test_deterministic(self):
        a = kg_entities(n=500, dim=4, seed=3)
        b = kg_entities(n=500, dim=4, seed=3)
        assert a.pdf["etype"].tolist() == b.pdf["etype"].tolist()
        np.testing.assert_array_equal(a.vecs(), b.vecs())

    def test_type_shares_approximate(self, kg):
        counts = kg.pdf["etype"].value_counts(normalize=True)
        for t, share in TYPE_SHARES.items():
            assert abs(counts.get(t, 0.0) - share) < 0.02

    def test_vectors_normalized(self, kg):
        norms = np.linalg.norm(kg.vecs(), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_embeddings_cluster_by_type(self, kg):
        """Same-type entities must be more similar on average than
        cross-type — the correlation HQI's index design exploits."""
        vecs, types = kg.vecs(), kg.pdf["etype"].to_numpy()
        g = np.random.default_rng(0)
        rows = g.choice(len(vecs), 500, replace=False)
        sims = vecs[rows] @ vecs[rows].T
        same = types[rows][:, None] == types[rows][None, :]
        np.fill_diagonal(same, False)
        off_diag = ~np.eye(len(rows), dtype=bool)
        assert sims[same].mean() > sims[off_diag & ~same].mean() + 0.04

    def test_attribute_presence_correlates_with_type(self, kg):
        pdf = kg.pdf
        # height exists only for persons
        assert pdf.loc[pdf["height"].notna(), "etype"].eq("person").all()
        # popularity exists across all types
        assert pdf.loc[pdf["popularity"].notna(), "etype"].nunique() > 5

    def test_min_feasible_floor(self):
        small = kg_entities(n=2_000, dim=4, seed=1)
        t = relatedqs_templates()[1]  # rarest template
        assert t.mask(small.pdf).sum() >= 20  # ~24 modulo sampling noise


class TestRelatedQSWorkload:
    def test_four_splits(self, splits):
        assert len(splits) == 4
        assert all(w.nq == 600 for w in splits)

    def test_qids_globally_unique(self, splits):
        all_qids = np.concatenate([w.qids for w in splits])
        assert len(np.unique(all_qids)) == len(all_qids)

    def test_template_shares_follow_table1(self, splits):
        """Filter commonality/stability: realized shares track Table 1."""
        for s, w in enumerate(splits):
            shares = TABLE1_SHARES[:, s] / TABLE1_SHARES[:, s].sum()
            counts = w.template_counts()
            for tid in range(1, 11):
                realized = counts.get(tid, 0) / w.nq
                assert abs(realized - shares[tid - 1]) < 0.06

    def test_selectivities_ordered_as_table1(self, kg):
        templates = relatedqs_templates()
        sels = [templates[t].mask(kg.pdf).mean() for t in range(1, 11)]
        # T1 lowest; T8-T10 the three highest, T10 ~60%.
        assert np.argmin(sels) == 0
        assert set(np.argsort(sels)[-3:]) == {7, 8, 9}
        assert 0.4 < sels[9] < 0.8
        for t, bound in enumerate(TABLE1_SELECTIVITY_BOUNDS):
            if t >= 1:  # T1 is floored at reproduction scale (DESIGN.md)
                assert sels[t] <= bound * 1.8

    def test_query_vectors_match_satisfying_entities(self, kg, splits):
        """Each query vector must be the embedding of some entity that
        satisfies the query's template (the paper's construction)."""
        w = splits[0]
        vecs = kg.vecs()
        for qpos in range(0, w.nq, 97):
            tid = int(w.qtemplates[qpos])
            rows = np.flatnonzero(w.templates[tid].mask(kg.pdf))
            diffs = np.abs(vecs[rows] - w.qvecs[qpos]).sum(axis=1)
            assert diffs.min() < 1e-12

    def test_deterministic(self, kg):
        a = relatedqs_workload(kg, n_queries_per_split=50, seed=5)
        b = relatedqs_workload(kg, n_queries_per_split=50, seed=5)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.qtemplates, wb.qtemplates)
            np.testing.assert_array_equal(wa.qvecs, wb.qvecs)


class TestLPWorkload:
    def test_templates_are_type_equalities(self, kg):
        w = lp_workload(kg, n_queries=300, seed=0)
        assert w.nq == 300
        for t in w.templates.values():
            assert len(t) == 1
            assert t.preds[0].attr == "etype"

    def test_all_templates_feasible(self, kg):
        w = lp_workload(kg, n_queries=300, seed=0)
        for tid in np.unique(w.qtemplates):
            assert w.templates[int(tid)].mask(kg.pdf).sum() > 0


class TestBigannLite:
    @pytest.mark.parametrize("name", list(SPECS))
    def test_dims_and_metric_match_table2(self, name):
        ds = bigann_lite(name, n=1000, seed=0)
        spec = SPECS[name]
        assert ds.dim == spec.dim
        assert ds.metric == spec.metric
        assert ds.attr_cols == ["A", "B"]

    def test_sift_uint8_range(self):
        ds = bigann_lite("sift", n=2000, seed=0)
        v = ds.vecs()
        assert v.min() >= 0 and v.max() <= 255
        assert np.array_equal(v, np.round(v))

    def test_yandex_normalized_for_ip(self):
        ds = bigann_lite("yandext2i", n=500, seed=0)
        np.testing.assert_allclose(
            np.linalg.norm(ds.vecs(), axis=1), 1.0, atol=1e-9
        )

    def test_attrs_uniform(self):
        ds = bigann_lite("msturing", n=5000, seed=0)
        for c in ("A", "B"):
            v = ds.pdf[c]
            assert 0 <= v.min() and v.max() <= 1
            assert abs(v.mean() - 0.5) < 0.03

    def test_filter_selectivity_ladder(self):
        """Template i must select ~2^-i of the rows (§6.1)."""
        ds = bigann_lite("msturing", n=50_000, seed=0)
        templates = range_filter_templates()
        for i in range(10):
            for tid in (i + 1, i + 11):
                sel = templates[tid].mask(ds.pdf).mean()
                assert abs(sel - 2.0**-i) < max(0.02, 0.3 * 2.0**-i)

    def test_workload_is_cartesian_product(self):
        ds = bigann_lite("msturing", n=1000, seed=0)
        w = bigann_workload(ds, nq=30, seed=1)
        assert w.nq == 600  # 20 filters x 30 vectors
        counts = w.template_counts()
        assert all(counts[t] == 30 for t in range(1, 21))
        # Same 30 vectors repeated for every filter.
        np.testing.assert_array_equal(w.qvecs[:30], w.qvecs[30:60])
