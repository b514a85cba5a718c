"""Property-based tests (hypothesis) for the core data structures."""
import duckdb
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import pairwise_scores, topk_rows
from repro.core.ivf import PAD_ID, IVFIndex
from repro.core.kmeans import kmeans
from repro.core.predicates import Cmp, Conjunction, In, NotNull
from repro.core.qdtree import QueryGroup, construct_balanced_qdtree


@st.composite
def frames(draw):
    n = draw(st.integers(5, 40))
    g = np.random.default_rng(draw(st.integers(0, 10_000)))
    pdf = pd.DataFrame(
        {
            "x": np.where(g.random(n) < 0.7, g.integers(0, 5, n).astype(float), np.nan),
            "t": g.choice(["a", "b", "c"], n),
        }
    )
    return pdf


@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(["cmp", "in", "notnull", "conj"]))
    if kind == "cmp":
        return Cmp("x", draw(st.sampled_from(["<", "<=", ">", ">=", "="])),
                   float(draw(st.integers(0, 4))))
    if kind == "in":
        vals = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                             max_size=3, unique=True))
        return In("t", vals)
    if kind == "notnull":
        return NotNull("x")
    return Conjunction([Cmp("x", ">=", 1.0), In("t", ["a", "b"])])


class TestPredicateSqlMaskAgreement:
    @given(frames(), predicates())
    @settings(max_examples=60, deadline=None)
    def test_duckdb_sql_equals_pandas_mask(self, pdf, pred):
        pdf = pdf.assign(_rid=np.arange(len(pdf)))
        con = duckdb.connect()
        try:
            con.register("t", pdf)
            got = con.execute(
                f"SELECT _rid FROM t WHERE {pred.to_sql()} ORDER BY _rid"
            ).fetchdf()["_rid"].tolist()
        finally:
            con.close()
        assert got == pdf["_rid"][pred.mask(pdf)].tolist()


class TestIVFProperties:
    @given(
        st.integers(20, 120),
        st.integers(2, 6),
        st.integers(1, 10),
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_full_probe_equals_brute_force(self, n, d, k, seed):
        g = np.random.default_rng(seed)
        ids = g.permutation(n).astype(np.int64)
        vecs = g.integers(0, 10, (n, d)).astype(float)  # many ties
        idx = IVFIndex.build(ids, vecs, metric="l2", seed=0)
        q = g.integers(0, 10, (3, d)).astype(float)
        got, _ = idx.batch_search(q, k, nprobe=idx.n_lists)
        exp, _ = topk_rows(pairwise_scores(q, vecs, "l2"), ids, k)
        kk = exp.shape[1]
        np.testing.assert_array_equal(got[:, :kk], exp)

    @given(
        st.integers(20, 150),
        st.integers(2, 5),
        st.integers(1, 12),
        st.sampled_from([None, 0.15, 0.0]),
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_search_equals_search_for_same_probes(
        self, n, d, k, keep_frac, seed
    ):
        """Both scan modes return identical ids and scores for the same
        explicit (ragged) probes at every nprobe; queries whose probed
        lists hold fewer than k matching rows, or none, come back padded."""
        g = np.random.default_rng(seed)
        ids = g.permutation(n).astype(np.int64)
        vecs = g.integers(0, 10, (n, d)).astype(float)  # exact scores, ties
        idx = IVFIndex.build(ids, vecs, metric="l2", seed=0)
        mask = None if keep_frac is None else g.random(n) < keep_frac
        q = g.integers(0, 10, (8, d)).astype(float)
        for nprobe in range(1, idx.n_lists + 1):
            nearest = idx.nearest_centroids(q, nprobe)
            probes = [p[: g.integers(0, nprobe + 1)] for p in nearest]
            a_ids, a_sc = idx.search(q, k, nprobe, mask=mask, probes=probes)
            b_ids, b_sc = idx.batch_search(q, k, nprobe, mask=mask, probes=probes)
            np.testing.assert_array_equal(a_ids, b_ids)
            np.testing.assert_array_equal(a_sc, b_sc)
            keep = np.ones(n, dtype=bool) if mask is None else mask
            for qi, p in enumerate(probes):
                n_match = sum(int(keep[idx.list_slice(l)].sum()) for l in p)
                real = b_ids[qi] != PAD_ID
                assert real.sum() == min(k, n_match)
                assert not real[real.sum():].any()
                assert np.isinf(b_sc[qi][~real]).all()

    @given(st.integers(10, 80), st.integers(1, 12), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_kmeans_partitions_points(self, n, k, seed):
        g = np.random.default_rng(seed)
        x = g.random((n, 3))
        centers, labels = kmeans(x, k, seed=seed)
        assert len(labels) == n
        assert labels.min() >= 0 and labels.max() < len(centers)


class TestQDTreeProperties:
    @given(st.integers(30, 200), st.integers(2, 8), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_leaves_always_partition_rows(self, n, n_atoms, seed):
        g = np.random.default_rng(seed)
        matrix = g.random((n, n_atoms)) < g.random(n_atoms)
        atoms = [Cmp(f"c{i}", "=", 1) for i in range(n_atoms)]
        groups = [
            QueryGroup(and_idxs=(i,), weight=g.integers(1, 5))
            for i in range(n_atoms)
        ]
        tree = construct_balanced_qdtree(matrix, atoms, groups, min_size=8)
        all_rows = np.concatenate([lf.row_idx for lf in tree.leaves])
        assert sorted(all_rows.tolist()) == list(range(n))

    @given(st.integers(30, 200), st.integers(2, 6), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_routing_never_misses_matching_rows(self, n, n_atoms, seed):
        g = np.random.default_rng(seed)
        matrix = g.random((n, n_atoms)) < g.random(n_atoms)
        atoms = [Cmp(f"c{i}", "=", 1) for i in range(n_atoms)]
        groups = [QueryGroup(and_idxs=(i,)) for i in range(n_atoms)]
        tree = construct_balanced_qdtree(matrix, atoms, groups, min_size=8)
        for i in range(n_atoms):
            routed = set(tree.route_group(QueryGroup(and_idxs=(i,))))
            for lf in tree.leaves:
                if matrix[lf.row_idx, i].any():
                    assert lf.pid in routed
