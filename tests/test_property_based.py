"""Property-based tests (hypothesis) for the core data structures."""
from unittest import mock

import duckdb
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import pairwise_scores, topk_rows
from repro.core import ivf
from repro.core.ivf import PAD_ID, IVFIndex, SearchStats
from repro.core.kmeans import kmeans
from repro.core.predicates import Cmp, Conjunction, In, NotNull, dictionary_encode
from repro.core.qdtree import Leaf, QueryGroup, construct_balanced_qdtree


@st.composite
def frames(draw):
    n = draw(st.integers(5, 40))
    g = np.random.default_rng(draw(st.integers(0, 10_000)))
    t = g.choice(["a", "b", "c"], n).astype(object)
    # String NULLs: none, some, or all of the column.
    t[g.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = None
    pdf = pd.DataFrame(
        {
            "x": np.where(g.random(n) < 0.7, g.integers(0, 5, n).astype(float), np.nan),
            "t": t,
            "i": g.integers(0, 5, n),
        }
    )
    return pdf


# String literals: "bb" and "z" never occur in a drawn frame, and "bb"
# sorts between the present values "b" and "c".
_STRINGS = ["a", "b", "bb", "c", "z"]


@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(["cmp", "in", "notnull", "conj", "str", "int"]))
    if kind == "cmp":
        return Cmp("x", draw(st.sampled_from(["<", "<=", ">", ">=", "="])),
                   float(draw(st.integers(0, 4))))
    if kind == "in":
        vals = draw(st.lists(st.sampled_from(_STRINGS), min_size=1,
                             max_size=3, unique=True))
        return In("t", vals)
    if kind == "notnull":
        return NotNull(draw(st.sampled_from(["x", "t"])))
    if kind == "str":
        return Cmp("t", draw(st.sampled_from(["<", "<=", ">", ">=", "="])),
                   draw(st.sampled_from(_STRINGS)))
    if kind == "int":
        if draw(st.booleans()):
            return Cmp("i", draw(st.sampled_from(["<", ">=", "="])),
                       draw(st.integers(0, 5)))
        return In("i", draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)))
    return Conjunction([Cmp("x", ">=", 1.0), In("t", ["a", "b"])])


class TestPredicateSqlMaskAgreement:
    @given(frames(), predicates())
    @settings(max_examples=150, deadline=None)
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
        # The dictionary-encoded frame an index partition holds selects the
        # same rows as DuckDB over the raw frame.
        assert got == pdf["_rid"][pred.mask(dictionary_encode(pdf))].tolist()


def nearest_lists(idx, queries, counts):
    """Reference probe choice: query i's ``counts[i]`` nearest lists, by
    (centroid score, list id), one query at a time."""
    scores = pairwise_scores(queries, idx.centroids, idx.metric).tolist()
    return [
        sorted(range(idx.n_lists), key=lambda l: (row[l], l))[:c]
        for row, c in zip(scores, counts)
    ]


def per_query_scan(idx, queries, k, probes, mask):
    """Reference for ``IVFIndex.search``: scans one (query, posting list)
    pair at a time and selects each query's top-k on its own."""
    nq = len(queries)
    stats = SearchStats()
    out_ids = np.full((nq, k), PAD_ID, dtype=np.int64)
    out_scores = np.full((nq, k), np.inf)
    for qi in range(nq):
        cand_rows = []
        for l in probes[qi]:
            lo, hi = idx.list_offsets[l], idx.list_offsets[l + 1]
            stats.tuples_scanned += int(hi - lo)
            rows = np.arange(lo, hi)
            if mask is not None:
                rows = rows[mask[lo:hi]]
            if len(rows):
                cand_rows.append(rows)
        if not cand_rows:
            continue
        rows = np.concatenate(cand_rows)
        scores = pairwise_scores(queries[qi : qi + 1], idx.vectors[rows], idx.metric)
        stats.distance_computations += len(rows)
        tid, tsc = topk_rows(scores, idx.ids[rows], k)
        out_ids[qi, : tid.shape[1]] = tid[0]
        out_scores[qi, : tsc.shape[1]] = tsc[0]
    return out_ids, out_scores, stats


class TestIVFProperties:
    @given(
        st.integers(1, 120),
        st.integers(1, 10),
        st.integers(1, 9),
        st.integers(1, 15),
        st.sampled_from([None, "all", "sparse", "none"]),
        st.sampled_from(["l2", "ip"]),
        st.booleans(),
        st.sampled_from([1 << 20, 40, 7, 1]),
        st.booleans(),
        st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_search_equals_per_query_reference(
        self, n, n_lists, nq, k, mask_kind, metric, ragged, cells, batched,
        seed,
    ):
        """``search`` and ``batch_search`` return the per-(query, list)
        reference's ids and scores bit for bit: one nprobe for all queries
        or ragged per-query counts (0, and above ``n_lists``, included),
        probes ordered by (centroid score, list id) with exact centroid
        ties, empty posting lists, all / sparse / no rows passing the mask,
        k above the candidate count, and candidate buffers split into
        several chunks. ``search`` counts the reference's work;
        ``batch_search`` computes the same distances but visits each
        distinct probed list once. Its matmul blocks sum in another order
        than one score row per query, so it is compared on integer-valued
        vectors and queries, whose scores are exact."""
        g = np.random.default_rng(seed)
        d = 3
        ids = (g.permutation(n) + 1000).astype(np.int64)
        integer = batched or g.random() < 0.5
        if integer:
            vecs = g.integers(0, 5, (n, d)).astype(float)  # score ties
            # Repeated centroids: probe order falls back to the list id.
            centroids = g.integers(-1, 2, (n_lists, d)).astype(float)
        else:
            vecs = g.standard_normal((n, d))
            centroids = g.standard_normal((n_lists, d))
        # Rows go to a subset of the lists; the others stay empty.
        used = g.choice(n_lists, size=g.integers(1, n_lists + 1), replace=False)
        idx = IVFIndex.from_assignment(
            ids, vecs, g.choice(used, n), centroids, metric=metric
        )
        mask = {
            None: None,
            "all": np.ones(n, dtype=bool),
            "sparse": g.random(n) < 0.1,
            "none": np.zeros(n, dtype=bool),
        }[mask_kind]
        if batched:
            q = g.integers(-4, 5, (nq, d)).astype(float)
        else:
            q = g.standard_normal((nq, d))
        if ragged:
            nprobe = g.integers(0, n_lists + 3, nq)
        else:
            nprobe = int(g.integers(1, n_lists + 1))
        probes = nearest_lists(idx, q, np.broadcast_to(nprobe, nq))
        exp_ids, exp_sc, exp_stats = per_query_scan(idx, q, k, probes, mask)
        if batched:
            probed = np.unique(np.concatenate([[], *probes]).astype(np.int64))
            exp_stats.tuples_scanned = int(np.diff(idx.list_offsets)[probed].sum())
        scan = idx.batch_search if batched else idx.search
        stats = SearchStats()
        with mock.patch.object(ivf, "_TOPK_CELLS", cells):
            got_ids, got_sc = scan(q, k, nprobe, mask=mask, stats=stats)
        np.testing.assert_array_equal(got_ids, exp_ids)
        np.testing.assert_array_equal(got_sc, exp_sc)
        assert stats == exp_stats

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
        ragged per-query counts (0, and above ``n_lists``, included) up to
        every nprobe; queries whose probed lists hold fewer than k matching
        rows, or none, come back padded."""
        g = np.random.default_rng(seed)
        ids = g.permutation(n).astype(np.int64)
        vecs = g.integers(0, 10, (n, d)).astype(float)  # exact scores, ties
        idx = IVFIndex.build(ids, vecs, metric="l2", seed=0)
        mask = None if keep_frac is None else g.random(n) < keep_frac
        q = g.integers(0, 10, (8, d)).astype(float)
        for nprobe in range(1, idx.n_lists + 3):
            counts = g.integers(0, nprobe + 1, len(q))
            a_ids, a_sc = idx.search(q, k, counts, mask=mask)
            b_ids, b_sc = idx.batch_search(q, k, counts, mask=mask)
            np.testing.assert_array_equal(a_ids, b_ids)
            np.testing.assert_array_equal(a_sc, b_sc)
            keep = np.ones(n, dtype=bool) if mask is None else mask
            for qi, p in enumerate(nearest_lists(idx, q, counts)):
                n_match = sum(
                    int(keep[idx.list_offsets[l] : idx.list_offsets[l + 1]].sum())
                    for l in p
                )
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


def scalar_routed(any_true: np.ndarray, g: QueryGroup) -> bool:
    """Does a partition with satisfiability bits ``any_true`` subsume g?
    One (partition, group) pair at a time: the oracle for ``subsumes``."""
    for j in g.and_idxs:
        if not any_true[j]:
            return False
    if g.or_idxs:
        return any(any_true[j] for j in g.or_idxs)
    return True


def scalar_qdtree(matrix: np.ndarray, groups: list, min_size: int):
    """Algorithms 1–2, one candidate cut and one group at a time. Returns
    the tree as nested ``(split atom idxs, left, right)`` tuples, each leaf
    its sorted row list."""

    def build(rows, node_groups):
        if len(rows) <= min_size or not node_groups:
            return sorted(rows.tolist())
        sub = matrix[rows]
        any_t, all_t = sub.any(axis=0), sub.all(axis=0)
        cand = sorted(
            {
                j
                for g in node_groups
                for j in (*g.and_idxs, *g.or_idxs)
                if any_t[j] and not all_t[j]
            }
        )
        if not cand:
            return sorted(rows.tolist())
        split, union = [], np.zeros(len(rows), dtype=bool)
        while union.sum() * 2 <= len(rows) and cand:
            best = None  # ((cost, -|L|, atom idx), atom idx, new union)
            for j in cand:
                u = union | sub[:, j]
                n_l = int(u.sum())
                if n_l == len(rows):
                    continue  # degenerate: right side would be empty
                l_bits, r_bits = sub[u].any(axis=0), sub[~u].any(axis=0)
                cost = sum(
                    g.weight * (scalar_routed(l_bits, g) + scalar_routed(r_bits, g))
                    for g in node_groups
                )
                if best is None or (cost, -n_l, j) < best[0]:
                    best = ((cost, -n_l, j), j, u)
            if best is None:
                break
            _, j, union = best
            cand.remove(j)
            split.append(j)
        if union.sum() in (0, len(rows)):
            return sorted(rows.tolist())
        l_bits, r_bits = sub[union].any(axis=0), sub[~union].any(axis=0)
        return (
            tuple(split),
            build(rows[union], [g for g in node_groups if scalar_routed(l_bits, g)]),
            build(rows[~union], [g for g in node_groups if scalar_routed(r_bits, g)]),
        )

    return build(np.arange(len(matrix)), list(groups))


def tree_shape(tree):
    """A built tree in ``scalar_qdtree``'s nested form."""
    idx = {a: i for i, a in enumerate(tree.atoms)}

    def walk(node):
        if isinstance(node, Leaf):
            return sorted(node.row_idx.tolist())
        return (
            tuple(idx[a] for a in node.split_atoms),
            walk(node.left),
            walk(node.right),
        )

    return walk(tree.root)


@st.composite
def centroid_workloads(draw):
    """An atom matrix and the weighted groups HQI builds at m > 0.
    Attribute columns, then a one-hot routing-centroid block (its columns
    cover every row, so accumulating them can empty the right side), then
    a copy and the complement of column 0 (so equal-cost cuts tie)."""
    g = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.integers(10, 120))
    n_attr, n_cent = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    m = draw(st.integers(0, min(3, n_cent)))
    attr = g.random((n, n_attr)) < g.random(n_attr)
    cent = g.integers(0, max(n_cent, 1), n)[:, None] == np.arange(n_cent)
    matrix = np.column_stack([attr, cent, attr[:, 0], ~attr[:, 0]])
    and_cols = [*range(n_attr), n_attr + n_cent, n_attr + n_cent + 1]
    groups = [
        QueryGroup(
            and_idxs=tuple(j for j in and_cols if g.random() < 0.3),
            or_idxs=tuple(sorted(n_attr + g.choice(n_cent, m, replace=False))),
            weight=int(g.integers(1, 4)),
        )
        for _ in range(draw(st.integers(1, 12)))
    ]
    return matrix, groups, draw(st.sampled_from([1, 3, 10]))


class TestQDTreeProperties:
    @given(centroid_workloads())
    @settings(max_examples=80, deadline=None)
    def test_build_equals_scalar_algorithm(self, case):
        """The matrix build picks the scalar Algorithm 1–2's cuts: equal
        split atoms and equal leaf row sets, ties and degenerate cuts too."""
        matrix, groups, min_size = case
        atoms = [Cmp(f"c{i}", "=", 1) for i in range(matrix.shape[1])]
        tree = construct_balanced_qdtree(matrix, atoms, groups, min_size=min_size)
        assert tree_shape(tree) == scalar_qdtree(matrix, groups, min_size)

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
        routed = tree.route_groups(groups)
        for i in range(n_atoms):
            for lf in tree.leaves:
                if matrix[lf.row_idx, i].any():
                    assert routed[i, lf.pid]

    @given(st.integers(30, 200), st.integers(1, 8), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_route_groups_equals_per_leaf_loop(self, n, n_atoms, seed):
        """``route_groups`` routes every group as ``scalar_routed`` does
        leaf by leaf: AND atoms all satisfiable, and some OR atom when any."""
        g = np.random.default_rng(seed)
        matrix = g.random((n, n_atoms)) < g.random(n_atoms) / 2
        atoms = [Cmp(f"c{i}", "=", 1) for i in range(n_atoms)]
        groups = [
            QueryGroup(
                and_idxs=tuple(np.flatnonzero(g.random(n_atoms) < 0.3).tolist()),
                or_idxs=tuple(np.flatnonzero(g.random(n_atoms) < 0.3).tolist()),
            )
            for _ in range(20)
        ]
        tree = construct_balanced_qdtree(matrix, atoms, groups, min_size=8)
        expected = [
            [scalar_routed(lf.any_true, grp) for lf in tree.leaves] for grp in groups
        ]
        np.testing.assert_array_equal(tree.route_groups(groups), expected)
        assert tree.route_groups([]).shape == (0, tree.n_leaves)
