"""Unit tests for the IVF index (S4): build, probe, bitmap pushdown,
and the Algorithm 3 batched matmul search."""
import numpy as np
import pytest

from repro.core.distance import pairwise_scores, topk_rows
from repro.core.ivf import PAD_ID, IVFIndex, SearchStats


@pytest.fixture(scope="module")
def data():
    g = np.random.default_rng(42)
    n, d = 2000, 16
    vectors = g.standard_normal((n, d))
    ids = g.permutation(np.arange(10_000, 10_000 + n)).astype(np.int64)
    return ids, vectors


@pytest.fixture(scope="module")
def index(data):
    ids, vectors = data
    return IVFIndex.build(ids, vectors, metric="l2", seed=0)


def list_id_of_rows(idx):
    """Posting-list id of every stored row."""
    return np.repeat(np.arange(idx.n_lists), np.diff(idx.list_offsets))


def brute_force(queries, ids, vectors, metric, k, mask=None):
    if mask is not None:
        ids, vectors = ids[mask], vectors[mask]
    scores = pairwise_scores(queries, vectors, metric)
    return topk_rows(scores, ids, k)


class TestBuild:
    def test_default_sqrt_n_lists(self, index, data):
        assert index.n_lists == int(np.sqrt(len(data[0])))

    def test_all_rows_in_exactly_one_list(self, index, data):
        assert index.n_rows == len(data[0])
        assert sorted(index.ids.tolist()) == sorted(data[0].tolist())
        assert index.list_offsets[0] == 0
        assert index.list_offsets[-1] == index.n_rows

    def test_rows_assigned_to_nearest_centroid(self, index):
        lids = list_id_of_rows(index)
        d = pairwise_scores(index.vectors, index.centroids, "l2")
        np.testing.assert_array_equal(lids, np.argmin(d, axis=1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IVFIndex.build(np.empty(0, np.int64), np.empty((0, 3)), metric="l2")

    def test_from_assignment_roundtrip(self, data):
        ids, vectors = data
        full = IVFIndex.build(ids, vectors, metric="l2", seed=0)
        rebuilt = IVFIndex.from_assignment(
            full.ids, full.vectors, list_id_of_rows(full), full.centroids,
            metric="l2",
        )
        np.testing.assert_array_equal(full.ids, rebuilt.ids)
        np.testing.assert_array_equal(full.list_offsets, rebuilt.list_offsets)

    def test_explicit_n_lists(self, data):
        ids, vectors = data
        idx = IVFIndex.build(ids, vectors, metric="l2", n_lists=7, seed=1)
        assert idx.n_lists == 7


class TestExactnessAtFullProbe:
    """Probing every list must equal brute force — both scan modes."""

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    @pytest.mark.parametrize("mode", ["search", "batch_search"])
    def test_full_probe_equals_brute_force(self, data, metric, mode):
        ids, vectors = data
        idx = IVFIndex.build(ids, vectors, metric=metric, seed=0)
        g = np.random.default_rng(1)
        queries = g.standard_normal((17, vectors.shape[1]))
        got_ids, got_sc = getattr(idx, mode)(queries, 10, nprobe=idx.n_lists)
        exp_ids, exp_sc = brute_force(queries, ids, vectors, metric, 10)
        np.testing.assert_array_equal(got_ids, exp_ids)
        np.testing.assert_allclose(got_sc, exp_sc, atol=1e-9)

    @pytest.mark.parametrize("mode", ["search", "batch_search"])
    def test_full_probe_with_mask_equals_masked_brute_force(self, data, mode):
        ids, vectors = data
        idx = IVFIndex.build(ids, vectors, metric="l2", seed=0)
        g = np.random.default_rng(2)
        keep = g.random(len(ids)) < 0.3
        # Mask is defined over *index row order*; translate via id lookup.
        mask = np.isin(idx.ids, ids[keep])
        queries = g.standard_normal((9, vectors.shape[1]))
        got_ids, _ = getattr(idx, mode)(queries, 5, nprobe=idx.n_lists, mask=mask)
        exp_ids, _ = brute_force(queries, ids, vectors, "l2", 5, mask=keep)
        np.testing.assert_array_equal(got_ids, exp_ids)


class TestModesAgree:
    """search() and batch_search() must return identical results for any
    nprobe — batching is a pure execution-strategy change (§5)."""

    @pytest.mark.parametrize("nprobe", [1, 3, 8, 20])
    def test_results_identical(self, index, nprobe):
        g = np.random.default_rng(3)
        queries = g.standard_normal((25, index.vectors.shape[1]))
        a_ids, a_sc = index.search(queries, 7, nprobe=nprobe)
        b_ids, b_sc = index.batch_search(queries, 7, nprobe=nprobe)
        np.testing.assert_array_equal(a_ids, b_ids)
        np.testing.assert_allclose(a_sc, b_sc, atol=1e-9)

    @pytest.mark.parametrize("nprobe", [2, 10])
    def test_results_identical_with_mask(self, index, nprobe):
        g = np.random.default_rng(4)
        mask = g.random(index.n_rows) < 0.4
        queries = g.standard_normal((12, index.vectors.shape[1]))
        a_ids, _ = index.search(queries, 6, nprobe=nprobe, mask=mask)
        b_ids, _ = index.batch_search(queries, 6, nprobe=nprobe, mask=mask)
        np.testing.assert_array_equal(a_ids, b_ids)


class TestRecallImprovesWithNprobe:
    def test_monotone_recall(self, data):
        ids, vectors = data
        idx = IVFIndex.build(ids, vectors, metric="l2", seed=0)
        g = np.random.default_rng(5)
        queries = g.standard_normal((40, vectors.shape[1]))
        gt, _ = brute_force(queries, ids, vectors, "l2", 10)
        recalls = []
        for nprobe in [1, 4, 16, idx.n_lists]:
            got, _ = idx.batch_search(queries, 10, nprobe=nprobe)
            hits = sum(
                len(set(got[i]) & set(gt[i])) for i in range(len(queries))
            )
            recalls.append(hits / gt.size)
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0
        assert recalls[0] < 1.0  # nprobe=1 misses something at this scale


class TestStats:
    def test_tuples_scanned_counts_probed_lists(self, index):
        q = np.random.default_rng(6).standard_normal((1, index.vectors.shape[1]))
        stats = SearchStats()
        index.search(q, 5, nprobe=3, stats=stats)
        probed = index.nearest_centroids(q, 3)[0]
        expected = sum(
            index.list_offsets[l + 1] - index.list_offsets[l] for l in probed
        )
        assert stats.tuples_scanned == expected

    def test_masked_distance_computations_reduced(self, index):
        g = np.random.default_rng(7)
        q = g.standard_normal((4, index.vectors.shape[1]))
        full, masked = SearchStats(), SearchStats()
        index.search(q, 5, nprobe=4, stats=full)
        mask = g.random(index.n_rows) < 0.2
        index.search(q, 5, nprobe=4, mask=mask, stats=masked)
        assert masked.distance_computations < full.distance_computations
        assert masked.tuples_scanned == full.tuples_scanned  # bitmap still read

    def test_batch_shares_scans_across_queries(self, index):
        """The whole point of Algorithm 3: queries routed to the same
        posting list share one scan of it."""
        g = np.random.default_rng(8)
        base = g.standard_normal(index.vectors.shape[1])
        queries = base + 0.01 * g.standard_normal((50, index.vectors.shape[1]))
        per_query, batched = SearchStats(), SearchStats()
        index.search(queries, 5, nprobe=2, stats=per_query)
        index.batch_search(queries, 5, nprobe=2, stats=batched)
        assert batched.tuples_scanned < per_query.tuples_scanned
        # distance computations are identical work either way
        assert batched.distance_computations == per_query.distance_computations


class TestPadding:
    def test_queries_with_no_candidates_padded(self, index):
        mask = np.zeros(index.n_rows, dtype=bool)  # filter rejects everything
        q = np.zeros((3, index.vectors.shape[1]))
        got_ids, got_sc = index.batch_search(q, 4, nprobe=2, mask=mask)
        assert (got_ids == PAD_ID).all()
        assert np.isinf(got_sc).all()

    def test_partial_fill_padded(self, index):
        # Keep exactly 2 rows; k=5 must yield 2 real results + 3 pads.
        mask = np.zeros(index.n_rows, dtype=bool)
        mask[:2] = True
        q = np.zeros((1, index.vectors.shape[1]))
        got_ids, _ = index.search(q, 5, nprobe=index.n_lists, mask=mask)
        real = got_ids[0][got_ids[0] != PAD_ID]
        assert len(real) == 2
        assert set(real) == set(index.ids[:2])
