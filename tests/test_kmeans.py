"""Unit tests for the seeded numpy k-means (S3)."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import repro.core.kmeans as km
from repro.bench.config import SCALES
from repro.bench.datasets import bigann_lite, bigann_workload
from repro.core.kmeans import assign, kmeans
from repro.exec.strategies import build_index
from repro.index import layout
from repro.kg.entities import kg_entities
from repro.kg.workload import relatedqs_workload


def _blobs(n_per, centers, sigma=0.05, seed=0):
    g = np.random.default_rng(seed)
    pts = np.concatenate(
        [c + sigma * g.standard_normal((n_per, len(c))) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return pts, labels


class TestAssign:
    def test_nearest_center(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        x = np.array([[0.1, 0.2], [9.0, 9.5], [5.1, 5.1]])
        assert assign(x, centers).tolist() == [0, 1, 1]

    def test_single_center(self):
        x = np.random.default_rng(0).random((20, 3))
        assert (assign(x, x[:1]) == 0).all()


class TestKMeans:
    def test_recovers_separated_blobs(self):
        x, true = _blobs(50, [[0, 0], [5, 5], [-5, 5]], seed=1)
        centers, labels = kmeans(x, 3, seed=0)
        # Each true blob must map to exactly one learned cluster.
        for b in range(3):
            assert len(np.unique(labels[true == b])) == 1
        assert len(np.unique(labels)) == 3

    def test_deterministic_in_seed(self):
        x = np.random.default_rng(2).random((200, 8))
        c1, l1 = kmeans(x, 10, seed=7)
        c2, l2 = kmeans(x, 10, seed=7)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(c1, c2)

    def test_k_capped_at_n(self):
        x = np.random.default_rng(3).random((5, 2))
        centers, labels = kmeans(x, 50, seed=0)
        assert len(centers) == 5
        assert sorted(np.unique(labels)) == list(range(5))

    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_labels_match_assign(self, k):
        x = np.random.default_rng(4).random((300, 6))
        centers, labels = kmeans(x, k, seed=0)
        np.testing.assert_array_equal(labels, assign(x, centers))

    def test_no_empty_clusters_on_duplicates(self):
        # All-identical points: k-means must not crash, and must still
        # return k centers with valid labels.
        x = np.ones((100, 4))
        centers, labels = kmeans(x, 8, seed=0)
        assert centers.shape == (8, 4)
        assert ((labels >= 0) & (labels < 8)).all()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 3)), 2)

    def test_inertia_not_worse_than_random_labels(self):
        x = np.random.default_rng(5).random((400, 5))
        centers, labels = kmeans(x, 20, seed=0)
        inertia = ((x - centers[labels]) ** 2).sum()
        g = np.random.default_rng(6)
        rnd = g.integers(0, 20, len(x))
        rnd_centers = np.stack([x[rnd == j].mean(axis=0) for j in range(20)])
        rnd_inertia = ((x - rnd_centers[rnd]) ** 2).sum()
        assert inertia < rnd_inertia


# --------------------------------------------------- row-blocked kernels
# The unblocked kernels as they were before assignment, seeding and the
# empty-cluster reseed went to row blocks. The blocked kernels must
# reproduce their centers and labels bit for bit.
def _old_kmeanspp_init(x, k, rng):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i:] = x[rng.integers(n, size=k - i)]
            break
        probs = d2 / total
        centers[i] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1))
    return centers


def _old_assign(x, centers):
    x = np.ascontiguousarray(x, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    d = -2.0 * (x @ centers.T) + (centers**2).sum(axis=1)[None, :]
    return np.argmin(d, axis=1)


def old_kmeans(x, k, *, seed=0, n_iter=15):
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("kmeans on empty input")
    k = max(1, min(int(k), n))
    rng = np.random.default_rng(seed)
    centers = _old_kmeanspp_init(x, k, rng)
    labels = _old_assign(x, centers)
    for _ in range(n_iter):
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, x)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        empty = counts == 0
        if empty.any():
            d2 = ((x - centers[labels]) ** 2).sum(axis=1)
            far = np.argsort(-d2)[: int(empty.sum())]
            centers[empty] = x[far]
            counts[empty] = 1.0
            sums[empty] = x[far]
        centers = sums / counts[:, None]
        new_labels = _old_assign(x, centers)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return centers, labels


def _dups(n_distinct, reps, d, seed):
    g = np.random.default_rng(seed)
    x = np.repeat(g.standard_normal((n_distinct, d)), reps, axis=0)
    return x[g.permutation(len(x))]


_g = np.random.default_rng(12)
# (x, k). Tie-heavy inputs stay under 2**18 multiply-adds per product, so
# the oracle's one product over all rows runs on one BLAS thread too.
BIT_CASES = {
    "n_not_block_multiple": (_g.standard_normal((3001, 2)), 40),
    "n_block_multiple_plus_one": (_g.standard_normal((1601, 2)), 40),
    "n_below_one_block": (_g.standard_normal((50, 5)), 4),
    "k_1": (_g.standard_normal((500, 4)), 1),
    "k_at_least_n": (_g.standard_normal((12, 3)), 30),
    "d_1": (_g.standard_normal((2000, 1)), 44),
    "all_identical": (np.ones((64, 4)), 8),
    "duplicates_reseed": (_dups(6, 50, 4, seed=13), 20),
    "duplicates_reseed_blocks": (_dups(50, 40, 2, seed=14), 60),
}


@pytest.fixture(params=["default", "smallest"])
def cells(request):
    """The default block budget, and one cell: the smallest block,
    ``_ROW_ALIGN`` rows."""
    value = km._KMEANS_CELLS if request.param == "default" else 1
    with mock.patch.object(km, "_KMEANS_CELLS", value):
        yield value


class TestRowBlockedBitIdentity:
    @pytest.mark.parametrize("case", sorted(BIT_CASES))
    def test_kmeans_matches_unblocked(self, case, cells):
        x, k = BIT_CASES[case]
        exp_c, exp_l = old_kmeans(x, k, seed=5)
        got_c, got_l = kmeans(x, k, seed=5)
        assert got_c.tobytes() == exp_c.tobytes()
        np.testing.assert_array_equal(got_l, exp_l)
        assert got_l.dtype == exp_l.dtype

    @pytest.mark.parametrize("case", sorted(BIT_CASES))
    def test_seeding_and_assign_match_unblocked(self, case, cells):
        x, k = BIT_CASES[case]
        k = min(k, len(x))
        exp = _old_kmeanspp_init(x, k, np.random.default_rng(3))
        got = km._kmeanspp_init(x, k, np.random.default_rng(3))
        assert got.tobytes() == exp.tobytes()
        np.testing.assert_array_equal(assign(x, got), _old_assign(x, exp))

    @pytest.mark.parametrize("d", [3, 20, 130])
    def test_sq_dist_matches_unblocked(self, d, cells):
        g = np.random.default_rng(d)
        x = g.standard_normal((1001, d))
        centers = g.standard_normal((7, d))
        labels = g.integers(0, 7, len(x))
        got = np.empty(len(x))
        km._sq_dist(x, centers[2], got)
        assert got.tobytes() == ((x - centers[2]) ** 2).sum(axis=1).tobytes()
        km._sq_dist(x, centers, got, labels)
        assert got.tobytes() == ((x - centers[labels]) ** 2).sum(axis=1).tobytes()

    def test_duplicate_inputs_reach_the_reseed(self):
        for case in ("duplicates_reseed", "duplicates_reseed_blocks"):
            x, k = BIT_CASES[case]
            init = _old_kmeanspp_init(x, k, np.random.default_rng(5))
            assert (np.bincount(_old_assign(x, init), minlength=k) == 0).any()

    def test_default_budget_splits_the_block_cases(self):
        for case in ("n_not_block_multiple", "duplicates_reseed_blocks"):
            x, k = BIT_CASES[case]
            assert len(km._row_blocks(len(x), k)[1]) > 1

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33, 1000])
    @pytest.mark.parametrize("width", [1, 7, 64, 5000])
    def test_row_blocks(self, n, width, cells):
        rows, blocks = km._row_blocks(n, width)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(b0[1] == b1[0] for b0, b1 in zip(blocks, blocks[1:]))
        assert all(a % km._ROW_ALIGN == 0 for a, _ in blocks)
        assert rows == max(b - a for a, b in blocks)
        assert n == 1 or min(b - a for a, b in blocks) > 1
        step = max(km._ROW_ALIGN, cells // width // km._ROW_ALIGN * km._ROW_ALIGN)
        assert rows <= step + 1


class TestMemoryBound:
    """A single 20 000 x 200 float64 distance matrix is 32 MB."""

    x = np.random.default_rng(15).standard_normal((20_000, 16))

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_assign_peak(self):
        centers = self.x[:200].copy()
        assert self._peak(lambda: assign(self.x, centers)) < 4 << 20

    def test_kmeans_peak(self):
        assert self._peak(lambda: kmeans(self.x, 200, seed=0)) < 8 << 20


def _build_rows(approach, dataset, workload, **kw):
    built = build_index(approach, dataset, workload, **kw)
    rows = [built.parts[pid].pack() for pid in sorted(built.parts)]
    plan = built.plan
    fields = ("pid_of_row", "global_centroids", "routing_centroids", "list_of_row")
    return rows, {
        f: None if getattr(plan, f) is None else getattr(plan, f).tobytes()
        for f in fields
    }


class TestBuildIdentity:
    """Every layout trains through ``layout.kmeans``: the indexes built
    with the blocked kernels equal those built with the unblocked ones."""

    @pytest.mark.parametrize("case", ["hqi-msturing", "hqi-m2-kg", "prefilter-kg"])
    def test_built_index_is_byte_identical(self, case):
        s = SCALES["test"]
        if case == "hqi-msturing":
            ds = bigann_lite("msturing", n=s.bigann_n, seed=0)
            args = ("hqi", ds, bigann_workload(ds, nq=s.bigann_nq, seed=1))
        else:
            ds = kg_entities(n=s.kg_n, dim=s.kg_dim, seed=0)
            wl = relatedqs_workload(ds, n_queries_per_split=s.relatedqs_per_split, seed=0)[0]
            args = ("hqi", ds, wl) if case == "hqi-m2-kg" else ("prefilter", ds, None)
        kw = dict(min_size=s.min_size, n_buckets=s.n_buckets, m=2 if case == "hqi-m2-kg" else 0)
        got_rows, got_plan = _build_rows(*args, **kw)
        with mock.patch.object(layout, "kmeans", old_kmeans):
            exp_rows, exp_plan = _build_rows(*args, **kw)
        assert got_plan == exp_plan
        if case == "hqi-m2-kg":
            assert got_plan["routing_centroids"] is not None
        assert len(got_rows) == len(exp_rows)
        for got, exp in zip(got_rows, exp_rows):
            assert got == exp
