"""Unit tests for the distance kernels and top-k selection."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distance import pairwise_scores, topk_rows
from repro.core.ivf import PAD_ID


class TestPairwiseScores:
    def test_l2_matches_naive(self):
        g = np.random.default_rng(0)
        q, x = g.random((5, 7)), g.random((11, 7))
        got = pairwise_scores(q, x, "l2")
        naive = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(got, naive, atol=1e-9)

    def test_ip_matches_naive(self):
        g = np.random.default_rng(1)
        q, x = g.random((4, 6)), g.random((9, 6))
        np.testing.assert_allclose(
            pairwise_scores(q, x, "ip"), -(q @ x.T), atol=1e-12
        )

    def test_l2_exact_on_integer_vectors(self):
        # Integer-valued vectors give exactly-representable squared L2 —
        # the property the DuckDB oracle tests rely on.
        g = np.random.default_rng(2)
        q = g.integers(0, 50, (3, 8)).astype(float)
        x = g.integers(0, 50, (6, 8)).astype(float)
        s = pairwise_scores(q, x, "l2")
        assert np.array_equal(s, np.round(s))

    def test_self_distance_zero(self):
        x = np.random.default_rng(3).random((10, 4))
        np.testing.assert_allclose(
            np.diag(pairwise_scores(x, x, "l2")), 0.0, atol=1e-9
        )

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            pairwise_scores(np.zeros((1, 2)), np.zeros((1, 2)), "cosine")

    def test_ip_smaller_is_more_similar(self):
        q = np.array([[1.0, 0.0]])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = pairwise_scores(q, x, "ip")[0]
        assert s[0] < s[1]  # aligned vector scores lower (better)


class TestTopkRows:
    def test_basic(self):
        scores = np.array([[3.0, 1.0, 2.0]])
        ids = np.array([10, 20, 30])
        tid, tsc = topk_rows(scores, ids, 2)
        assert tid.tolist() == [[20, 30]]
        assert tsc.tolist() == [[1.0, 2.0]]

    def test_tie_broken_by_id(self):
        scores = np.array([[1.0, 1.0, 1.0, 0.5]])
        ids = np.array([30, 10, 20, 99])
        tid, _ = topk_rows(scores, ids, 3)
        assert tid.tolist() == [[99, 10, 20]]

    def test_k_larger_than_n(self):
        scores = np.array([[2.0, 1.0]])
        ids = np.array([1, 2])
        tid, tsc = topk_rows(scores, ids, 10)
        assert tid.shape == (1, 2)
        assert tid.tolist() == [[2, 1]]

    def test_k_zero(self):
        tid, tsc = topk_rows(np.ones((2, 3)), np.arange(3), 0)
        assert tid.shape == (2, 0)

    def test_multiple_rows_independent(self):
        scores = np.array([[1.0, 2.0], [2.0, 1.0]])
        ids = np.array([7, 8])
        tid, _ = topk_rows(scores, ids, 1)
        assert tid.tolist() == [[7], [8]]

    @given(
        st.integers(1, 6),
        st.integers(1, 30),
        st.integers(1, 12),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_sorted_reference(self, nq, n, k, seed):
        g = np.random.default_rng(seed)
        scores = g.integers(0, 8, (nq, n)).astype(float)  # many ties
        ids = g.permutation(n).astype(np.int64)
        tid, tsc = topk_rows(scores, ids, k)
        for r in range(nq):
            ref = sorted(zip(scores[r], ids), key=lambda t: (t[0], t[1]))
            ref = ref[: min(k, n)]
            assert tid[r].tolist() == [i for _, i in ref]
            assert tsc[r].tolist() == [s for s, _ in ref]

    @given(
        st.integers(1, 5),
        st.integers(1, 25),
        st.integers(1, 30),
        st.booleans(),
        st.integers(0, 10_000),
    )
    @example(nq=1, n=12, k=12, per_row_ids=False, seed=0)  # k = n
    @example(nq=1, n=5, k=9, per_row_ids=True, seed=1)  # k > n
    @example(nq=3, n=20, k=4, per_row_ids=True, seed=2)
    @settings(max_examples=80, deadline=None)
    def test_boundary_ties_match_sorted_reference(self, nq, n, k, per_row_ids, seed):
        """Float scores whose k-th value repeats on both sides of the
        selection boundary, so rows take the two-key fallback sort."""
        g = np.random.default_rng(seed)
        scores = g.random((nq, n))
        kth = np.sort(scores, axis=1)[:, min(k, n) - 1]
        scores = np.where(g.random((nq, n)) < 0.3, kth[:, None], scores)
        if per_row_ids:
            ids = np.stack([g.permutation(n) for _ in range(nq)]).astype(np.int64)
        else:
            ids = g.permutation(n).astype(np.int64)
        tid, tsc = topk_rows(scores, ids, k)
        assert tid.shape == tsc.shape == (nq, min(k, n))
        for r in range(nq):
            row_ids = ids[r] if per_row_ids else ids
            ref = sorted(zip(scores[r], row_ids))[: min(k, n)]
            assert tid[r].tolist() == [i for _, i in ref]
            assert tsc[r].tolist() == [s for s, _ in ref]

    def test_padding_sorts_last(self):
        # Candidate buffers fill empty slots with (PAD_ID, inf).
        scores = np.array([[0.5, np.inf, 0.1, np.inf]])
        ids = np.array([[5, PAD_ID, 6, PAD_ID]])
        tid, tsc = topk_rows(scores, ids, 3)
        assert tid.tolist() == [[6, 5, PAD_ID]]
        assert tsc.tolist() == [[0.1, 0.5, np.inf]]

    def test_equal_scores_across_sources_ordered_by_id(self):
        # Survivors of two posting lists side by side in one row.
        scores = np.array([[1.0, 0.3, 1.0, 0.2]])
        ids = np.array([[9, 7, 4, 8]])
        tid, tsc = topk_rows(scores, ids, 3)
        assert tid.tolist() == [[8, 7, 4]]
        assert tsc.tolist() == [[0.2, 0.3, 1.0]]
