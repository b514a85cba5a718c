"""Deterministic Lloyd k-means used for IVF training and the centroid
attribute of Section 4.1.1.

sklearn is not available in this environment and ``pyspark.ml.KMeans``
cannot run *inside* a Spark task (no nested Spark jobs), so
we implement seeded k-means++ / Lloyd in numpy. Sizes here are small:
at most ~100K points with at most ~√100K ≈ 316 centers.
"""
from __future__ import annotations

import numpy as np


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread the initial centers out proportionally to
    squared distance from the ones already chosen."""
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


def assign(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest (L2) center for each row of ``x``."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; ||x||^2 is constant per row.
    x = np.ascontiguousarray(x, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    d = -2.0 * (x @ centers.T) + (centers**2).sum(axis=1)[None, :]
    return np.argmin(d, axis=1)


def kmeans(
    x: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_iter: int = 15,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd k-means.

    Returns ``(centers, labels)`` with ``centers`` shaped ``(k', d)`` where
    ``k' = min(k, n_distinct_rows_needed)`` — if ``k >= n`` every point is
    its own center. Empty clusters are re-seeded from the point farthest
    from its center, which keeps all ``k`` lists non-degenerate.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("kmeans on empty input")
    k = max(1, min(int(k), n))
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(x, k, rng)
    labels = assign(x, centers)
    for _ in range(n_iter):
        # Vectorized per-cluster mean via np.add.at.
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, x)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        empty = counts == 0
        if empty.any():
            # Re-seed empty clusters at the points with largest residual.
            d2 = ((x - centers[labels]) ** 2).sum(axis=1)
            far = np.argsort(-d2)[: int(empty.sum())]
            centers[empty] = x[far]
            counts[empty] = 1.0
            sums[empty] = x[far]
        centers = sums / counts[:, None]
        new_labels = assign(x, centers)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return centers, labels
