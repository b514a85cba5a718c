"""Deterministic Lloyd k-means used for IVF training and the centroid
attribute of Section 4.1.1.

sklearn is not available in this environment and ``pyspark.ml.KMeans``
cannot run *inside* a Spark task (no nested Spark jobs), so
we implement seeded k-means++ / Lloyd in numpy. Sizes here are small:
at most ~100K points with at most ~√100K ≈ 316 centers.

Memory: no step allocates an n×k or n×d array. Distances are computed a
block of rows at a time inside one buffer of at most ``_KMEANS_CELLS``
float64 cells (512 KB). A whole n×k distance matrix would be 117 MB for
the global IVF of a 60k-row corpus and would set the build's peak memory.

Block starts fall on multiples of ``_ROW_ALIGN`` rows. OpenBLAS rounds a
row's dot products by where the row falls in its kernel's tiles, and
aligned blocks keep every row in the tile it has in one product over all
rows, so centers and labels are bit-identical to the unblocked
computation, down to ties between equidistant centers. That holds while
each dgemm call runs on one BLAS thread, as the benchmark runs it; with
more threads OpenBLAS splits rows at its own boundaries and exact ties
may break differently.
"""
from __future__ import annotations

import numpy as np

_KMEANS_CELLS = 1 << 16
_ROW_ALIGN = 16


def _row_blocks(n: int, width: int) -> tuple[int, list[tuple[int, int]]]:
    """``(rows, blocks)``: row ranges ``(a, b)`` covering ``0..n`` whose
    ``(b - a, width)`` buffers fit ``_KMEANS_CELLS`` cells (or hold
    ``_ROW_ALIGN`` rows when one row is wider), and the most rows any of
    them holds. A one-row tail joins the block before it: numpy sends a
    one-row product to gemv, which rounds differently from dgemm."""
    step = _KMEANS_CELLS // max(1, width) // _ROW_ALIGN * _ROW_ALIGN
    step = max(_ROW_ALIGN, step)
    blocks = [(a, min(a + step, n)) for a in range(0, n, step)]
    if len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] == 1:
        blocks[-2:] = [(blocks[-2][0], n)]
    return max((b - a for a, b in blocks), default=0), blocks


def _sq_dist(
    x: np.ndarray, c: np.ndarray, out: np.ndarray, labels: np.ndarray | None = None
) -> None:
    """``out[i] = ||x[i] - c||²`` one block of rows at a time, for one
    center ``c``, or for ``c[labels[i]]`` when ``labels`` is given."""
    rows, blocks = _row_blocks(*x.shape)
    buf = np.empty((rows, x.shape[1]), dtype=np.float64)
    for a, b in blocks:
        s = buf[: b - a]
        if labels is None:
            np.subtract(x[a:b], c, out=s)
        else:
            np.take(c, labels[a:b], axis=0, out=s)
            np.subtract(x[a:b], s, out=s)
        np.square(s, out=s)
        s.sum(axis=1, out=out[a:b])


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread the initial centers out proportionally to
    squared distance from the ones already chosen."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    d2 = np.empty(n, dtype=np.float64)
    _sq_dist(x, centers[0], d2)
    nd2 = np.empty_like(d2)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i:] = x[rng.integers(n, size=k - i)]
            break
        probs = d2 / total
        centers[i] = x[rng.choice(n, p=probs)]
        _sq_dist(x, centers[i], nd2)
        np.minimum(d2, nd2, out=d2)
    return centers


def assign(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest (L2) center for each row of ``x``."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; ||x||^2 is constant per row.
    x = np.ascontiguousarray(x, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    n, k = x.shape[0], centers.shape[0]
    c2 = (centers**2).sum(axis=1)
    labels = np.empty(n, dtype=np.intp)
    rows, blocks = _row_blocks(n, k)
    buf = np.empty((rows, k), dtype=np.float64)
    for a, b in blocks:
        d = buf[: b - a]
        np.matmul(x[a:b], centers.T, out=d)
        d *= -2.0
        d += c2
        np.argmin(d, axis=1, out=labels[a:b])
    return labels


def kmeans(
    x: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_iter: int = 15,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd k-means.

    Returns ``(centers, labels)`` with ``centers`` shaped ``(k', d)`` where
    ``k' = min(k, n)`` — if ``k >= n`` every point is its own center.
    Empty clusters are re-seeded from the point farthest from its center,
    which keeps all ``k`` lists non-degenerate.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n, d = x.shape
    if n == 0:
        raise ValueError("kmeans on empty input")
    k = max(1, min(int(k), n))
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(x, k, rng)
    labels = assign(x, centers)
    for _ in range(n_iter):
        # Per-cluster sums, one dimension at a time; bincount adds each
        # cluster's rows in row order.
        sums = np.empty_like(centers)
        for j in range(d):
            sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        empty = counts == 0
        if empty.any():
            # Re-seed empty clusters at the points with largest residual.
            d2 = np.empty(n, dtype=np.float64)
            _sq_dist(x, centers, d2, labels)
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
