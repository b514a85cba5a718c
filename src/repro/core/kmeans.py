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

Threads: each ``kmeans`` call opens one thread pool and closes it on
return, so no thread outlives the call. The pool has
``min(CPUs in the process's affinity mask, blocks // _SHARD_BLOCKS)``
workers, where blocks counts the row blocks of the call's largest kernel:
a worker takes at least ``_SHARD_BLOCKS`` blocks, because on fewer
(HQI's leaves) waking the pool costs more than the shard's work saves.
Nearest-center assignment and the squared distances of k-means++ seeding
and the empty-cluster reseed split their blocks into contiguous shards,
one per worker; each worker owns its scratch buffer and writes a disjoint
slice of the output. Block boundaries are the same with or without the
pool, and every block runs the same operations, so the thread that runs a
block changes no bit; that holds while each dgemm call runs on one BLAS
thread. The RNG, the centroid update and the convergence test stay on the
calling thread. With one CPU, or too few blocks, no pool is opened and the
blocks run inline.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

_KMEANS_CELLS = 1 << 16
_ROW_ALIGN = 16
_SHARD_BLOCKS = 4


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


def cpus() -> int:
    """CPUs in this process's affinity mask: the most workers a pool gets."""
    return len(os.sched_getaffinity(0))


class _Pool:
    """Runs the row blocks of one ``kmeans`` (or ``assign``) call's
    kernels: on ``min(cpus(), n_blocks // _SHARD_BLOCKS)`` threads when
    that is above 1, else inline. The threads end on ``__exit__``."""

    def __init__(self, n_blocks: int):
        self.width = min(cpus(), max(1, n_blocks // _SHARD_BLOCKS))
        self._pool = ThreadPoolExecutor(self.width) if self.width > 1 else None

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def run(
        self,
        blocks: list[tuple[int, int]],
        shape: tuple[int, int],
        body: Callable[[np.ndarray, int, int], None],
    ) -> None:
        """``body(buf, a, b)`` for every block, ``buf`` a ``(b - a, cols)``
        view of a ``shape`` scratch buffer. The blocks go in contiguous
        shards, one per worker, and each shard owns its buffer. The calling
        thread allocates the buffers: buffers malloc'ed in the workers
        left the next query batches about 30% slower (RelatedQS PreFilter,
        same process), and with this they are not."""

        def shard(part: list[tuple[int, int]], buf: np.ndarray) -> None:
            for a, b in part:
                body(buf[: b - a], a, b)

        n = min(self.width, len(blocks) // _SHARD_BLOCKS)
        bufs = [np.empty(shape, dtype=np.float64) for _ in range(max(1, n))]
        if n <= 1:
            shard(blocks, bufs[0])
            return
        cuts = [i * len(blocks) // n for i in range(n + 1)]
        # list() waits for every shard and re-raises a worker's exception.
        list(self._pool.map(shard, [blocks[a:b] for a, b in zip(cuts, cuts[1:])], bufs))


def _sq_dist(
    pool: _Pool,
    x: np.ndarray,
    c: np.ndarray,
    out: np.ndarray,
    labels: np.ndarray | None = None,
) -> None:
    """``out[i] = ||x[i] - c||²`` one block of rows at a time, for one
    center ``c``, or for ``c[labels[i]]`` when ``labels`` is given."""
    rows, blocks = _row_blocks(*x.shape)
    if labels is None:
        # Same-shape operands: subtract runs faster than when broadcasting
        # one row, and gives the same bits.
        c = np.tile(c, (rows, 1))

    def block(s: np.ndarray, a: int, b: int) -> None:
        if labels is None:
            np.subtract(x[a:b], c[: b - a], out=s)
        else:
            np.take(c, labels[a:b], axis=0, out=s)
            np.subtract(x[a:b], s, out=s)
        np.square(s, out=s)
        s.sum(axis=1, out=out[a:b])

    pool.run(blocks, (rows, x.shape[1]), block)


def _draw(
    rng: np.random.Generator, w: np.ndarray, total: float, cdf: np.ndarray
) -> int:
    """An index drawn with probability ``w / total``, ``cdf`` scratch of
    ``w``'s shape. This is ``rng.choice(len(w), p=w / total)``'s own
    arithmetic on numpy 1.26, so it draws the same index from the same
    stream, without choice's per-call validation of ``p``."""
    np.divide(w, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeanspp_init(
    pool: _Pool, x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread the initial centers out proportionally to
    squared distance from the ones already chosen."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    d2 = np.empty(n, dtype=np.float64)
    _sq_dist(pool, x, centers[0], d2)
    nd2, cdf = np.empty_like(d2), np.empty_like(d2)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i:] = x[rng.integers(n, size=k - i)]
            break
        centers[i] = x[_draw(rng, d2, total, cdf)]
        _sq_dist(pool, x, centers[i], nd2)
        np.minimum(d2, nd2, out=d2)
    return centers


def _assign(pool: _Pool, x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; ||x||^2 is constant per row.
    n, k = x.shape[0], centers.shape[0]
    c2 = (centers**2).sum(axis=1)
    labels = np.empty(n, dtype=np.intp)
    rows, blocks = _row_blocks(n, k)

    def block(d: np.ndarray, a: int, b: int) -> None:
        np.matmul(x[a:b], centers.T, out=d)
        d *= -2.0
        d += c2
        np.argmin(d, axis=1, out=labels[a:b])

    pool.run(blocks, (rows, k), block)
    return labels


def assign(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest (L2) center for each row of ``x``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    with _Pool(len(_row_blocks(len(x), len(centers))[1])) as pool:
        return _assign(pool, x, centers)


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
    with _Pool(max(len(_row_blocks(n, w)[1]) for w in (k, d))) as pool:
        centers = _kmeanspp_init(pool, x, k, rng)
        labels = _assign(pool, x, centers)
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
                _sq_dist(pool, x, centers, d2, labels)
                far = np.argsort(-d2)[: int(empty.sum())]
                centers[empty] = x[far]
                counts[empty] = 1.0
                sums[empty] = x[far]
            centers = sums / counts[:, None]
            new_labels = _assign(pool, x, centers)
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
    return centers, labels
