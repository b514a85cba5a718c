"""Batched distance kernels and top-k selection.

The paper uses two metrics (Table 2): L2 for SIFT/MSTuring and inner
product (IP) for YandexT2I and the KG workloads. We normalize both to an
ascending-better *score*:

- ``l2``: squared Euclidean distance (monotone in L2, and exact in
  float64 for integer-valued test vectors, which the DuckDB oracle
  relies on),
- ``ip``: negated inner product, so smaller is more similar.

Ties are broken by ascending tuple id everywhere, so the Spark engine,
the local reference engine, numpy brute force, and the DuckDB oracle all
return identical top-k sets.

``topk_rows`` selects each row's k survivors with ``argpartition`` and
orders only those k by ``(score, id)``. A partition may split a score tie
at the k-th value arbitrarily, so a row is taken as exact only when no
column outside its k survivors ties the k-th score; the rows that fail
this boundary check fall back to a full two-key sort.
"""
from __future__ import annotations

import numpy as np

METRICS = ("l2", "ip")


def pairwise_scores(q: np.ndarray, x: np.ndarray, metric: str) -> np.ndarray:
    """Score matrix of shape ``(len(q), len(x))``; smaller = more similar."""
    q = np.ascontiguousarray(q, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if metric == "l2":
        # ||q||^2 - 2 q.x + ||x||^2, computed with one matmul.
        return (
            (q**2).sum(axis=1)[:, None]
            - 2.0 * (q @ x.T)
            + (x**2).sum(axis=1)[None, :]
        )
    if metric == "ip":
        return -(q @ x.T)
    raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")


def topk_rows(
    scores: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of a score matrix with ``(score, id)`` tie-break.

    ``ids`` is ``(n,)`` when every row scores the same columns, or
    ``(rows, n)`` when each row has its own candidates. Returns
    ``(top_ids, top_scores)`` of shape ``(rows, k')`` with
    ``k' = min(k, scores.shape[1])``, each row sorted ascending by
    ``(score, id)``.
    """
    nq, n = scores.shape
    k = min(k, n)
    if k == 0:
        return np.empty((nq, 0), dtype=ids.dtype), np.empty((nq, 0))
    # Shared ids stay 1-D: broadcasting them costs more than the whole
    # selection on the one-row, short calls of per-query scans.
    row = np.arange(nq)[:, None]
    if k < n:
        cols = np.argpartition(scores, k - 1, axis=1)[:, :k]
        # argpartition splits score ties at the k-th value arbitrarily. A
        # row's k survivors are its (score, id) top-k exactly when only k
        # of its columns score <= its k-th value; rows with more take the
        # full two-key sort.
        below = scores <= scores[row, cols[:, k - 1 :]]
        if np.count_nonzero(below) > nq * k:
            ties = np.flatnonzero(below.sum(axis=1) > k)
            tie_ids = (
                ids[ties] if ids.ndim == 2 else np.broadcast_to(ids, (len(ties), n))
            )
            cols[ties] = np.lexsort((tie_ids, scores[ties]), axis=-1)[:, :k]
        top_scores = scores[row, cols]
        top_ids = ids[cols] if ids.ndim == 1 else ids[row, cols]
    else:
        top_scores = scores
        top_ids = ids if ids.ndim == 2 else np.repeat(ids[None, :], nq, axis=0)
    order = np.lexsort((top_ids, top_scores), axis=-1)
    return top_ids[row, order], top_scores[row, order]
