"""Inverted-file (IVF) vector index with attribute-bitmap pushdown.

This is the clustering-based ANN index the paper builds inside every
qd-tree partition (§4.1.3) and that all baselines use globally. It
supports the two scan modes the evaluation compares:

- ``search``       — per-query posting-list scans, modeling the online
  FAISS-style traversal used by the PreFilter / PostFilter / Range
  baselines (queries batched by attribute constraint share the filter
  bitmap, but each query scans its probed lists individually);
- ``batch_search`` — Algorithm 3: queries are grouped by nearest
  centroid and each (query-group × posting-list) distance block is one
  matrix multiplication. Each block's per-query top-k survivors go into
  a per-query candidate buffer (one k-wide slot per probed list, padded
  with ``PAD_ID`` / ``inf``), and one selection per query over that
  buffer at the end is Algorithm 3 line 12's bounded heap, applied once.
  The buffer holds at most nq × nprobe × k candidates.

Both modes accept a boolean ``mask`` over the indexed rows — the bitmap
pushdown of §4.2 — and skip distance computations for masked-out rows.
Both count ``tuples_scanned`` (posting-list entries visited, i.e.,
bitmap tests) and ``distance_computations`` (query-point pairs actually
scored), the deterministic cost metrics reported in EXPERIMENTS.md.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import pairwise_scores, topk_rows
from .kmeans import assign, kmeans

PAD_ID = np.int64(2**62)  # sentinel id for padded (empty) top-k slots


@dataclass
class SearchStats:
    """Deterministic work counters for one search call."""

    tuples_scanned: int = 0
    distance_computations: int = 0

    def add(self, other: "SearchStats") -> None:
        self.tuples_scanned += other.tuples_scanned
        self.distance_computations += other.distance_computations


@dataclass
class IVFIndex:
    """A trained IVF index over ``(ids, vectors)`` with ``n_lists`` lists."""

    centroids: np.ndarray  # (L, d) float64
    vectors: np.ndarray  # (n, d) float64, grouped by list
    ids: np.ndarray  # (n,) int64, grouped by list
    list_offsets: np.ndarray  # (L+1,) int64 — list l is rows [off[l], off[l+1])
    metric: str

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        ids: np.ndarray,
        vectors: np.ndarray,
        *,
        metric: str,
        n_lists: int | None = None,
        seed: int = 0,
    ) -> "IVFIndex":
        """Train k-means with √n lists (paper default) and bucket rows.

        Rows are physically regrouped so each posting list is a
        contiguous slice — the layout the Spark side persists sorted by
        ``(pid, list_id)``.
        """
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        n = len(ids)
        if n == 0:
            raise ValueError("cannot build IVF over empty input")
        if n_lists is None:
            n_lists = max(1, int(np.sqrt(n)))
        centroids, labels = kmeans(vectors, n_lists, seed=seed)
        return cls.from_assignment(ids, vectors, labels, centroids, metric=metric)

    @classmethod
    def from_assignment(
        cls,
        ids: np.ndarray,
        vectors: np.ndarray,
        labels: np.ndarray,
        centroids: np.ndarray,
        *,
        metric: str,
    ) -> "IVFIndex":
        """Assemble an index from a precomputed list assignment (used when
        the assignment was produced distributed, inside ``applyInPandas``)."""
        order = np.argsort(labels, kind="stable")
        labels = np.asarray(labels)[order]
        ids = np.ascontiguousarray(np.asarray(ids)[order], dtype=np.int64)
        vectors = np.ascontiguousarray(np.asarray(vectors)[order], dtype=np.float64)
        counts = np.bincount(labels, minlength=len(centroids))
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return cls(
            centroids=np.ascontiguousarray(centroids, dtype=np.float64),
            vectors=vectors,
            ids=ids,
            list_offsets=offsets,
            metric=metric,
        )

    # ------------------------------------------------------------- properties
    @property
    def n_lists(self) -> int:
        return len(self.centroids)

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    def list_slice(self, l: int) -> slice:
        return slice(int(self.list_offsets[l]), int(self.list_offsets[l + 1]))

    def list_id_of_rows(self) -> np.ndarray:
        """Posting-list id per stored row (for persisting the layout)."""
        out = np.empty(self.n_rows, dtype=np.int64)
        for l in range(self.n_lists):
            out[self.list_slice(l)] = l
        return out

    def mask_for_ids(self, keep_ids) -> np.ndarray:
        """Bitmap over stored rows marking rows whose id is in ``keep_ids``
        (how Strategy B materializes an attribute filter as a bitmap)."""
        return np.isin(self.ids, np.asarray(keep_ids, dtype=np.int64))

    def nearest_centroids(self, q: np.ndarray, nprobe: int) -> np.ndarray:
        """Indices of the ``nprobe`` nearest centroids per query row.

        Centroid proximity always uses the index metric so probe order
        matches the scoring order.
        """
        nprobe = min(nprobe, self.n_lists)
        scores = pairwise_scores(np.atleast_2d(q), self.centroids, self.metric)
        probes = np.argpartition(scores, nprobe - 1, axis=1)[:, :nprobe]
        # Order probes best-first for deterministic traversal.
        row = np.arange(len(probes))[:, None]
        return probes[row, np.argsort(scores[row, probes], axis=1, kind="stable")]

    # ---------------------------------------------------------------- search
    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
        mask: np.ndarray | None = None,
        stats: SearchStats | None = None,
        probes: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-query scan (baseline mode). Returns padded ``(ids, scores)``
        arrays of shape ``(nq, k)``; empty slots hold ``PAD_ID`` / ``inf``.

        ``probes`` optionally overrides probe selection with an explicit
        per-query list of local list indices — used when probes were
        computed against the *global* centroid table on the driver and
        this index holds only a shard of the lists.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nq = len(queries)
        stats = stats if stats is not None else SearchStats()
        if probes is None:
            probes = self.nearest_centroids(queries, nprobe)
        out_ids = np.full((nq, k), PAD_ID, dtype=np.int64)
        out_scores = np.full((nq, k), np.inf)
        for qi in range(nq):
            cand_rows = []
            for l in probes[qi]:
                sl = self.list_slice(int(l))
                stats.tuples_scanned += sl.stop - sl.start
                rows = np.arange(sl.start, sl.stop)
                if mask is not None:
                    rows = rows[mask[sl]]
                if len(rows):
                    cand_rows.append(rows)
            if not cand_rows:
                continue
            rows = np.concatenate(cand_rows)
            scores = pairwise_scores(
                queries[qi : qi + 1], self.vectors[rows], self.metric
            )
            stats.distance_computations += len(rows)
            tid, tsc = topk_rows(scores, self.ids[rows], k)
            out_ids[qi, : tid.shape[1]] = tid[0]
            out_scores[qi, : tsc.shape[1]] = tsc[0]
        return out_ids, out_scores

    def batch_search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
        mask: np.ndarray | None = None,
        stats: SearchStats | None = None,
        probes: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 3: group queries by probed centroid, one matmul per
        (query-group, posting-list) pair, then one top-k per query over
        the survivors of all its lists."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nq = len(queries)
        stats = stats if stats is not None else SearchStats()
        if probes is None:
            probes = self.nearest_centroids(queries, nprobe)  # (nq, nprobe)
            n_probes = np.full(nq, probes.shape[1], dtype=np.int64)
            flat_lists = probes.ravel()
        else:
            n_probes = np.array([len(p) for p in probes], dtype=np.int64)
            flat_lists = np.concatenate(
                [np.asarray(p, dtype=np.int64) for p in probes]
            ) if nq else np.empty(0, np.int64)
        flat_q = np.repeat(np.arange(nq), n_probes)
        # Position of each probe within its query's probe list: the query's
        # candidate buffer holds that list's <= k survivors at slot * k.
        flat_slot = np.arange(len(flat_lists)) - np.repeat(
            np.cumsum(n_probes) - n_probes, n_probes
        )
        width = int(n_probes.max(initial=0)) * k
        cand_ids = np.full((nq, width), PAD_ID, dtype=np.int64)
        cand_scores = np.full((nq, width), np.inf)
        # Invert: posting list -> query indices routed to it (GroupBy(Q_f, c)).
        order = np.argsort(flat_lists, kind="stable")
        flat_lists, flat_q, flat_slot = (
            flat_lists[order], flat_q[order], flat_slot[order]
        )
        boundaries = np.flatnonzero(np.diff(flat_lists)) + 1
        for group_q, group_slot, l in zip(
            np.split(flat_q, boundaries),
            np.split(flat_slot, boundaries),
            flat_lists[np.concatenate([[0], boundaries])] if len(flat_lists) else [],
        ):
            sl = self.list_slice(int(l))
            stats.tuples_scanned += (sl.stop - sl.start) * 1  # shared scan
            rows = np.arange(sl.start, sl.stop)
            if mask is not None:
                rows = rows[mask[sl]]
            if not len(rows):
                continue
            scores = pairwise_scores(
                queries[group_q], self.vectors[rows], self.metric
            )
            stats.distance_computations += len(group_q) * len(rows)
            tid, tsc = topk_rows(scores, self.ids[rows], k)
            cols = group_slot[:, None] * k + np.arange(tid.shape[1])
            cand_ids[group_q[:, None], cols] = tid
            cand_scores[group_q[:, None], cols] = tsc
        # Alg. 3 line 12's bounded heap per query, filled once.
        top_ids, top_scores = topk_rows(cand_scores, cand_ids, k)
        out_ids = np.full((nq, k), PAD_ID, dtype=np.int64)
        out_scores = np.full((nq, k), np.inf)
        out_ids[:, : top_ids.shape[1]] = top_ids
        out_scores[:, : top_scores.shape[1]] = top_scores
        return out_ids, out_scores
