"""Inverted-file (IVF) vector index with attribute-bitmap pushdown.

This is the clustering-based ANN index the paper builds inside every
qd-tree partition (§4.1.3) and that all baselines use globally. It
supports the two scan modes the evaluation compares:

- ``search``       — per-query posting-list scans, modeling the online
  FAISS-style traversal used by the PreFilter / PostFilter / Range
  baselines (queries batched by attribute constraint share the filter
  bitmap, but each query scans its probed lists individually). Each
  query's candidates — the kept rows of its probed lists, in probe order
  — are gathered with one ragged-range index and scored as one block;
  the blocks go into a per-query candidate buffer padded with
  ``PAD_ID`` / ``inf``, and the top-k is selected once per call (once
  per chunk of queries when the buffer would exceed a fixed cell budget);
- ``batch_search`` — Algorithm 3: queries are grouped by nearest
  centroid and each (query-group × posting-list) distance block is one
  matrix multiplication. Each block's per-query top-k survivors go into
  a per-query candidate buffer (one k-wide slot per probed list, padded
  with ``PAD_ID`` / ``inf``), and one selection per query over that
  buffer at the end is Algorithm 3 line 12's bounded heap, applied once.
  The buffer holds at most nq × nprobe × k candidates.

Both modes accept a boolean ``mask`` over the indexed rows — the bitmap
pushdown of §4.2 — and read a mask-compacted view of the index: the
passing rows once per call, plus per-list offsets into them, so masked-out
rows are never gathered or scored. Both count ``tuples_scanned``
(posting-list entries visited, i.e., bitmap tests) and
``distance_computations`` (query-point pairs actually scored), the
deterministic cost metrics reported in EXPERIMENTS.md, as vectorized sums
over the probed (query, list) pairs; ``batch_search`` counts a probed
list's entries once, since its query group shares the scan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import pairwise_scores, topk_rows
from .kmeans import assign, kmeans

PAD_ID = np.int64(2**62)  # sentinel id for padded (empty) top-k slots
# Candidate-buffer cells per top-k call in ``search``: bounds its memory
# when nq x (candidates per query) is large, e.g. at full probe.
_TOPK_CELLS = 1 << 20


@dataclass
class SearchStats:
    """Deterministic work counters for one search call."""

    tuples_scanned: int = 0
    distance_computations: int = 0

    def add(self, other: "SearchStats") -> None:
        self.tuples_scanned += other.tuples_scanned
        self.distance_computations += other.distance_computations


@dataclass
class _ScanView:
    """What both scan modes read for one call: the probes as flattened
    (query, list) pairs in per-query probe order, the rows passing the
    mask, and the padded output."""

    n_probes: np.ndarray  # (nq,) probes per query
    lists: np.ndarray  # (pairs,) probed list of each (query, list) pair
    kept: np.ndarray  # index rows passing the mask, ascending
    kept_offsets: np.ndarray  # (L+1,) list l keeps kept[off[l]:off[l+1]]
    out_ids: np.ndarray  # (nq, k) PAD_ID-filled
    out_scores: np.ndarray  # (nq, k) inf-filled


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
    def _scan_view(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
        mask: np.ndarray | None,
        probes: list | None,
    ) -> _ScanView:
        """Flatten the probes into (query, list) pairs, compact the mask
        into kept rows, and allocate the padded output — the set-up both
        scan modes share."""
        nq = len(queries)
        if probes is None:
            probes = self.nearest_centroids(queries, nprobe)  # (nq, nprobe)
            n_probes = np.full(nq, probes.shape[1], dtype=np.int64)
            lists = probes.ravel()
        else:
            n_probes = np.array([len(p) for p in probes], dtype=np.int64)
            lists = (
                np.concatenate(probes).astype(np.int64, copy=False)
                if nq
                else np.empty(0, np.int64)
            )
        kept = np.arange(self.n_rows) if mask is None else np.flatnonzero(mask)
        return _ScanView(
            n_probes=n_probes,
            lists=lists,
            kept=kept,
            kept_offsets=np.searchsorted(kept, self.list_offsets),
            out_ids=np.full((nq, k), PAD_ID, dtype=np.int64),
            out_scores=np.full((nq, k), np.inf),
        )

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
        view = self._scan_view(queries, k, nprobe, mask, probes)
        # Each (query, list) pair visits the whole list and scores its kept
        # rows; a query's candidates are its pairs' kept rows, in probe order.
        stats.tuples_scanned += int(np.diff(self.list_offsets)[view.lists].sum())
        starts = view.kept_offsets[view.lists]
        lens = view.kept_offsets[view.lists + 1] - starts
        pair_off = np.concatenate([[0], np.cumsum(view.n_probes)])
        cand_off = np.concatenate([[0], np.cumsum(lens)])  # per pair
        stats.distance_computations += int(cand_off[-1])
        q_off = cand_off[pair_off]  # query i's candidates: [q_off[i], q_off[i+1])
        counts = np.diff(q_off)
        # Queries are scanned and selected in chunks whose padded candidate
        # buffer stays within _TOPK_CELLS cells.
        chunk = max(1, _TOPK_CELLS // max(1, int(counts.max(initial=0))))
        for c0 in range(0, nq, chunk):
            c1 = min(nq, c0 + chunk)
            width = int(counts[c0:c1].max())
            if not width:
                continue
            p0, p1 = pair_off[c0], pair_off[c1]
            rows = view.kept[
                np.arange(q_off[c0], q_off[c1])
                - np.repeat(cand_off[p0:p1] - starts[p0:p1], lens[p0:p1])
            ]
            bounds = (q_off[c0 : c1 + 1] - q_off[c0]).tolist()
            scores = np.empty(len(rows))
            for i in np.flatnonzero(counts[c0:c1]).tolist():
                a, b = bounds[i], bounds[i + 1]
                scores[a:b] = pairwise_scores(
                    queries[c0 + i : c0 + i + 1], self.vectors[rows[a:b]],
                    self.metric,
                )[0]
            buf_q = np.repeat(np.arange(c1 - c0), counts[c0:c1])
            slot = np.arange(len(rows)) - np.repeat(bounds[:-1], counts[c0:c1])
            buf_ids = np.full((c1 - c0, width), PAD_ID, dtype=np.int64)
            buf_scores = np.full((c1 - c0, width), np.inf)
            buf_ids[buf_q, slot] = self.ids[rows]
            buf_scores[buf_q, slot] = scores
            tid, tsc = topk_rows(buf_scores, buf_ids, k)
            view.out_ids[c0:c1, : tid.shape[1]] = tid
            view.out_scores[c0:c1, : tsc.shape[1]] = tsc
        return view.out_ids, view.out_scores

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
        view = self._scan_view(queries, k, nprobe, mask, probes)
        n_probes, flat_lists = view.n_probes, view.lists
        kept, kept_offsets = view.kept, view.kept_offsets
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
        group_lists = np.unique(flat_lists)
        # Each probed list is scanned once, shared by its query group.
        stats.tuples_scanned += int(np.diff(self.list_offsets)[group_lists].sum())
        stats.distance_computations += int(np.diff(kept_offsets)[flat_lists].sum())
        for group_q, group_slot, l in zip(
            np.split(flat_q, boundaries),
            np.split(flat_slot, boundaries),
            group_lists.tolist(),
        ):
            rows = kept[kept_offsets[l] : kept_offsets[l + 1]]
            if not len(rows):
                continue
            scores = pairwise_scores(
                queries[group_q], self.vectors[rows], self.metric
            )
            tid, tsc = topk_rows(scores, self.ids[rows], k)
            cols = group_slot[:, None] * k + np.arange(tid.shape[1])
            cand_ids[group_q[:, None], cols] = tid
            cand_scores[group_q[:, None], cols] = tsc
        # Alg. 3 line 12's bounded heap per query, filled once.
        top_ids, top_scores = topk_rows(cand_scores, cand_ids, k)
        view.out_ids[:, : top_ids.shape[1]] = top_ids
        view.out_scores[:, : top_scores.shape[1]] = top_scores
        return view.out_ids, view.out_scores
