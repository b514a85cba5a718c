"""Inverted-file (IVF) vector index with attribute-bitmap pushdown.

This is the clustering-based ANN index the paper builds inside every
qd-tree partition (§4.1.3) and that all baselines use globally. Both scan
modes the evaluation compares read the same candidates — the rows of each
query's probed lists that pass a boolean ``mask`` over the indexed rows
(the bitmap pushdown of §4.2), in probe order — and return the same top-k
per query. A query probes its ``nprobe`` nearest lists, ordered by
(centroid score, list id); ``nprobe`` is one count for all queries or one
count per query (0 probes nothing). One routine, ``_scan``, serves both
modes: it picks every query's lists with one stable sort, compacts the
mask into the passing rows once per call, lays out each query's
candidates, fills a per-query candidate buffer padded with ``PAD_ID`` /
``inf`` and selects the top-k once per chunk of queries (a chunk's buffer
stays within a fixed cell budget, so memory stays bounded at full probe).
The modes differ only in the score kernel:

- ``search`` — per-query posting-list scans, modeling the online
  FAISS-style traversal used by the PreFilter / PostFilter / Range
  baselines: one score row per query over all its candidates;
- ``batch_search`` — Algorithm 3: queries are grouped by probed list and
  each (query-group × posting-list) distance block is one matrix
  multiplication, scattered into the group's (query, list) segments. The
  one selection per query is Algorithm 3 line 12's bounded heap.

Both count ``tuples_scanned`` (posting-list entries visited, i.e., bitmap
tests) and ``distance_computations`` (query-point pairs actually scored),
the deterministic cost metrics reported in EXPERIMENTS.md, as vectorized
sums over the probed (query, list) pairs; ``batch_search`` counts a probed
list's entries once, since its query group shares the scan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import pairwise_scores, topk_rows
from .kmeans import kmeans

PAD_ID = np.int64(2**62)  # sentinel id for padded (empty) top-k slots
# Candidate-buffer cells per top-k call: bounds a scan's memory when
# nq x (candidates per query) is large, e.g. at full probe.
_TOPK_CELLS = 1 << 20


@dataclass
class SearchStats:
    """Deterministic work counters for one search call."""

    tuples_scanned: int = 0
    distance_computations: int = 0


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
        contiguous slice, as ``PartitionData`` stores its rows.
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
        """Assemble an index from a precomputed list assignment, regrouping
        the rows by list with one stable sort."""
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

    def nearest_centroids(self, q: np.ndarray, nprobe: int) -> np.ndarray:
        """Indices of the ``nprobe`` nearest centroids per query row,
        ordered by (score, list id).

        Centroid proximity always uses the index metric so probe order
        matches the scoring order. One stable sort breaks score ties by
        list id, so a shard that stores a stride of a larger centroid
        table in order picks, on exact ties, what the whole table would.
        """
        scores = pairwise_scores(np.atleast_2d(q), self.centroids, self.metric)
        return np.argsort(scores, axis=1, kind="stable")[:, :nprobe]

    # ---------------------------------------------------------------- search
    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int | np.ndarray,
        mask: np.ndarray | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-query scan (baseline mode). Returns padded ``(ids, scores)``
        arrays of shape ``(nq, k)``; empty slots hold ``PAD_ID`` / ``inf``.

        ``nprobe`` is one count for every query or one count per query;
        counts above ``n_lists`` probe every list.
        """
        return self._scan(queries, k, nprobe, mask, stats, batched=False)

    def batch_search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int | np.ndarray,
        mask: np.ndarray | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 3: same arguments and output as ``search``, but each
        probed list is scored once against the group of queries probing it."""
        return self._scan(queries, k, nprobe, mask, stats, batched=True)

    def _scan(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int | np.ndarray,
        mask: np.ndarray | None,
        stats: SearchStats | None,
        batched: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score every query's candidates and select its top-k.

        A query's candidates are the kept rows of its probed lists, in
        probe order: the (query, list) pair ``p`` owns candidates
        ``[cand_off[p], cand_off[p+1])`` and query ``i`` owns
        ``[q_off[i], q_off[i+1])``. ``batched`` picks the score kernel.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nq = len(queries)
        stats = stats if stats is not None else SearchStats()
        # Query i probes its first n_probes[i] nearest lists; ``lists``
        # concatenates them in query order.
        n_probes = np.minimum(np.broadcast_to(nprobe, nq), self.n_lists)
        width = int(n_probes.max(initial=0))
        nearest = self.nearest_centroids(queries, width)
        lists = nearest[np.arange(width) < n_probes[:, None]]
        kept = np.arange(self.n_rows) if mask is None else np.flatnonzero(mask)
        kept_offsets = np.searchsorted(kept, self.list_offsets)
        # Every probed list's entries are visited (bitmap tests): once per
        # (query, list) pair, or once per list when its query group shares
        # the scan.
        visited = np.unique(lists) if batched else lists
        stats.tuples_scanned += int(np.diff(self.list_offsets)[visited].sum())
        starts = kept_offsets[lists]
        lens = kept_offsets[lists + 1] - starts
        pair_off = np.concatenate([[0], np.cumsum(n_probes)])
        cand_off = np.concatenate([[0], np.cumsum(lens)])
        stats.distance_computations += int(cand_off[-1])
        q_off = cand_off[pair_off]
        counts = np.diff(q_off)
        out_ids = np.full((nq, k), PAD_ID, dtype=np.int64)
        out_scores = np.full((nq, k), np.inf)
        # Queries are scored and selected in chunks whose padded candidate
        # buffer stays within _TOPK_CELLS cells.
        chunk = max(1, _TOPK_CELLS // max(1, int(counts.max(initial=0))))
        for c0 in range(0, nq, chunk):
            c1 = min(nq, c0 + chunk)
            width = int(counts[c0:c1].max())
            if not width:
                continue
            p0, p1 = pair_off[c0], pair_off[c1]
            base = q_off[c0]
            rows = kept[
                np.arange(base, q_off[c1])
                - np.repeat(cand_off[p0:p1] - starts[p0:p1], lens[p0:p1])
            ]
            # Candidate j of the chunk fills cell[j] of the flattened
            # buffer: its query's row, at its place in that query's
            # probe order.
            cell = np.arange(len(rows)) + np.repeat(
                np.arange(c1 - c0) * width - (q_off[c0:c1] - base), counts[c0:c1]
            )
            buf_ids = np.full((c1 - c0, width), PAD_ID, dtype=np.int64)
            buf_scores = np.full((c1 - c0, width), np.inf)
            buf_ids.ravel()[cell] = self.ids[rows]
            if batched:
                # One (query-group x posting-list) matmul per distinct list,
                # scattered into each of its (query, list) segments.
                pair_q = np.repeat(np.arange(c0, c1), n_probes[c0:c1])
                order = np.argsort(lists[p0:p1], kind="stable")
                seg, size = cand_off[p0:p1][order] - base, lens[p0:p1][order]
                cuts = (np.flatnonzero(np.diff(lists[p0 + order])) + 1).tolist()
                for a, b in zip([0] + cuts, cuts + [len(order)]):
                    n = int(size[a])
                    if not n:
                        continue
                    s = int(seg[a])
                    buf_scores.ravel()[cell[seg[a:b], None] + np.arange(n)] = (
                        pairwise_scores(
                            queries[pair_q[order[a:b]]],
                            self.vectors[rows[s : s + n]],
                            self.metric,
                        )
                    )
            else:
                # One score row per query over all its candidates.
                bounds = (q_off[c0 : c1 + 1] - base).tolist()
                for i in np.flatnonzero(counts[c0:c1]).tolist():
                    a, b = bounds[i], bounds[i + 1]
                    buf_scores[i, : b - a] = pairwise_scores(
                        queries[c0 + i : c0 + i + 1], self.vectors[rows[a:b]],
                        self.metric,
                    )[0]
            tid, tsc = topk_rows(buf_scores, buf_ids, k)
            out_ids[c0:c1, : tid.shape[1]] = tid
            out_scores[c0:c1, : tsc.shape[1]] = tsc
        return out_ids, out_scores
