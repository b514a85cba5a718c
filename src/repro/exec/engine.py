"""Shared hybrid-query execution engine (S8/S9 core).

Both engines run one pipeline: ``route_queries`` on the driver, then
``search_partition`` once per routed index partition, then
``merge_rows_to_result`` on the driver.

- the local reference engine loops over partitions on the driver
  (used for nprobe tuning and as the parity oracle in tests);
- the Spark engine calls ``search_partition`` inside
  ``cogroup(...).applyInPandas`` tasks, one task per index partition,
  and collects their rows to the driver for the same merge.

Both engines therefore produce bit-identical results; tests assert it.

``search_partition`` implements the paper's batching (§5, Algorithm 3):
queries are grouped by attribute constraint (template) so each filter is
evaluated once per (template, partition) — this is the
attribute-constraint batching all approaches get by default in §6.1 —
and each group goes through the IVF index's one scan-and-select routine.
``batch_vectors`` only picks its score kernel: on (HQI), one matmul per
(query-group × posting-list) block; off, one score row per query,
modeling the FAISS-style online traversal of the baselines.

Data passes between the steps as flat arrays: a template's routed lists
reach the scan as ``(lists, n_probes)``, each ``search_partition`` call
returns one frame built from column arrays, and the merge slices each
query's top-k out of the sorted rows. A template missing from
``nprobe_by_tid`` raises ``KeyError``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.distance import pairwise_scores
from repro.core.ivf import PAD_ID, IVFIndex, SearchStats
from repro.core.predicates import Conjunction
from repro.core.types import Workload, vec_matrix

RESULT_COLUMNS = ["qpos", "tid", "id", "score", "scanned", "dcomp"]


def empty_result_frame() -> pd.DataFrame:
    """A ``RESULT_COLUMNS`` frame with no rows and the columns' dtypes."""
    return pd.DataFrame(
        {
            c: pd.Series(dtype=np.float64 if c == "score" else np.int64)
            for c in RESULT_COLUMNS
        }
    )


@dataclass
class ExecParams:
    """Query-time parameters shared by both engines."""

    k: int
    metric: str
    templates: dict[int, Conjunction]
    nprobe_by_tid: dict[int, int]
    qvecs: np.ndarray
    batch_vectors: bool = True
    apply_filter: bool = True  # False => PostFilter's unfiltered vector stage

    def nprobe(self, tid: int) -> int:
        """Template ``tid``'s nprobe. A template the configuration does not
        cover (e.g., one the tuning sample never saw) raises ``KeyError``
        instead of silently probing one list."""
        try:
            return self.nprobe_by_tid[tid]
        except KeyError:
            raise KeyError(f"nprobe_by_tid has no entry for template {tid}") from None


def compact_lists(
    global_lists: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Renumber the global posting-list ids of a bucket's rows densely.

    Returns ``(labels, local_centroids, global_list_ids)``: local list ``l``
    is global list ``global_list_ids[l]`` (ascending), with centroid row
    ``local_centroids[l]``, and ``labels`` holds each row's local list.
    """
    present, labels = np.unique(global_lists, return_inverse=True)
    return labels, centroids[present], present


@dataclass
class PartitionData:
    """One physical index partition, reconstructed from a pandas chunk."""

    pid: int
    ids: np.ndarray  # (n,) int64
    vecs: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) local posting-list index per row
    centroids: np.ndarray  # (L, d) — row l is local list l's centroid
    attrs: pd.DataFrame  # attribute columns, aligned with ids/vecs rows
    global_list_ids: np.ndarray | None = None  # local l -> global list id

    @classmethod
    def from_layout_chunk(
        cls,
        pid: int,
        chunk: pd.DataFrame,
        centroids: np.ndarray,
        attr_cols: list[str],
        *,
        lists_are_global: bool = False,
    ) -> "PartitionData":
        """Build from layout rows ``(pid, list_id, id, vec, attrs...)``.

        ``lists_are_global`` covers the bucketed (flat-IVF) layout where
        ``list_id`` indexes the *global* centroid table and the chunk
        holds only the lists assigned to this bucket.
        """
        ids = chunk["id"].to_numpy(dtype=np.int64)
        vecs = vec_matrix(chunk["vec"])
        raw = chunk["list_id"].to_numpy(dtype=np.int64)
        if lists_are_global:
            labels, cents, global_ids = compact_lists(raw, centroids)
        else:
            labels, cents, global_ids = raw, centroids, None
        return cls(
            pid=pid,
            ids=ids,
            vecs=vecs,
            labels=labels,
            centroids=cents,
            attrs=chunk[attr_cols].reset_index(drop=True),
            global_list_ids=global_ids,
        )

    def index(self, metric: str) -> IVFIndex:
        return IVFIndex.from_assignment(
            self.ids, self.vecs, self.labels, self.centroids, metric=metric
        )


def search_partition(
    data: PartitionData,
    routed: pd.DataFrame,  # columns: qpos, tid, and optionally "lists"
    params: ExecParams,
) -> pd.DataFrame:
    """Run all queries routed to one partition; returns RESULT_COLUMNS rows.

    Queries are grouped by template (ascending ``tid``, routed order
    within a template). Each template contributes its result rows
    (``id >= 0``, by query, then rank) followed by one stats row
    (``id == -1``) carrying the partition's tuples-scanned /
    distance-computation counters. Routed ``lists`` hold global list ids;
    they reach the scan as flat ``(lists, n_probes)`` arrays.
    """
    idx = data.index(params.metric)
    # Permutation from attrs/chunk row order to index row order, for masks.
    source_rows = np.argsort(data.labels, kind="stable")
    # Routed rows by template; template j owns rows [bounds[j], bounds[j+1]).
    tids = routed["tid"].to_numpy(dtype=np.int64)
    order = np.argsort(tids, kind="stable")
    tids, qpos_all = tids[order], routed["qpos"].to_numpy(dtype=np.int64)[order]
    uniq, starts = np.unique(tids, return_index=True)
    bounds = np.append(starts, len(tids)).tolist()
    lists = None
    if "lists" in routed.columns and routed["lists"].notna().any():
        assert data.global_list_ids is not None
        # Global -> local list ids in one lookup; lists this bucket does
        # not store (no rows) are dropped, and scan nothing. Row r probes
        # lists[probe_off[r]:probe_off[r + 1]].
        routed_lists = routed["lists"].to_numpy()[order]
        flat = np.concatenate(routed_lists)
        local = np.searchsorted(data.global_list_ids, flat)
        stored = data.global_list_ids[
            np.minimum(local, len(data.global_list_ids) - 1)
        ] == flat
        row_end = np.cumsum(
            np.fromiter(map(len, routed_lists), np.int64, len(routed_lists))
        )
        probe_off = np.concatenate([[0], np.cumsum(stored)])[
            np.concatenate([[0], row_end])
        ]
        lists = local[stored]
    # Columns of the output frame, one block per template.
    qpos_out, id_out, score_out, n_out = [], [], [], []
    counters = []
    for tid, a, b in zip(uniq.tolist(), bounds[:-1], bounds[1:]):
        template = params.templates[tid]
        stats = SearchStats()
        mask = None
        if params.apply_filter and len(template):
            mask = template.mask(data.attrs)[source_rows]
        qpos = qpos_all[a:b]
        probes = None
        if lists is not None:
            off = probe_off[a : b + 1]
            probes = lists[off[0] : off[-1]], np.diff(off)
        fn = idx.batch_search if params.batch_vectors else idx.search
        res_ids, res_scores = fn(
            params.qvecs[qpos], params.k, params.nprobe(tid), mask=mask,
            stats=stats, probes=probes,
        )
        valid = res_ids != PAD_ID
        qpos_out += [np.repeat(qpos, valid.sum(axis=1)), [-1]]
        id_out += [res_ids[valid], [-1]]
        score_out += [res_scores[valid], [0.0]]
        n_out.append(int(valid.sum()) + 1)
        counters.append((stats.tuples_scanned, stats.distance_computations))
    if not n_out:
        return empty_result_frame()
    # Each template's stats row is its block's last row.
    stats_at = np.cumsum(n_out) - 1
    scanned = np.zeros(stats_at[-1] + 1, dtype=np.int64)
    dcomp = np.zeros_like(scanned)
    scanned[stats_at], dcomp[stats_at] = np.array(counters, dtype=np.int64).T
    return pd.DataFrame(
        {
            "qpos": np.concatenate(qpos_out, dtype=np.int64),
            "tid": np.repeat(uniq, n_out),
            "id": np.concatenate(id_out, dtype=np.int64),
            "score": np.concatenate(score_out, dtype=np.float64),
            "scanned": scanned,
            "dcomp": dcomp,
        }
    )


@dataclass
class RunResult:
    """Merged top-k per query plus workload-level work counters."""

    ids_by_qid: dict = field(default_factory=dict)  # qid -> np.ndarray (<=k)
    scores_by_qid: dict = field(default_factory=dict)
    stats_by_tid: dict = field(default_factory=dict)  # tid -> SearchStats
    wall_seconds: float = 0.0

    @property
    def tuples_scanned(self) -> int:
        return sum(s.tuples_scanned for s in self.stats_by_tid.values())

    @property
    def distance_computations(self) -> int:
        return sum(s.distance_computations for s in self.stats_by_tid.values())


def merge_rows_to_result(
    rows: pd.DataFrame, workload: Workload, k: int
) -> RunResult:
    """Global top-k merge of per-partition result rows + stats fold."""
    res = RunResult()
    stats_rows = rows[rows["id"] < 0]
    for tid, grp in stats_rows.groupby("tid"):
        res.stats_by_tid[int(tid)] = SearchStats(
            tuples_scanned=int(grp["scanned"].sum()),
            distance_computations=int(grp["dcomp"].sum()),
        )
    data_rows = rows[rows["id"] >= 0]
    if len(data_rows):
        # Vectorized per-query top-k: lexsort by (qpos, score, id), rank
        # within each qpos run, keep rank < k. A candidate can reach a
        # query from at most one partition (partitions are disjoint), so
        # no dedup is needed.
        qpos = data_rows["qpos"].to_numpy(dtype=np.int64)
        ids = data_rows["id"].to_numpy(dtype=np.int64)
        score = data_rows["score"].to_numpy()
        perm = np.lexsort((ids, score, qpos))
        qpos, ids, score = qpos[perm], ids[perm], score[perm]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(qpos)) + 1])
        sizes = np.diff(np.concatenate([starts, [len(qpos)]]))
        ranks = np.arange(len(qpos)) - np.repeat(starts, sizes)
        keep = ranks < k
        ids, score = ids[keep], score[keep]
        # Query j of the run keeps the slice [ends[j] - kept[j], ends[j]).
        kept = np.minimum(sizes, k)
        ends = np.cumsum(kept)
        for qid, a, b in zip(
            workload.qids[qpos[starts]].tolist(), (ends - kept).tolist(),
            ends.tolist(),
        ):
            res.ids_by_qid[qid] = ids[a:b]
            res.scores_by_qid[qid] = score[a:b]
    for qid in workload.qids.tolist():
        res.ids_by_qid.setdefault(qid, np.empty(0, dtype=np.int64))
        res.scores_by_qid.setdefault(qid, np.empty(0))
    return res


def post_filter(
    result: RunResult,
    attrs_by_id: pd.DataFrame,  # indexed by tuple id, attribute columns
    workload: Workload,
    k: int,
) -> RunResult:
    """Strategy D's second phase: drop candidates violating the attribute
    constraint, then truncate to k. Recall is measured on this output."""
    out = RunResult(
        stats_by_tid=result.stats_by_tid, wall_seconds=result.wall_seconds
    )
    for qpos in range(workload.nq):
        qid = int(workload.qids[qpos])
        tid = int(workload.qtemplates[qpos])
        template = workload.templates[tid]
        ids = result.ids_by_qid.get(qid, np.empty(0, dtype=np.int64))
        if len(ids) == 0 or not len(template):
            out.ids_by_qid[qid] = ids[:k]
            out.scores_by_qid[qid] = result.scores_by_qid.get(qid, np.empty(0))[:k]
            continue
        cand_attrs = attrs_by_id.loc[ids]
        keep = template.mask(cand_attrs)
        out.ids_by_qid[qid] = ids[keep][:k]
        out.scores_by_qid[qid] = result.scores_by_qid[qid][keep][:k]
    return out


class Timer:
    """Context-manager wall clock for run/build phases."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False
