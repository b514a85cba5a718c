"""Shared hybrid-query execution engine (S8/S9 core).

Both engines run one pipeline: ``route_queries`` on the driver, then
``search_partition`` once per routed index partition, then
``merge_rows_to_result`` on the driver.

- the local reference engine loops over partitions on the driver
  (used for nprobe tuning and as the parity oracle in tests);
- the Spark engine calls ``search_partition`` inside ``mapInPandas``
  tasks over the cached layout's routed rows, each an index partition
  packed by ``PartitionData.pack``, and collects their rows to the
  driver for the same merge.

Both engines therefore produce bit-identical results; tests assert it.

``search_partition`` implements the paper's batching (§5, Algorithm 3):
queries are grouped by attribute constraint (template) so each filter is
evaluated once per (template, partition) — this is the
attribute-constraint batching all approaches get by default in §6.1 —
and each group goes through the IVF index's one scan-and-select routine.
``batch_vectors`` only picks its score kernel: on (HQI), one matmul per
(query-group × posting-list) block; off, one score row per query,
modeling the FAISS-style online traversal of the baselines.

Data passes between the steps as flat arrays: each routed row carries how
many lists its query probes in that partition (``nprobe``), so a
template's rows reach the scan as one count per query and the partition
picks that many of its own nearest lists; each ``search_partition`` call
returns one frame built from column arrays, and the merge slices each
query's top-k out of the sorted rows.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa

from repro.core.distance import topk_rows
from repro.core.ivf import PAD_ID, IVFIndex, SearchStats
from repro.core.predicates import Conjunction
from repro.core.types import Workload

RESULT_COLUMNS = ["qpos", "tid", "id", "score", "scanned", "dcomp"]
# Candidate-buffer cells per top-k call of the merge, as ``ivf._TOPK_CELLS``
# bounds the scan's: keeps the merge's memory flat on large batches.
_MERGE_CELLS = 1 << 16
RESULT_SCHEMA = (  # RESULT_COLUMNS as a Spark schema
    "qpos bigint, tid bigint, id bigint, score double, scanned bigint, dcomp bigint"
)


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


# ``PartitionData.pack``'s row, as a Spark schema: the cached Spark layout,
# the Spark scan and the persisted ``hqi`` DataSource all hold these rows.
PACKED_SCHEMA = (
    "pid bigint, dim bigint, ids binary, vecs binary, labels binary, "
    "centroids binary, attrs binary"
)


@dataclass
class PartitionData:
    """One physical index partition, its rows stored in posting-list order.

    ``labels`` is ascending (``ValueError`` otherwise), so list ``l`` is one
    contiguous run of rows and ``index`` wraps the arrays without copying.
    """

    pid: int
    ids: np.ndarray  # (n,) int64
    vecs: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) local posting-list index per row, ascending
    centroids: np.ndarray  # (L, d) — row l is local list l's centroid
    attrs: pd.DataFrame  # attribute columns, aligned with ids/vecs rows;
    # strings dictionary-encoded (``predicates.dictionary_encode``)

    def __post_init__(self):
        if np.any(self.labels[1:] < self.labels[:-1]):
            raise ValueError("PartitionData rows must be in posting-list order")

    def pack(self) -> dict:
        """This partition as one ``PACKED_SCHEMA`` row: arrays as raw
        little-endian bytes, attributes as one Arrow IPC stream."""
        return {
            "pid": self.pid,
            "dim": self.vecs.shape[1],
            "ids": _le_bytes(self.ids, "<i8"),
            "vecs": _le_bytes(self.vecs, "<f8"),
            "labels": _le_bytes(self.labels, "<i8"),
            "centroids": _le_bytes(self.centroids, "<f8"),
            "attrs": to_ipc(self.attrs),
        }

    @classmethod
    def unpack(cls, row) -> "PartitionData":
        """Inverse of ``pack``; ``row`` is any mapping of its fields (a
        dict, a Spark ``Row``). Arrays are views of the row's bytes."""
        dim = int(row["dim"])
        return cls(
            pid=int(row["pid"]),
            ids=np.frombuffer(row["ids"], "<i8"),
            vecs=np.frombuffer(row["vecs"], "<f8").reshape(-1, dim),
            labels=np.frombuffer(row["labels"], "<i8"),
            centroids=np.frombuffer(row["centroids"], "<f8").reshape(-1, dim),
            attrs=from_ipc(row["attrs"]),
        )

    def index(self, metric: str) -> IVFIndex:
        return IVFIndex(
            centroids=self.centroids,
            vectors=self.vecs,
            ids=self.ids,
            list_offsets=np.searchsorted(
                self.labels, np.arange(len(self.centroids) + 1)
            ),
            metric=metric,
        )


def _le_bytes(a: np.ndarray, dtype: str) -> bytes:
    return np.ascontiguousarray(a, dtype=dtype).tobytes()


def to_ipc(frame: pd.DataFrame) -> bytes:
    """``frame`` (without its index) as one Arrow IPC stream."""
    table = pa.Table.from_pandas(frame, preserve_index=False)
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue().to_pybytes()


def from_ipc(buf) -> pd.DataFrame:
    """Inverse of ``to_ipc``."""
    return pa.ipc.open_stream(buf).read_pandas()


def search_partition(
    data: PartitionData,
    routed: pd.DataFrame,  # columns: qpos, tid, nprobe
    params: ExecParams,
) -> pd.DataFrame:
    """Run all queries routed to one partition; returns RESULT_COLUMNS rows.

    Queries are grouped by template (ascending ``tid``, routed order
    within a template). Each template contributes its result rows
    (``id >= 0``, by query, then rank) followed by one stats row
    (``id == -1``) carrying the partition's tuples-scanned /
    distance-computation counters. Each query probes its routed
    ``nprobe`` nearest lists of this partition.
    """
    idx = data.index(params.metric)
    # Routed rows by template; template j owns rows [bounds[j], bounds[j+1]).
    tids = routed["tid"].to_numpy(dtype=np.int64)
    order = np.argsort(tids, kind="stable")
    tids, qpos_all = tids[order], routed["qpos"].to_numpy(dtype=np.int64)[order]
    nprobe_all = routed["nprobe"].to_numpy(dtype=np.int64)[order]
    uniq, starts = np.unique(tids, return_index=True)
    bounds = np.append(starts, len(tids)).tolist()
    # Columns of the output frame, one block per template.
    qpos_out, id_out, score_out, n_out = [], [], [], []
    counters = []
    for tid, a, b in zip(uniq.tolist(), bounds[:-1], bounds[1:]):
        template = params.templates[tid]
        stats = SearchStats()
        mask = None
        if params.apply_filter and len(template):
            mask = template.mask(data.attrs)
        qpos = qpos_all[a:b]
        fn = idx.batch_search if params.batch_vectors else idx.search
        res_ids, res_scores = fn(
            params.qvecs[qpos], params.k, nprobe_all[a:b], mask=mask, stats=stats
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
        # Group rows by query with one stable sort, then select each
        # query's top-k as the scan does: a padded per-query buffer and
        # ``topk_rows``, in chunks of queries whose buffer stays within
        # _MERGE_CELLS cells. A candidate can reach a query from at most
        # one partition (partitions are disjoint), so no dedup is needed.
        qpos = data_rows["qpos"].to_numpy(dtype=np.int64)
        order = np.argsort(qpos, kind="stable")
        qpos = qpos[order]
        ids = data_rows["id"].to_numpy(dtype=np.int64)[order]
        score = data_rows["score"].to_numpy(dtype=np.float64)[order]
        # Query j of the run owns rows [offs[j], offs[j + 1]).
        offs = np.append(np.flatnonzero(np.diff(qpos, prepend=-1)), len(qpos))
        starts, sizes = offs[:-1], np.diff(offs)
        # Query j keeps the slice [ends[j] - kept[j], ends[j]).
        kept = np.minimum(sizes, k)
        ends = np.cumsum(kept)
        top_ids = np.empty(ends[-1], dtype=np.int64)
        top_scores = np.empty(ends[-1])
        chunk = max(1, _MERGE_CELLS // int(sizes.max()))
        for c0 in range(0, len(starts), chunk):
            c1 = min(len(starts), c0 + chunk)
            width, base, end = int(sizes[c0:c1].max()), offs[c0], offs[c1]
            # Row j of the chunk fills cell[j]: its query's buffer row, at
            # its place in that query's run.
            cell = np.arange(end - base) + np.repeat(
                np.arange(c1 - c0) * width - (starts[c0:c1] - base), sizes[c0:c1]
            )
            buf_ids = np.full((c1 - c0, width), PAD_ID, dtype=np.int64)
            buf_scores = np.full((c1 - c0, width), np.inf)
            buf_ids.ravel()[cell] = ids[base:end]
            buf_scores.ravel()[cell] = score[base:end]
            tid, tsc = topk_rows(buf_scores, buf_ids, k)
            # Padding sorts last, so each row's first min(size, k) are real.
            valid = tid != PAD_ID
            out = slice(ends[c0] - kept[c0], ends[c1 - 1])
            top_ids[out], top_scores[out] = tid[valid], tsc[valid]
        ids, score = top_ids, top_scores
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
