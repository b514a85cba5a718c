"""Index layout planning and materialization (S6).

Every approach's physical layout is planned on the driver (deterministic
numpy — the qd-tree recursion, range bucketing, or global IVF training),
which fixes each row's partition id (``pid``). ``materialize_local`` then
trains each partition's IVF on the driver (in forked worker processes,
``core.forkpool``, when there is more than one CPU and partition) and
returns ``PartitionData`` objects, their rows in posting-list order; this
is the only build of the index. For the Spark engine, ``materialize_spark``
ships those partitions through the ``hqi`` DataSource (``index.datasource``):
it writes each partition's ``PartitionData.pack`` row once into a layout
directory, assigns the pids to ``min(defaultParallelism, partitions)``
slots by rows (``lpt_slots``), and caches the DataFrame the DataSource
reads back, one Spark partition per slot — the "vector index layout
partitioned across DataFrame partitions", with no shuffle. Each row
carries its partition's centroids, so a Spark task needs nothing but its
rows.

Layout kinds:

- ``hqi``   — qd-tree leaves are partitions; per-leaf IVF with √|Pi| lists;
- ``range`` — Strategy C: quantile range buckets over one attribute,
  per-bucket IVF;
- ``flat``  — a single global IVF (PreFilter / PostFilter / LP): posting
  lists are spread over ``n_buckets`` index partitions by
  global list id modulo ``n_buckets`` so baseline scans parallelize fairly.
  Bucket ``b`` stores global lists ``b, b + n_buckets, …`` (empty ones
  included) as its local lists ``0, 1, …``, so local order is global order.
"""
from __future__ import annotations

import heapq
import math
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.distance import pairwise_scores
from repro.core.forkpool import fork_map
from repro.core.kmeans import cpus, kmeans
from repro.core.predicates import In, dictionary_encode
from repro.core.qdtree import QDTree, QueryGroup, construct_balanced_qdtree, extract_atoms
from repro.core.types import Dataset, Workload
from repro.exec.engine import PartitionData
from repro.index.datasource import read_layout, write_layout

CENTROID_COL = "centroid_id"
_PART_SEED = 7000  # partition pid trains its IVF with seed _PART_SEED + pid


@dataclass
class PartitionPlan:
    """Driver-side partitioning decision plus routing metadata."""

    kind: str  # 'hqi' | 'range' | 'flat'
    pid_of_row: np.ndarray
    n_parts: int
    tree: QDTree | None = None
    routing_centroids: np.ndarray | None = None  # §4.1.1 centroids (m > 0)
    m: int = 0
    range_attr: str | None = None
    range_edges: np.ndarray | None = None  # internal bucket edges, ascending
    global_centroids: np.ndarray | None = None  # flat: global IVF centroids
    list_of_row: np.ndarray | None = None  # flat: global list per row
    n_buckets: int | None = None

    @property
    def lists_are_global(self) -> bool:
        return self.kind == "flat"


# ------------------------------------------------------------------ planning
def nearest_routing_centroids(
    qvecs: np.ndarray, routing_centroids: np.ndarray, m: int
) -> np.ndarray:
    """Each query's m nearest §4.1.1 routing centroids, as ascending ids.
    L2 proximity, matching the tuple assignment in ``kmeans``."""
    d = pairwise_scores(qvecs, routing_centroids, "l2")
    return np.sort(np.argsort(d, axis=1, kind="stable")[:, :m], axis=1)


def _query_groups_for_tree(
    workload: Workload,
    atom_index: dict,
    *,
    m: int,
    routing_centroids: np.ndarray | None,
) -> list[QueryGroup]:
    """Distinct (template, centroid-set) groups weighted by multiplicity."""
    groups: dict[tuple, int] = {}
    if m > 0:
        qc = nearest_routing_centroids(workload.qvecs, routing_centroids, m)
    for qpos in range(workload.nq):
        tid = int(workload.qtemplates[qpos])
        and_idxs = tuple(
            atom_index[a] for a in workload.templates[tid] if a in atom_index
        )
        or_idxs = ()
        if m > 0:
            or_idxs = tuple(
                sorted(
                    atom_index[In(CENTROID_COL, [int(c)])]
                    for c in qc[qpos]
                )
            )
        key = (and_idxs, or_idxs)
        groups[key] = groups.get(key, 0) + 1
    return [
        QueryGroup(and_idxs=a, or_idxs=o, weight=w) for (a, o), w in groups.items()
    ]


def plan_hqi(
    dataset: Dataset,
    workload: Workload,
    *,
    m: int = 0,
    min_size: int = 1024,
    n_routing_centroids: int = 64,
    seed: int = 0,
) -> PartitionPlan:
    """§4.1: transform vector constraints to centroid atoms (m > 0),
    extract cut predicates, build the balanced qd-tree."""
    pdf = dataset.pdf
    routing_centroids = None
    centroid_atoms: list = []
    eval_pdf = pdf
    if m > 0:
        routing_centroids, labels = kmeans(
            dataset.vecs(), n_routing_centroids, seed=seed
        )
        eval_pdf = pdf.assign(**{CENTROID_COL: labels})
        centroid_atoms = [
            In(CENTROID_COL, [c]) for c in range(len(routing_centroids))
        ]
    atoms = extract_atoms(workload.templates.values(), centroid_atoms)
    atom_index = {a: i for i, a in enumerate(atoms)}
    matrix = np.stack([a.mask(eval_pdf) for a in atoms], axis=1)
    groups = _query_groups_for_tree(
        workload, atom_index, m=m, routing_centroids=routing_centroids
    )
    tree = construct_balanced_qdtree(matrix, atoms, groups, min_size=min_size)
    pid_of_row = np.empty(len(pdf), dtype=np.int64)
    for lf in tree.leaves:
        pid_of_row[lf.row_idx] = lf.pid
    return PartitionPlan(
        kind="hqi",
        pid_of_row=pid_of_row,
        n_parts=tree.n_leaves,
        tree=tree,
        routing_centroids=routing_centroids,
        m=m,
    )


def plan_range(
    dataset: Dataset, *, attr: str = "A", n_parts: int = 16
) -> PartitionPlan:
    """Strategy C: quantile range partitioning over one attribute."""
    vals = dataset.pdf[attr].to_numpy(dtype=np.float64)
    edges = np.quantile(vals, np.arange(1, n_parts) / n_parts)
    pid_of_row = np.searchsorted(edges, vals, side="right")
    return PartitionPlan(
        kind="range",
        pid_of_row=pid_of_row.astype(np.int64),
        n_parts=n_parts,
        range_attr=attr,
        range_edges=edges,
    )


def plan_flat(
    dataset: Dataset, *, n_buckets: int = 8, seed: int = 0
) -> PartitionPlan:
    """Single global IVF over the whole database (√n lists), posting
    lists spread over n_buckets physical partitions."""
    vecs = dataset.vecs()
    n_lists = max(1, int(math.isqrt(len(vecs))))
    centroids, labels = kmeans(vecs, n_lists, seed=seed)
    n_buckets = min(n_buckets, n_lists)
    return PartitionPlan(
        kind="flat",
        pid_of_row=(labels % n_buckets).astype(np.int64),
        n_parts=n_buckets,
        global_centroids=centroids,
        list_of_row=labels.astype(np.int64),
        n_buckets=n_buckets,
    )


# ------------------------------------------------------------- local builder
def _train_partition(
    staged: tuple[np.ndarray, dict[int, np.ndarray]], pid: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Partition ``pid``'s IVF (√|Pi| lists) with a pid-keyed seed, so a
    partition's index does not depend on which other partitions exist:
    ``(centroids, labels, seconds of its k-means)``. ``staged`` is
    ``(vecs, rows_of)``."""
    vecs, rows_of = staged
    x = vecs[rows_of[pid]]
    t0 = time.perf_counter()
    centroids, labels = kmeans(x, max(1, int(math.isqrt(len(x)))), seed=_PART_SEED + pid)
    return centroids, labels, time.perf_counter() - t0


def _train_partitions(
    vecs: np.ndarray, rows_of: dict[int, np.ndarray]
) -> dict[int, tuple[np.ndarray, np.ndarray, float]]:
    """``_train_partition`` for every pid of ``rows_of`` (pid -> its rows).

    The partitions' k-means are independent and hold the GIL (seeding, the
    per-dimension ``bincount``), so ``fork_map`` runs them in forked worker
    processes: ``min(CPUs in the affinity mask, partitions)`` of them,
    largest partition first, since the largest sets the critical path.
    Workers inherit the rows and return only centroids, labels and their
    k-means seconds. With one worker they run inline.
    """
    largest_first = sorted(rows_of, key=lambda pid: len(rows_of[pid]), reverse=True)
    width = min(cpus(), len(rows_of))
    return fork_map(_train_partition, (vecs, rows_of), largest_first, width)


def materialize_local(
    dataset: Dataset, plan: PartitionPlan, kmeans_s: dict[int, float] | None = None
) -> dict[int, PartitionData]:
    """Build every partition's index on the driver: dict pid -> PartitionData.

    ``hqi`` and ``range`` partitions train their IVFs with
    ``_train_partitions``, and each one's k-means seconds go into
    ``kmeans_s`` (pid -> seconds) when it is given; ``flat`` buckets take
    their IVFs from the plan.
    Each partition's string attributes are dictionary-encoded here, once,
    so every copy of it (packed, shipped, persisted) holds dictionary
    codes. Encoding each partition's slice, not a copy of the whole frame,
    adds no frame-sized temporaries to the build's peak RSS.
    """
    pdf = dataset.pdf
    vecs = dataset.vecs()
    ids = dataset.ids()
    rows_of = {}
    for pid in range(plan.n_parts):
        rows = np.flatnonzero(plan.pid_of_row == pid)
        if len(rows):
            rows_of[pid] = rows
    trained = {} if plan.kind == "flat" else _train_partitions(vecs, rows_of)
    if kmeans_s is not None:
        kmeans_s.update((pid, seconds) for pid, (_, _, seconds) in trained.items())
    parts: dict[int, PartitionData] = {}
    for pid, rows in rows_of.items():
        if plan.kind == "flat":
            # Global list pid + j * n_buckets is local list j.
            labels = plan.list_of_row[rows] // plan.n_buckets
            centroids = np.ascontiguousarray(
                plan.global_centroids[pid :: plan.n_buckets]
            )
        else:
            centroids, labels, _ = trained[pid]
        # List order; the stable sort keeps dataset order within a list.
        order = np.argsort(labels, kind="stable")
        rows, labels = rows[order], labels[order]
        parts[pid] = PartitionData(
            pid=pid,
            ids=ids[rows],
            vecs=vecs[rows],
            labels=labels,
            centroids=centroids,
            attrs=dictionary_encode(
                pdf.iloc[rows][dataset.attr_cols].reset_index(drop=True)
            ),
        )
    return parts


# ------------------------------------------------------------- spark builder
@dataclass
class SparkLayout:
    """The distributed index: a cached DataFrame of ``PACKED_SCHEMA`` rows,
    one per partition, plus the plan that routes queries to them.

    ``files`` is the layout directory ``df`` reads, owned by this layout
    (``None`` for a view of a directory another layout owns). ``unpersist``
    removes it, and so does its own finalizer at exit.
    """

    df: DataFrame
    plan: PartitionPlan
    files: tempfile.TemporaryDirectory | None = None

    def unpersist(self) -> None:
        self.df.unpersist()
        if self.files is not None:
            self.files.cleanup()


def lpt_slots(rows_of: dict[int, int], n_slots: int) -> list[list[int]]:
    """Longest-processing-time assignment of pids to ``n_slots`` slots:
    the pid with the most rows (``rows_of``: pid -> rows) first, ties by
    pid, each to the least-loaded slot, ties by slot. Each slot's pids
    ascending."""
    slots: list[list[int]] = [[] for _ in range(n_slots)]
    loads = [(0, s) for s in range(n_slots)]
    for pid in sorted(rows_of, key=lambda p: (-rows_of[p], p)):
        load, s = heapq.heappop(loads)
        slots[s].append(pid)
        heapq.heappush(loads, (load + rows_of[pid], s))
    return [sorted(slot) for slot in slots]


def materialize_spark(
    spark: SparkSession,
    plan: PartitionPlan,
    parts: dict[int, PartitionData],
) -> SparkLayout:
    """Ship the partitions ``materialize_local`` built to Spark: write them
    once to a new layout directory and cache what the ``hqi`` DataSource
    reads back, one Spark partition per ``lpt_slots`` slot."""
    files = tempfile.TemporaryDirectory(prefix="hqi-layout-")
    n_slots = min(spark.sparkContext.defaultParallelism, len(parts))
    slots = lpt_slots({pid: len(part.ids) for pid, part in parts.items()}, n_slots)
    write_layout(files.name, plan.kind, parts, slots)
    layout = read_layout(spark, files.name).cache()
    layout.count()  # ship now, inside the build time
    return SparkLayout(df=layout, plan=plan, files=files)
