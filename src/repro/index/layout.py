"""Index layout planning and materialization (S6).

Every approach's physical layout is planned on the driver (deterministic
numpy — the qd-tree recursion, range bucketing, or global IVF training),
which fixes each row's partition id (``pid``). ``materialize_local`` then
trains each partition's IVF on the driver and returns ``PartitionData``
objects, their rows in posting-list order; this is the only build of the
index. For the Spark engine, ``materialize_spark`` ships those partitions
as a cached DataFrame of ``PartitionData.pack`` rows, one row per
partition, repartitioned by ``pid`` — the "vector index layout
partitioned across DataFrame partitions". Each row carries its
partition's centroids, so a Spark task needs nothing but its row.

Layout kinds:

- ``hqi``   — qd-tree leaves are partitions; per-leaf IVF with √|Pi| lists;
- ``range`` — Strategy C: quantile range buckets over one attribute,
  per-bucket IVF;
- ``flat``  — a single global IVF (PreFilter / PostFilter / LP): posting
  lists are spread over ``n_buckets`` Spark partitions by
  global list id modulo ``n_buckets`` so baseline scans parallelize fairly.
  Bucket ``b`` stores global lists ``b, b + n_buckets, …`` (empty ones
  included) as its local lists ``0, 1, …``, so local order is global order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.distance import pairwise_scores
from repro.core.kmeans import kmeans
from repro.core.predicates import In, dictionary_encode
from repro.core.qdtree import QDTree, QueryGroup, construct_balanced_qdtree, extract_atoms
from repro.core.types import Dataset, Workload
from repro.exec.engine import PACKED_SCHEMA, PartitionData

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
def _train_partition(pid: int, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-partition IVF (√|Pi| lists) with a pid-keyed seed, so a
    partition's index does not depend on which other partitions exist."""
    n_lists = max(1, int(math.isqrt(len(vecs))))
    return kmeans(vecs, n_lists, seed=_PART_SEED + pid)


def materialize_local(dataset: Dataset, plan: PartitionPlan) -> dict[int, PartitionData]:
    """Build every partition's index on the driver: dict pid -> PartitionData.

    Each partition's string attributes are dictionary-encoded here, once,
    so every copy of it (packed, shipped, persisted) holds dictionary
    codes. Encoding each partition's slice, not a copy of the whole frame,
    adds no frame-sized temporaries to the build's peak RSS.
    """
    pdf = dataset.pdf
    vecs = dataset.vecs()
    ids = dataset.ids()
    parts: dict[int, PartitionData] = {}
    for pid in range(plan.n_parts):
        rows = np.flatnonzero(plan.pid_of_row == pid)
        if not len(rows):
            continue
        if plan.kind == "flat":
            # Global list pid + j * n_buckets is local list j.
            labels = plan.list_of_row[rows] // plan.n_buckets
            centroids = np.ascontiguousarray(
                plan.global_centroids[pid :: plan.n_buckets]
            )
        else:
            centroids, labels = _train_partition(pid, vecs[rows])
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
    one per partition, plus the plan that routes queries to them."""

    df: DataFrame
    plan: PartitionPlan

    def unpersist(self) -> None:
        self.df.unpersist()


def materialize_spark(
    spark: SparkSession,
    plan: PartitionPlan,
    parts: dict[int, PartitionData],
) -> SparkLayout:
    """Ship the partitions ``materialize_local`` built to Spark, one packed
    row each, hash-partitioned by ``pid`` and cached."""
    rows = pd.DataFrame([part.pack() for part in parts.values()])
    layout = spark.createDataFrame(rows, schema=PACKED_SCHEMA)
    layout = layout.repartition(len(parts), "pid").cache()
    layout.count()  # ship now, inside the build time
    return SparkLayout(df=layout, plan=plan)
