"""Index layout planning and materialization (S6).

Every approach's physical layout is planned on the driver (deterministic
numpy — the qd-tree recursion, range bucketing, or global IVF training)
and then *materialized* either:

- locally (``materialize_local``) into ``PartitionData`` objects for the
  reference engine, or
- distributed (``materialize_spark``) into a cached Spark DataFrame
  ``(pid, list_id, id, vec, attrs…)`` repartitioned by ``pid`` — the
  "vector index layout partitioned across DataFrame partitions". The
  pid assignment runs in ``mapInPandas`` (broadcast tree / bounds /
  centroids) and per-partition IVF training runs in
  ``groupBy(pid).applyInPandas`` with a pid-keyed seed, so the Spark
  layout is bit-identical to the local one (asserted in tests).

Layout kinds:

- ``hqi``   — qd-tree leaves are partitions; per-leaf IVF with √|Pi| lists;
- ``range`` — Strategy C: quantile range buckets over one attribute,
  per-bucket IVF;
- ``flat``  — a single global IVF (PreFilter / PostFilter / LP): posting
  lists are spread over ``n_buckets`` Spark partitions by
  ``list_id % n_buckets`` so baseline scans parallelize fairly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.kmeans import assign, kmeans
from repro.core.predicates import In
from repro.core.qdtree import QDTree, QueryGroup, construct_balanced_qdtree, extract_atoms
from repro.core.types import Dataset, Workload, vec_matrix
from repro.exec.engine import PartitionData, compact_lists

CENTROID_COL = "centroid_id"
_PART_SEED = 7000  # per-pid IVF training seed base — shared by both paths


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
def _query_groups_for_tree(
    workload: Workload,
    atoms: list,
    atom_index: dict,
    *,
    m: int,
    routing_centroids: np.ndarray | None,
) -> list[QueryGroup]:
    """Distinct (template, centroid-set) groups weighted by multiplicity."""
    groups: dict[tuple, int] = {}
    if m > 0:
        # L2 centroid proximity, matching the tuple assignment in assign().
        from repro.core.distance import pairwise_scores

        d = pairwise_scores(workload.qvecs, routing_centroids, "l2")
        qc = np.argsort(d, axis=1, kind="stable")[:, :m]
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
        workload, atoms, atom_index, m=m, routing_centroids=routing_centroids
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


# ------------------------------------------------------- shared training step
def _train_partition(pid: int, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-partition IVF (√|Pi| lists) with a pid-keyed seed, so the local
    and Spark materializations build identical indexes."""
    n_lists = max(1, int(math.isqrt(len(vecs))))
    return kmeans(vecs, n_lists, seed=_PART_SEED + pid)


def _assign_pid_chunk(chunk: pd.DataFrame, plan: PartitionPlan) -> np.ndarray:
    """pid per row of a pandas chunk — the mapInPandas assigner. Must make
    exactly the decisions recorded in ``plan.pid_of_row``."""
    if plan.kind == "hqi":
        eval_chunk = chunk
        if plan.m > 0:
            labels = assign(vec_matrix(chunk["vec"]), plan.routing_centroids)
            eval_chunk = chunk.assign(**{CENTROID_COL: labels})
        return plan.tree.assign_pandas(eval_chunk)
    if plan.kind == "range":
        vals = chunk[plan.range_attr].to_numpy(dtype=np.float64)
        return np.searchsorted(plan.range_edges, vals, side="right").astype(np.int64)
    if plan.kind == "flat":
        labels = assign(vec_matrix(chunk["vec"]), plan.global_centroids)
        return (labels % plan.n_buckets).astype(np.int64)
    raise ValueError(plan.kind)


def _global_lists_chunk(chunk: pd.DataFrame, plan: PartitionPlan) -> np.ndarray:
    return assign(vec_matrix(chunk["vec"]), plan.global_centroids).astype(np.int64)


# ------------------------------------------------------------- local builder
def materialize_local(dataset: Dataset, plan: PartitionPlan) -> dict[int, PartitionData]:
    """Reference materialization: dict pid -> PartitionData."""
    pdf = dataset.pdf
    vecs = dataset.vecs()
    ids = dataset.ids()
    parts: dict[int, PartitionData] = {}
    for pid in range(plan.n_parts):
        rows = np.flatnonzero(plan.pid_of_row == pid)
        if not len(rows):
            continue
        if plan.kind == "flat":
            labels, centroids, global_ids = compact_lists(
                plan.list_of_row[rows], plan.global_centroids
            )
        else:
            centroids, labels = _train_partition(pid, vecs[rows])
            global_ids = None
        parts[pid] = PartitionData(
            pid=pid,
            ids=ids[rows],
            vecs=vecs[rows],
            labels=labels,
            centroids=centroids,
            attrs=pdf.iloc[rows][dataset.attr_cols].reset_index(drop=True),
            global_list_ids=global_ids,
        )
    return parts


# ------------------------------------------------------------- spark builder
@dataclass
class SparkLayout:
    """The distributed index: a cached layout DataFrame plus routing meta."""

    df: DataFrame  # pid, list_id, id, vec, attrs... ; cached
    plan: PartitionPlan
    attr_cols: list[str]
    centroids_by_pid: dict = field(default_factory=dict)

    def unpersist(self) -> None:
        self.df.unpersist()


def _layout_schema(dataset: Dataset) -> T.StructType:
    fields = [
        T.StructField("pid", T.LongType(), False),
        T.StructField("list_id", T.LongType(), False),
    ]
    return T.StructType(fields + list(dataset.spark_schema().fields))


def materialize_spark(
    spark: SparkSession, dataset: Dataset, plan: PartitionPlan
) -> SparkLayout:
    """Distributed materialization. pid assignment via mapInPandas; for
    hqi/range, per-pid IVF training via applyInPandas which emits the
    trained centroids as marker rows (id < 0) split out afterwards."""
    base = dataset.to_spark(spark)
    schema = _layout_schema(dataset)
    attr_cols = dataset.attr_cols

    def with_pid(it):
        for chunk in it:
            pid = _assign_pid_chunk(chunk, plan)
            out = chunk.copy()
            out.insert(0, "pid", pid)
            if plan.kind == "flat":
                out.insert(1, "list_id", _global_lists_chunk(chunk, plan))
            else:
                out.insert(1, "list_id", np.int64(-1))
            yield out

    assigned = base.mapInPandas(with_pid, schema=schema)

    if plan.kind == "flat":
        layout = assigned.repartition("pid").cache()
        layout.count()  # force build
        return SparkLayout(df=layout, plan=plan, attr_cols=attr_cols)

    def train(chunk: pd.DataFrame) -> pd.DataFrame:
        pid = int(chunk["pid"].iloc[0])
        vecs = vec_matrix(chunk["vec"])
        centroids, labels = _train_partition(pid, vecs)
        out = chunk.copy()
        out["list_id"] = labels.astype(np.int64)
        marker = pd.DataFrame(
            {
                "pid": pid,
                "list_id": np.arange(len(centroids), dtype=np.int64),
                "id": np.int64(-1),
                "vec": list(centroids),
            }
        )
        for c in attr_cols:
            marker[c] = None
        import warnings

        with warnings.catch_warnings():
            # The marker rows' attr columns are intentionally all-NA;
            # pandas' concat-dtype FutureWarning does not apply (the data
            # rows fix every column's dtype).
            warnings.simplefilter("ignore", FutureWarning)
            return pd.concat([out, marker[out.columns]], ignore_index=True)

    trained = assigned.groupBy("pid").applyInPandas(train, schema=schema)
    trained = trained.repartition("pid").cache()
    centroid_rows = trained.filter(F.col("id") < 0).select(
        "pid", "list_id", "vec"
    ).toPandas()
    centroids_by_pid = {
        int(pid): np.stack(
            grp.sort_values("list_id")["vec"].to_numpy()
        ).astype(np.float64)
        for pid, grp in centroid_rows.groupby("pid")
    }
    layout = trained.filter(F.col("id") >= 0)
    return SparkLayout(
        df=layout,
        plan=plan,
        attr_cols=attr_cols,
        centroids_by_pid=centroids_by_pid,
    )
