"""High-level approach facade (S9): HQI and the §6.1 baselines.

- ``hqi``        — qd-tree layout (when a historical workload exists;
  otherwise the flat layout, as for LP) + Algorithm 3 vector batching;
- ``prefilter``  — Strategy B: one global IVF, attribute bitmap pushed
  into per-query posting-list scans;
- ``postfilter`` — Strategy D: unfiltered vector search for ``fetch_k``
  candidates, attribute filter applied afterwards, truncate to k;
- ``range``      — Strategy C: range partitions over one attribute,
  per-partition IVF, bitmap-filtered per-query scans.

All approaches batch queries by attribute constraint and use bitmap
pushdown (the paper's defaults for every compared system); only HQI adds
vector-similarity batching. ``range`` raises for workloads whose
templates have no range-partitionable attribute (the paper's "NA" for
RelatedQS / LP).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.predicates import Cmp
from repro.core.types import Dataset, Workload
from repro.exec.engine import ExecParams, RunResult, Timer, post_filter
from repro.exec.local_engine import run_local
from repro.exec.spark_engine import run_spark
from repro.index.layout import (
    PartitionPlan,
    SparkLayout,
    materialize_local,
    materialize_spark,
    plan_flat,
    plan_hqi,
    plan_range,
)

APPROACHES = ("hqi", "prefilter", "postfilter", "range")
RANGE_ATTR = "A"  # Strategy C's partitioning attribute


class RangeNotApplicable(ValueError):
    """Strategy C needs a numeric range predicate over the partitioning
    attribute; RelatedQS / LP templates (IN / IS NOT NULL over several
    attributes) provide none — Table 3's "NA" entries."""


@dataclass
class BuiltIndex:
    approach: str
    dataset: Dataset
    plan: PartitionPlan
    parts: dict  # pid -> PartitionData, built on the driver
    layout: SparkLayout | None = None  # the partitions shipped to Spark
    build_seconds: float = 0.0


def _check_range_applicable(workload: Workload, attr: str) -> None:
    ok = any(
        isinstance(p, Cmp) and p.attr == attr and p.op in ("<", "<=")
        for t in workload.templates.values()
        for p in t
    )
    if not ok:
        raise RangeNotApplicable(
            f"no range predicate over partitioning attribute {attr!r}"
        )


def build_index(
    approach: str,
    dataset: Dataset,
    workload: Workload | None = None,
    *,
    engine: str = "local",
    spark: SparkSession | None = None,
    m: int = 0,
    min_size: int = 1024,
    n_buckets: int = 8,
    range_parts: int = 16,
    seed: int = 0,
) -> BuiltIndex:
    """Plan + materialize one approach's index; build time includes both,
    and for ``engine="spark"`` also shipping the partitions to Spark."""
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}")
    if engine not in ("local", "spark"):
        raise ValueError(f"unknown engine {engine!r}")
    with Timer() as t:
        if approach == "hqi" and workload is not None:
            plan = plan_hqi(
                dataset, workload, m=m, min_size=min_size, seed=seed
            )
        elif approach == "range":
            if workload is not None:
                _check_range_applicable(workload, RANGE_ATTR)
            plan = plan_range(dataset, attr=RANGE_ATTR, n_parts=range_parts)
        else:  # prefilter / postfilter / hqi-without-history (LP)
            plan = plan_flat(dataset, n_buckets=n_buckets, seed=seed)
        built = BuiltIndex(approach, dataset, plan, materialize_local(dataset, plan))
        if engine == "spark":
            built.layout = materialize_spark(spark, plan, built.parts)
    built.build_seconds = t.seconds
    return built


def run_queries(
    built: BuiltIndex,
    workload: Workload,
    *,
    k: int,
    nprobe_by_tid: dict[int, int],
    engine: str = "local",
    spark: SparkSession | None = None,
    fetch_k: int | None = None,
) -> RunResult:
    """Execute a workload against a built index.

    HQI batches query vectors (Algorithm 3); the baselines run per-query
    FAISS-style scans. ``fetch_k`` is PostFilter's unfiltered candidate
    count (defaults to 4k).
    """
    is_post = built.approach == "postfilter"
    params = ExecParams(
        k=(fetch_k or 4 * k) if is_post else k,
        metric=built.dataset.metric,
        templates=workload.templates,
        nprobe_by_tid=nprobe_by_tid,
        qvecs=workload.qvecs,
        batch_vectors=built.approach == "hqi",
        apply_filter=not is_post,
    )
    with Timer() as t:
        if engine == "local":
            result = run_local(built.parts, built.plan, workload, params)
        elif engine == "spark":
            result = run_spark(spark, built.layout, workload, params)
        else:
            raise ValueError(f"unknown engine {engine!r}")
        if is_post:
            attrs_by_id = built.dataset.pdf.set_index("id")[
                built.dataset.attr_cols
            ]
            result = post_filter(result, attrs_by_id, workload, k)
    result.wall_seconds = t.seconds
    return result
