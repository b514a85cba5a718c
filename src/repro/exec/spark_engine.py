"""Distributed batch executor (S8): Algorithm 3 over DataFrame partitions.

The routed-query table is cogrouped by partition id with the layout
DataFrame, filtered to the routed partitions so unrouted ones are never
read; each ``applyInPandas`` task rebuilds its partition's IVF index and
runs the shared ``search_partition``. The driver collects the
tasks' rows — at most k per (query, routed partition), plus one counter
row per (partition, template) — and merges them with
``merge_rows_to_result``, as the local engine does.

The query-side payload (query vectors, templates, per-template nprobe)
travels inside the task closure — a few MB at reproduction scale,
mirroring how the paper keeps the query batch in memory on one node.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.types import Workload
from repro.exec.engine import (
    ExecParams,
    PartitionData,
    RunResult,
    Timer,
    empty_result_frame,
    merge_rows_to_result,
    search_partition,
)
from repro.exec.routing import route_queries
from repro.index.layout import SparkLayout

_ROUTE_SCHEMA = T.StructType(
    [
        T.StructField("pid", T.LongType(), False),
        T.StructField("qpos", T.LongType(), False),
        T.StructField("tid", T.LongType(), False),
        T.StructField("lists", T.ArrayType(T.LongType()), True),
    ]
)

_RESULT_SCHEMA = T.StructType(
    [
        T.StructField("qpos", T.LongType(), False),
        T.StructField("tid", T.LongType(), False),
        T.StructField("id", T.LongType(), False),
        T.StructField("score", T.DoubleType(), False),
        T.StructField("scanned", T.LongType(), False),
        T.StructField("dcomp", T.LongType(), False),
    ]
)


def run_spark(
    spark: SparkSession,
    layout: SparkLayout,
    workload: Workload,
    params: ExecParams,
) -> RunResult:
    with Timer() as t:
        routed = route_queries(layout.plan, workload, params)
        rows = empty_result_frame() if routed.empty else _search_rows(
            spark, layout, routed, params
        )
        result = merge_rows_to_result(rows, workload, params.k)
    result.wall_seconds = t.seconds
    return result


def _search_rows(
    spark: SparkSession,
    layout: SparkLayout,
    routed: pd.DataFrame,
    params: ExecParams,
) -> pd.DataFrame:
    """Every partition's ``search_partition`` rows, collected in one action."""
    routed_df = spark.createDataFrame(routed, schema=_ROUTE_SCHEMA)
    layout_df = layout.df.filter(F.col("pid").isin(routed["pid"].unique().tolist()))
    attr_cols = layout.attr_cols
    lists_are_global = layout.plan.lists_are_global
    centroids_by_pid = (
        {-1: layout.plan.global_centroids}
        if lists_are_global
        else layout.centroids_by_pid
    )

    def fn(key, q_pdf: pd.DataFrame, layout_pdf: pd.DataFrame) -> pd.DataFrame:
        if q_pdf.empty or layout_pdf.empty:
            return empty_result_frame()
        pid = int(key[0])
        cents = (
            centroids_by_pid[-1] if lists_are_global else centroids_by_pid[pid]
        )
        data = PartitionData.from_layout_chunk(
            pid,
            layout_pdf,
            cents,
            attr_cols,
            lists_are_global=lists_are_global,
        )
        return search_partition(data, q_pdf, params)

    return (
        routed_df.groupBy("pid")
        .cogroup(layout_df.groupBy("pid"))
        .applyInPandas(fn, schema=_RESULT_SCHEMA)
        .toPandas()
    )
