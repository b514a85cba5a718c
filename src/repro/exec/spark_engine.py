"""Distributed batch executor (S8): Algorithm 3 over DataFrame partitions.

The cached layout holds one packed row per index partition. A batch
filters it to the routed partitions, so unrouted ones are never read, and
one ``mapInPandas`` pass unpacks each routed row and runs the shared
``search_partition`` on that partition's routed queries — no shuffle. The
driver collects the tasks' rows — at most k per (query, routed
partition), plus one counter row per (partition, template) — and merges
them with ``merge_rows_to_result``, as the local engine does.

The query-side payload (query vectors, templates, per-template nprobe and
the routed rows of every partition) travels inside the task closure — a
few MB at reproduction scale, mirroring how the paper keeps the query
batch in memory on one node.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.types import Workload
from repro.exec.engine import (
    RESULT_SCHEMA,
    ExecParams,
    PartitionData,
    RunResult,
    Timer,
    empty_result_frame,
    from_ipc,
    merge_rows_to_result,
    search_partition,
    to_ipc,
)
from repro.exec.routing import route_queries
from repro.index.layout import SparkLayout


def run_spark(
    spark: SparkSession,
    layout: SparkLayout,
    workload: Workload,
    params: ExecParams,
) -> RunResult:
    with Timer() as t:
        routed = route_queries(layout.plan, workload, params)
        rows = empty_result_frame() if routed.empty else _search_rows(
            layout, routed, params
        )
        result = merge_rows_to_result(rows, workload, params.k)
    result.wall_seconds = t.seconds
    return result


def _search_rows(
    layout: SparkLayout, routed: pd.DataFrame, params: ExecParams
) -> pd.DataFrame:
    """Every routed partition's ``search_partition`` rows, collected in one
    action over the routed layout rows."""
    # Each partition's routed rows (four integer columns) travel as Arrow
    # IPC bytes.
    routed_by_pid = {int(pid): to_ipc(grp) for pid, grp in routed.groupby("pid")}

    def fn(batches):
        for batch in batches:
            for row in batch.to_dict("records"):
                data = PartitionData.unpack(row)
                yield search_partition(
                    data, from_ipc(routed_by_pid[data.pid]), params
                )

    return (
        layout.df.filter(F.col("pid").isin(list(routed_by_pid)))
        .mapInPandas(fn, schema=RESULT_SCHEMA)
        .toPandas()
    )
