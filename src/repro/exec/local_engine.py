"""Single-process reference engine.

Runs the exact same ``route_queries`` + ``search_partition`` +
``merge_rows_to_result`` pipeline as the Spark engine, looping over
partitions on the driver. Used for nprobe tuning (cheap iteration) and
as the parity oracle for the distributed engine in tests.
"""
from __future__ import annotations

import pandas as pd

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
from repro.index.layout import PartitionPlan


def run_local(
    parts: dict[int, PartitionData],
    plan: PartitionPlan,
    workload: Workload,
    params: ExecParams,
) -> RunResult:
    with Timer() as t:
        routed = route_queries(plan, workload, params)
        frames = []
        for pid, grp in routed.groupby("pid", sort=True):
            part = parts.get(int(pid))
            if part is None:
                continue
            frames.append(search_partition(part, grp, params))
        rows = pd.concat(frames, ignore_index=True) if frames else empty_result_frame()
        result = merge_rows_to_result(rows, workload, params.k)
    result.wall_seconds = t.seconds
    return result
