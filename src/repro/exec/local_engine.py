"""Local engine: the Spark engine's pipeline on the driver's cores.

Runs the exact same ``route_queries`` + ``search_partition`` +
``merge_rows_to_result`` pipeline as the Spark engine. The routed
partitions share only the query vectors, so each ``search_partition``
call is an independent task. A batch with enough routed rows runs them
in forked worker processes (``core.forkpool``), which inherit the index
and the routed rows: a task sends only its pid and returns its result
frame. The pool has ``min(CPUs in the affinity mask, routed partitions,
routed rows // _ROWS_PER_WORKER)`` workers and gets the partitions
largest expected scan first (Σ nprobe × rows per list), since the
largest sets the critical path. A pool costs about 40–50 ms before it
does any work, so smaller batches, among them most tuning rounds, search
inline (DESIGN.md §5 has the measurements). The frames are concatenated
in pid order either way, so the merge's input, and the result, do not
depend on the pool.

Runs every perfbench batch, nprobe tuning (cheap iteration) and the
tables' single-node timings, and is the parity oracle for the
distributed engine in tests.
"""
from __future__ import annotations

import pandas as pd

from repro.core.forkpool import fork_map
from repro.core.kmeans import cpus
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

# Routed rows a batch needs per worker before it searches in a pool; on
# fewer, a pool's fixed cost outweighs the work (DESIGN.md §5).
_ROWS_PER_WORKER = 256


def _search_routed(
    staged: tuple[dict[int, PartitionData], dict[int, pd.DataFrame], ExecParams],
    pid: int,
) -> pd.DataFrame:
    parts, routed_of, params = staged
    return search_partition(parts[pid], routed_of[pid], params)


def run_local(
    parts: dict[int, PartitionData],
    plan: PartitionPlan,
    workload: Workload,
    params: ExecParams,
) -> RunResult:
    with Timer() as t:
        routed = route_queries(plan, workload, params)
        routed_of = {
            int(pid): grp
            for pid, grp in routed.groupby("pid", sort=True)
            if int(pid) in parts
        }

        def expected_scan(pid: int) -> float:
            part = parts[pid]
            return routed_of[pid]["nprobe"].sum() * len(part.ids) / len(part.centroids)

        largest_first = sorted(routed_of, key=expected_scan, reverse=True)
        width = min(cpus(), len(routed_of), len(routed) // _ROWS_PER_WORKER)
        frames = fork_map(_search_routed, (parts, routed_of, params), largest_first, width)
        rows = (
            pd.concat([frames[pid] for pid in sorted(frames)], ignore_index=True)
            if frames
            else empty_result_frame()
        )
        result = merge_rows_to_result(rows, workload, params.k)
    result.wall_seconds = t.seconds
    return result
