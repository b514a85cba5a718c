"""Query → partition routing for every layout kind (S8).

Routing happens on the driver (routing metadata — qd-tree semantic
descriptions, range edges, or the global IVF centroid table — is small)
and produces the routed-query table ``(pid, qpos, tid[, lists])`` that
both engines group by ``pid``:

- ``hqi``: a template (plus, when m > 0, the query's m nearest §4.1.1
  centroids) is routed to every leaf whose semantic description subsumes
  it;
- ``range``: Strategy C — a ``attr < v`` predicate over the partitioning
  attribute selects the overlapping buckets, any other template scans
  all buckets;
- ``flat``: the query's nprobe nearest *global* IVF centroids determine
  its posting lists; each (query, bucket) row carries the list ids that
  live in that bucket.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.distance import pairwise_scores
from repro.core.predicates import Cmp, In
from repro.core.types import Workload
from repro.exec.engine import ExecParams
from repro.index.layout import CENTROID_COL, PartitionPlan

ROUTE_COLUMNS = ["pid", "qpos", "tid", "lists"]


def _route_hqi(plan: PartitionPlan, workload: Workload, params: ExecParams) -> pd.DataFrame:
    tree = plan.tree
    rows: list[tuple] = []
    if plan.m > 0:
        d = pairwise_scores(workload.qvecs, plan.routing_centroids, "l2")
        qc = np.argsort(d, axis=1, kind="stable")[:, : plan.m]
        cache: dict[tuple, list[int]] = {}
        for qpos in range(workload.nq):
            tid = int(workload.qtemplates[qpos])
            key = (tid, tuple(sorted(int(c) for c in qc[qpos])))
            pids = cache.get(key)
            if pids is None:
                group = tree.group_for(
                    list(workload.templates[tid]),
                    [In(CENTROID_COL, [c]) for c in key[1]],
                )
                pids = tree.route_group(group)
                cache[key] = pids
            rows.extend((p, qpos, tid, None) for p in pids)
    else:
        for tid in np.unique(workload.qtemplates):
            tid = int(tid)
            group = tree.group_for(list(workload.templates[tid]))
            pids = tree.route_group(group)
            for qpos in workload.queries_of_template(tid):
                rows.extend((p, int(qpos), tid, None) for p in pids)
    return pd.DataFrame(rows, columns=ROUTE_COLUMNS)


def _range_pids(template, plan: PartitionPlan) -> list[int]:
    for p in template:
        if (
            isinstance(p, Cmp)
            and p.attr == plan.range_attr
            and p.op in ("<", "<=")
        ):
            # Partition b covers [edges[b-1], edges[b]); "attr < v" touches
            # partitions whose lower edge is below v.
            n = 1 + int(np.searchsorted(plan.range_edges, p.value, side="left"))
            return list(range(min(n, plan.n_parts)))
    return list(range(plan.n_parts))  # no prunable predicate: scan all


def _route_range(plan: PartitionPlan, workload: Workload, params: ExecParams) -> pd.DataFrame:
    rows: list[tuple] = []
    for tid in np.unique(workload.qtemplates):
        tid = int(tid)
        pids = _range_pids(workload.templates[tid], plan)
        for qpos in workload.queries_of_template(tid):
            rows.extend((p, int(qpos), tid, None) for p in pids)
    return pd.DataFrame(rows, columns=ROUTE_COLUMNS)


def _route_flat(plan: PartitionPlan, workload: Workload, params: ExecParams) -> pd.DataFrame:
    frames = []
    for tid in np.unique(workload.qtemplates):
        tid = int(tid)
        qpos = workload.queries_of_template(tid)
        nprobe = min(
            params.nprobe_by_tid.get(tid, 1), len(plan.global_centroids)
        )
        scores = pairwise_scores(
            workload.qvecs[qpos], plan.global_centroids, params.metric
        )
        order = np.argsort(scores, axis=1, kind="stable")[:, :nprobe]
        # Vectorized grouping of the (query, list) pairs by (query, bucket):
        # stable lexsort keeps probe order inside each group.
        fq = np.repeat(qpos, nprobe)
        if not len(fq):
            continue
        fl = order.ravel()
        fb = fl % plan.n_buckets
        perm = np.lexsort((np.arange(len(fq)), fb, fq))
        fq, fl, fb = fq[perm], fl[perm], fb[perm]
        change = (np.diff(fq) != 0) | (np.diff(fb) != 0)
        cuts = np.flatnonzero(change) + 1
        starts = np.concatenate([[0], cuts])
        frames.append(
            pd.DataFrame(
                {
                    "pid": fb[starts],
                    "qpos": fq[starts],
                    "tid": tid,
                    "lists": np.split(fl, cuts),
                }
            )
        )
    if not frames:
        return pd.DataFrame(columns=ROUTE_COLUMNS)
    return pd.concat(frames, ignore_index=True)[ROUTE_COLUMNS]


def route_queries(
    plan: PartitionPlan, workload: Workload, params: ExecParams
) -> pd.DataFrame:
    if plan.kind == "hqi":
        return _route_hqi(plan, workload, params)
    if plan.kind == "range":
        return _route_range(plan, workload, params)
    if plan.kind == "flat":
        return _route_flat(plan, workload, params)
    raise ValueError(plan.kind)
