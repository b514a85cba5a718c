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
- ``flat``: the query's nprobe nearest *global* IVF centroids, in
  (score, list id) order, determine its posting lists; each (query,
  bucket) row carries, in that order, the list ids that live in that
  bucket (a slice of one flat array per template); a template missing
  from ``nprobe_by_tid`` raises ``KeyError``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.distance import pairwise_scores, topk_rows
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
    n_lists = len(plan.global_centroids)
    pids, qposs, tids, lists = [], [], [], []
    for tid in np.unique(workload.qtemplates):
        tid = int(tid)
        qpos = workload.queries_of_template(tid)
        nprobe = min(params.nprobe(tid), n_lists)
        scores = pairwise_scores(
            workload.qvecs[qpos], plan.global_centroids, params.metric
        )
        # Each query's nearest lists, ordered by (score, list id).
        nearest, _ = topk_rows(scores, np.arange(n_lists), nprobe)
        # Vectorized grouping of the (query, list) pairs by (query, bucket):
        # stable lexsort keeps probe order inside each group.
        fq = np.repeat(qpos, nprobe)
        if not len(fq):
            continue
        fl = nearest.ravel()
        fb = fl % plan.n_buckets
        perm = np.lexsort((np.arange(len(fq)), fb, fq))
        fq, fl, fb = fq[perm], fl[perm], fb[perm]
        change = (np.diff(fq) != 0) | (np.diff(fb) != 0)
        starts = np.concatenate([[0], np.flatnonzero(change) + 1])
        pids.append(fb[starts])
        qposs.append(fq[starts])
        tids.append(np.full(len(starts), tid, dtype=np.int64))
        # Each (query, bucket) row's lists are a view of fl.
        bounds = np.append(starts, len(fl)).tolist()
        lists += [fl[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    if not lists:
        return pd.DataFrame(columns=ROUTE_COLUMNS)
    return pd.DataFrame(
        {
            "pid": np.concatenate(pids),
            "qpos": np.concatenate(qposs),
            "tid": np.concatenate(tids),
            "lists": lists,
        }
    )


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
