"""Query → partition routing for every layout kind (S8).

Routing happens on the driver (routing metadata — qd-tree semantic
descriptions, range edges, or the global IVF centroid table — is small)
and produces the routed-query table ``(pid, qpos, tid, nprobe)`` that both
engines group by ``pid``. ``nprobe`` is how many lists the query probes in
that partition; the partition picks that many of its own nearest lists.

- ``hqi``: a template (plus, when m > 0, the query's m nearest §4.1.1
  centroids) is routed to every leaf whose semantic description subsumes
  it, probing its template's nprobe lists there;
- ``range``: Strategy C — an ``attr < v`` or ``attr <= v`` predicate over
  the partitioning attribute selects the overlapping buckets, any other
  template scans all buckets, probing its template's nprobe lists in each;
- ``flat``: the query's nprobe nearest *global* IVF centroids, in
  (score, list id) order, are its posting lists; each (query, bucket) row
  counts those that live in that bucket. The bucket stores its lists in
  global order, so on exact score ties its own nearest lists are the ones
  counted here.

A template missing from ``nprobe_by_tid`` raises ``KeyError`` on every
layout. For ``hqi`` and ``range`` each distinct template is routed once,
and, when m > 0, each routing centroid; the query × partition matrix that
results is expanded to rows in one step, ``_expand``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.distance import pairwise_scores, topk_rows
from repro.core.predicates import Cmp, In
from repro.core.types import Workload
from repro.exec.engine import ExecParams
from repro.index.layout import CENTROID_COL, PartitionPlan, nearest_routing_centroids

ROUTE_COLUMNS = ["pid", "qpos", "tid", "nprobe"]


def _expand(
    workload: Workload, params: ExecParams, routed: np.ndarray, by_template: bool
) -> pd.DataFrame:
    """Routed rows of the ``(nq, n_parts)`` bool matrix ``routed``: by
    template, then query position (or by position only), each query's pids
    ascending, each row with its template's nprobe."""
    tids, key = np.unique(workload.qtemplates, return_inverse=True)
    nprobe = np.array([params.nprobe(int(t)) for t in tids], dtype=np.int64)
    qpos = (
        np.argsort(workload.qtemplates, kind="stable")
        if by_template
        else np.arange(workload.nq)
    )
    row_q, pid = np.nonzero(routed[qpos])
    qpos = qpos[row_q]
    return pd.DataFrame(
        {
            "pid": pid,
            "qpos": qpos,
            "tid": workload.qtemplates[qpos],
            "nprobe": nprobe[key[qpos]],
        }
    )


def _per_template(workload: Workload, route) -> np.ndarray:
    """``(nq, n_parts)`` bool: ``route`` maps the distinct templates to
    their partition masks, each template routed once."""
    tids, key = np.unique(workload.qtemplates, return_inverse=True)
    return route([workload.templates[int(t)] for t in tids])[key]


def _route_hqi(plan: PartitionPlan, workload: Workload, params: ExecParams) -> pd.DataFrame:
    tree = plan.tree
    routed = _per_template(
        workload, lambda ts: tree.route_groups([tree.group_for(list(t)) for t in ts])
    )
    if plan.m == 0:
        return _expand(workload, params, routed, by_template=True)
    # A query's partition must also hold one of its m nearest centroids
    # (an unknown centroid cannot prune). Rows by query position.
    holds = tree.route_groups(
        [
            tree.group_for([], [In(CENTROID_COL, [c])])
            for c in range(len(plan.routing_centroids))
        ]
    )
    qc = nearest_routing_centroids(workload.qvecs, plan.routing_centroids, plan.m)
    return _expand(
        workload, params, routed & holds[qc].any(axis=1), by_template=False
    )


def _range_pids(template, plan: PartitionPlan) -> list[int]:
    for p in template:
        if (
            isinstance(p, Cmp)
            and p.attr == plan.range_attr
            and p.op in ("<", "<=")
        ):
            # Partition b covers [edges[b-1], edges[b]): "attr < v" touches
            # those whose lower edge is below v, "attr <= v" those whose
            # lower edge is at most v.
            side = "left" if p.op == "<" else "right"
            n = 1 + int(np.searchsorted(plan.range_edges, p.value, side=side))
            return list(range(min(n, plan.n_parts)))
    return list(range(plan.n_parts))  # no prunable predicate: scan all


def _route_range(plan: PartitionPlan, workload: Workload, params: ExecParams) -> pd.DataFrame:
    def route(templates):
        # Each template's pids are a prefix of the buckets.
        n = np.array([len(_range_pids(t, plan)) for t in templates], dtype=np.int64)
        return np.arange(plan.n_parts) < n[:, None]

    return _expand(workload, params, _per_template(workload, route), by_template=True)


def _route_flat(plan: PartitionPlan, workload: Workload, params: ExecParams) -> pd.DataFrame:
    n_lists, n_buckets = len(plan.global_centroids), plan.n_buckets
    cols = {c: [np.empty(0, dtype=np.int64)] for c in ROUTE_COLUMNS}
    for tid in np.unique(workload.qtemplates).tolist():
        qpos = workload.queries_of_template(tid)
        nprobe = min(params.nprobe(tid), n_lists)
        scores = pairwise_scores(
            workload.qvecs[qpos], plan.global_centroids, params.metric
        )
        # Each query's nearest lists by (score, list id), counted per bucket.
        nearest, _ = topk_rows(scores, np.arange(n_lists), nprobe)
        cell = np.arange(len(qpos))[:, None] * n_buckets + nearest % n_buckets
        counts = np.bincount(
            cell.ravel(), minlength=len(qpos) * n_buckets
        ).reshape(len(qpos), n_buckets)
        row_q, pid = np.nonzero(counts)
        cols["pid"].append(pid)
        cols["qpos"].append(qpos[row_q])
        cols["tid"].append(np.full(len(pid), tid, dtype=np.int64))
        cols["nprobe"].append(counts[row_q, pid])
    return pd.DataFrame({c: np.concatenate(v) for c, v in cols.items()})


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
