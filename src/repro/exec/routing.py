"""Query → partition routing for every layout kind (S8).

Routing happens on the driver (routing metadata — qd-tree semantic
descriptions, range edges, or the global IVF centroid table — is small)
and produces the routed-query table ``(pid, qpos, tid[, lists])`` that
both engines group by ``pid``:

- ``hqi``: a template (plus, when m > 0, the query's m nearest §4.1.1
  centroids) is routed to every leaf whose semantic description subsumes
  it;
- ``range``: Strategy C — an ``attr < v`` or ``attr <= v`` predicate over
  the partitioning attribute selects the overlapping buckets, any other
  template scans all buckets;
- ``flat``: the query's nprobe nearest *global* IVF centroids, in
  (score, list id) order, determine its posting lists; each (query,
  bucket) row carries, in that order, the list ids that live in that
  bucket (a slice of one flat array per template); a template missing
  from ``nprobe_by_tid`` raises ``KeyError``.

For ``hqi`` and ``range`` each distinct template (or, when m > 0,
template and centroid set) is routed once and its pid list expanded to
its queries' rows in one step, ``_expand``.
"""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from repro.core.distance import pairwise_scores, topk_rows
from repro.core.predicates import Cmp, In
from repro.core.types import Workload
from repro.exec.engine import ExecParams
from repro.index.layout import CENTROID_COL, PartitionPlan, nearest_routing_centroids

ROUTE_COLUMNS = ["pid", "qpos", "tid", "lists"]


def _expand(
    qpos: np.ndarray, tids: np.ndarray, key: np.ndarray, pids_of_key: list
) -> pd.DataFrame:
    """Routed rows for queries ``qpos`` (in row order): query ``i`` goes to
    every pid of ``pids_of_key[key[i]]``, in that list's order."""
    lens = np.fromiter(map(len, pids_of_key), np.int64, len(pids_of_key))
    key_start = np.concatenate([[0], np.cumsum(lens)])[:-1]
    flat = np.fromiter(itertools.chain.from_iterable(pids_of_key), np.int64)
    counts = lens[key]
    row_q = np.repeat(np.arange(len(qpos)), counts)
    # Row r is entry r - row_start of its query's pid list.
    row_start = np.repeat(np.cumsum(counts) - counts, counts)
    return pd.DataFrame(
        {
            "pid": flat[key_start[key][row_q] + np.arange(len(row_q)) - row_start],
            "qpos": qpos[row_q],
            "tid": tids[row_q],
            "lists": None,
        }
    )


def _by_template(workload: Workload, pids_of_template) -> pd.DataFrame:
    """Route every query to its template's pids; rows by template, then
    query position."""
    qpos = np.argsort(workload.qtemplates, kind="stable")
    tids, key = np.unique(workload.qtemplates, return_inverse=True)
    pids = [pids_of_template(workload.templates[int(t)]) for t in tids]
    return _expand(qpos, workload.qtemplates[qpos], key[qpos], pids)


def _route_hqi(plan: PartitionPlan, workload: Workload, params: ExecParams) -> pd.DataFrame:
    tree = plan.tree
    if plan.m == 0:
        return _by_template(
            workload, lambda t: tree.route_group(tree.group_for(list(t)))
        )
    # A query's pids depend on its template and its m nearest centroids;
    # route each distinct pair once. Rows by query position.
    qc = nearest_routing_centroids(workload.qvecs, plan.routing_centroids, plan.m)
    keys, key = np.unique(
        np.column_stack([workload.qtemplates, qc]), axis=0, return_inverse=True
    )
    pids = [
        tree.route_group(
            tree.group_for(
                list(workload.templates[int(k[0])]),
                [In(CENTROID_COL, [int(c)]) for c in k[1:]],
            )
        )
        for k in keys
    ]
    qpos = np.arange(workload.nq)
    return _expand(qpos, workload.qtemplates, key.ravel(), pids)


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
    return _by_template(workload, lambda t: _range_pids(t, plan))


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
