"""Ground truth (Strategy A — exhaustive search) and recall metrics (S10).

§6.1: "We compute recall as the fraction of results present in the
ground truth (obtained via exhaustive search)." Ground truth for a
hybrid query is the exact top-k among tuples satisfying the attribute
constraint. Queries whose constraint matches fewer than k tuples have a
correspondingly smaller ground-truth set; recall divides by its size.
"""
from __future__ import annotations

import numpy as np

from repro.core.distance import pairwise_scores, topk_rows
from repro.core.types import Dataset, Workload
from repro.exec.engine import RunResult

_CHUNK = 4096  # queries per score matrix


def exhaustive_local(dataset: Dataset, workload: Workload, k: int) -> RunResult:
    """Exact per-template brute force: filter, then a chunked matmul scan."""
    result = RunResult()
    vecs = dataset.vecs()
    ids = dataset.ids()
    pdf = dataset.pdf
    for tid in np.unique(workload.qtemplates):
        tid = int(tid)
        template = workload.templates[tid]
        cand = np.flatnonzero(template.mask(pdf)) if len(template) else np.arange(len(pdf))
        qpos = workload.queries_of_template(tid)
        if not len(cand):
            for qp in qpos:
                result.ids_by_qid[int(workload.qids[qp])] = np.empty(0, np.int64)
                result.scores_by_qid[int(workload.qids[qp])] = np.empty(0)
            continue
        for start in range(0, len(qpos), _CHUNK):
            qp = qpos[start : start + _CHUNK]
            scores = pairwise_scores(
                workload.qvecs[qp], vecs[cand], dataset.metric
            )
            top_ids, top_scores = topk_rows(scores, ids[cand], k)
            for i, p in enumerate(qp):
                qid = int(workload.qids[p])
                result.ids_by_qid[qid] = top_ids[i]
                result.scores_by_qid[qid] = top_scores[i]
    return result


def recall_at_k(result: RunResult, gt: RunResult, qids=None) -> float:
    """Mean over queries of |result ∩ gt| / |gt| (queries with empty
    ground truth are skipped — no correct answer exists)."""
    vals = []
    for qid in (qids if qids is not None else gt.ids_by_qid):
        qid = int(qid)
        g = gt.ids_by_qid.get(qid)
        if g is None or len(g) == 0:
            continue
        r = result.ids_by_qid.get(qid, np.empty(0, np.int64))
        vals.append(len(set(g.tolist()) & set(r.tolist())) / len(g))
    return float(np.mean(vals)) if vals else 1.0


def recall_by_template(
    result: RunResult, gt: RunResult, workload: Workload
) -> dict[int, float]:
    out = {}
    for tid in np.unique(workload.qtemplates):
        qids = workload.qids[workload.queries_of_template(int(tid))]
        out[int(tid)] = recall_at_k(result, gt, qids=qids)
    return out
