"""Ground truth (Strategy A — exhaustive search) and recall metrics (S10).

§6.1: "We compute recall as the fraction of results present in the
ground truth (obtained via exhaustive search)." Ground truth for a
hybrid query is the exact top-k among tuples satisfying the attribute
constraint. Queries whose constraint matches fewer than k tuples have a
correspondingly smaller ground-truth set; recall divides by its size.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.distance import pairwise_scores, topk_rows
from repro.core.types import Dataset, Workload, vec_matrix
from repro.exec.engine import RESULT_SCHEMA, RunResult, merge_rows_to_result


def exhaustive_local(
    dataset: Dataset, workload: Workload, k: int, *, chunk: int = 4096
) -> RunResult:
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
        for start in range(0, len(qpos), chunk):
            qp = qpos[start : start + chunk]
            scores = pairwise_scores(
                workload.qvecs[qp], vecs[cand], dataset.metric
            )
            top_ids, top_scores = topk_rows(scores, ids[cand], k)
            for i, p in enumerate(qp):
                qid = int(workload.qids[p])
                result.ids_by_qid[qid] = top_ids[i]
                result.scores_by_qid[qid] = top_scores[i]
    return result


def exhaustive_spark(
    spark: SparkSession, dataset: Dataset, workload: Workload, k: int
) -> RunResult:
    """Distributed Strategy A: each data chunk emits its local top-k per
    query via mapInPandas; ``merge_rows_to_result`` keeps the global top-k."""
    df = dataset.to_spark(spark)
    metric = dataset.metric
    templates = workload.templates
    qvecs = workload.qvecs
    qtemplates = workload.qtemplates
    attr_cols = dataset.attr_cols

    def fn(it):
        for pdf_chunk in it:
            ids = pdf_chunk["id"].to_numpy(dtype=np.int64)
            vecs = vec_matrix(pdf_chunk["vec"])
            attrs = pdf_chunk[attr_cols]
            for tid in np.unique(qtemplates):
                template = templates[int(tid)]
                cand = (
                    np.flatnonzero(template.mask(attrs))
                    if len(template)
                    else np.arange(len(pdf_chunk))
                )
                if not len(cand):
                    continue
                qpos = np.flatnonzero(qtemplates == tid)
                scores = pairwise_scores(qvecs[qpos], vecs[cand], metric)
                top_ids, top_scores = topk_rows(scores, ids[cand], k)
                n = top_ids.size
                yield pd.DataFrame(
                    {
                        "qpos": np.repeat(qpos, top_ids.shape[1]),
                        "tid": np.full(n, tid),
                        "id": top_ids.ravel(),
                        "score": top_scores.ravel(),
                        "scanned": np.zeros(n, dtype=np.int64),
                        "dcomp": np.zeros(n, dtype=np.int64),
                    }
                )

    rows = df.mapInPandas(fn, schema=RESULT_SCHEMA).toPandas()
    return merge_rows_to_result(rows, workload, k)


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
