"""Table 5: robustness to future queries (§6.4).

HQI is trained (qd-tree + per-partition IVF + nprobe tuning) using only
split t0 of RelatedQS, then every split t0..t3 is executed against that
frozen index. PreFilter, which uses no workload information, runs the
same splits. The paper reports QPS normalized by HQI at t0; filter
stability keeps HQI's advantage (~30x) across the unseen splits.

A template that appears in a later split but never in t0 has no tuned
nprobe; it runs at ``max_nprobe`` (full probe: conservative and exact),
and ``RobustnessRow.full_probe_tids`` records which templates did.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession

from repro.bench.config import Scale
from repro.core.types import Workload
from repro.exec.recall import exhaustive_local, recall_at_k
from repro.exec.strategies import build_index, run_queries
from repro.exec.tuning import sample_workload, tune_nprobe
from repro.kg.entities import kg_entities
from repro.kg.workload import relatedqs_workload


@dataclass
class RobustnessRow:
    approach: str
    qps: list[float] = field(default_factory=list)  # per split t0..t3
    recall: list[float] = field(default_factory=list)
    full_probe_tids: list[int] = field(default_factory=list)  # absent from t0


def split_nprobe(
    tuned: dict[int, int], splits: list[Workload], max_nprobe: int
) -> tuple[dict[int, int], list[int]]:
    """The nprobe every split runs with: ``tuned`` (from t0) for the
    templates t0 has, ``max_nprobe`` for the others. Returns the table and
    the templates that run at full probe, ascending."""
    seen = {tid for w in splits for tid in w.template_counts()}
    unseen = sorted(seen - set(tuned))
    return {**tuned, **dict.fromkeys(unseen, max_nprobe)}, unseen


def run_robustness(spark: SparkSession, scale: Scale) -> list[RobustnessRow]:
    dataset = kg_entities(n=scale.kg_n, dim=scale.kg_dim, seed=0)
    splits = relatedqs_workload(
        dataset, n_queries_per_split=scale.relatedqs_per_split, seed=0
    )
    gts = [exhaustive_local(dataset, w, scale.k) for w in splits]
    max_nprobe = int(np.sqrt(dataset.n)) + 1
    rows = []
    for approach in ("hqi", "prefilter"):
        # Train and tune on t0 only.
        built = build_index(
            approach,
            dataset,
            splits[0] if approach == "hqi" else None,
            engine="spark",
            spark=spark,
            min_size=scale.min_size,
            n_buckets=scale.n_buckets,
        )
        sample = sample_workload(splits[0], scale.tune_per_template, seed=0)

        def run_fn(cfg):
            return run_queries(
                built, sample, k=scale.k, nprobe_by_tid=cfg, engine="local"
            )

        outcome = tune_nprobe(
            run_fn, sample, gts[0], target=scale.target_recall,
            max_nprobe=max_nprobe,
        )
        row = RobustnessRow(approach=approach)
        nprobe_by_tid, row.full_probe_tids = split_nprobe(
            outcome.nprobe_by_tid, splits, max_nprobe
        )
        # Untimed warm-up (numpy/BLAS and cache warmth) so t0's QPS is not
        # penalized relative to later splits.
        run_queries(
            built, splits[0], k=scale.k,
            nprobe_by_tid=nprobe_by_tid, engine="local",
        )
        for w, gt in zip(splits, gts):
            # QPS from the single-node engine, matching the paper's
            # one-box setting (the distributed engine's constant floor
            # would flatten the ratios; see EXPERIMENTS.md).
            result = run_queries(
                built,
                w,
                k=scale.k,
                nprobe_by_tid=nprobe_by_tid,
                engine="local",
            )
            row.qps.append(w.nq / result.wall_seconds)
            row.recall.append(recall_at_k(result, gt))
        rows.append(row)
        if built.layout is not None:
            built.layout.unpersist()
    return rows
