"""End-to-end benchmark runner for Tables 3 and 4 (S14).

For each (dataset, approach): build the index for Spark (timed — Table 4:
the partitions are trained on the driver, then shipped to Spark once),
tune per-template nprobe on a query sample with the local engine over the
same partitions (§6.1's "nprobe is tuned for each query template to reach
the target recall"), then execute the full workload on both engines
(timed — Table 3) and record recall, tuples scanned, and distance
computations.

Approach roster per dataset follows §6.1:
- RelatedQS: HQI (qd-tree, trained on t0), PreFilter, PostFilter; Range NA;
- LP: HQI (no history => flat layout + batching), PreFilter, PostFilter;
  Range NA;
- SIFT / MSTuring / YandexT2I: all four approaches.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession

from repro.bench.config import Scale
from repro.bench.datasets import bigann_lite, bigann_workload
from repro.exec.recall import exhaustive_local, recall_at_k
from repro.exec.strategies import RangeNotApplicable, build_index, run_queries
from repro.exec.tuning import sample_workload, tune_nprobe
from repro.kg.entities import kg_entities
from repro.kg.workload import lp_workload, relatedqs_workload

DATASETS = ("RelatedQS", "LP", "MSTuring", "SIFT", "YandexT2I")
APPROACH_ORDER = ("hqi", "prefilter", "postfilter", "range")
_FETCH_K_CAP = 256  # PostFilter's unfiltered candidates per query, at most


@dataclass
class BenchRow:
    dataset: str
    approach: str
    build_seconds: float = float("nan")
    run_seconds: float = float("nan")  # single-node engine (paper setting)
    spark_run_seconds: float = float("nan")  # distributed engine, warm
    recall: float = float("nan")
    tuples_scanned: int = 0
    distance_computations: int = 0
    note: str = ""
    nprobe_by_tid: dict = field(default_factory=dict)

    @property
    def applicable(self) -> bool:
        return self.note != "NA"


def load_dataset(name: str, scale: Scale):
    """(dataset, workload, indexing_workload_or_None) for one Table 2 row."""
    if name == "RelatedQS":
        ds = kg_entities(n=scale.kg_n, dim=scale.kg_dim, seed=0)
        splits = relatedqs_workload(
            ds, n_queries_per_split=scale.relatedqs_per_split, seed=0
        )
        return ds, splits[0], splits[0]
    if name == "LP":
        ds = kg_entities(n=scale.kg_n, dim=scale.kg_dim, seed=0)
        wl = lp_workload(ds, n_queries=scale.lp_queries, seed=0)
        return ds, wl, None  # no historical log: HQI builds the flat layout
    key = {"MSTuring": "msturing", "SIFT": "sift", "YandexT2I": "yandext2i"}[name]
    ds = bigann_lite(key, n=scale.bigann_n, seed=0)
    nq = scale.bigann_nq if name != "SIFT" else max(10, scale.bigann_nq // 10)
    wl = bigann_workload(ds, nq=nq, seed=1)
    return ds, wl, wl


def _template_selectivities(dataset, workload) -> dict[int, float]:
    return {
        int(t): max(float(workload.templates[int(t)].mask(dataset.pdf).mean()), 1e-9)
        for t in np.unique(workload.qtemplates)
    }


def _postfilter_fetch_k(dataset, workload, k: int) -> int:
    """Strategy D needs ~k/selectivity unfiltered candidates; a cap of
    ``_FETCH_K_CAP`` bounds runtime (the paper's '-' entries arise when the
    cap is insufficient)."""
    sels = _template_selectivities(dataset, workload)
    return int(min(_FETCH_K_CAP, max(4 * k, k / min(sels.values()))))


def full_probe(dataset) -> int:
    """An nprobe that scans every IVF list (each index has ~sqrt(n))."""
    return int(np.sqrt(dataset.n)) + 1


def tune(built, workload, gt, scale: Scale, fetch_k: int | None = None):
    """§6.1's per-template nprobe tuning, shared by Tables 3 and 5: run a
    sample of ``workload`` on the local engine and raise each template's
    nprobe until it reaches ``scale.target_recall`` against ``gt``, up to
    full probe. Returns the ``TuneOutcome``."""
    sample = sample_workload(workload, scale.tune_per_template, seed=0)

    def run_fn(cfg):
        return run_queries(
            built, sample, k=scale.k, nprobe_by_tid=cfg, engine="local",
            fetch_k=fetch_k,
        )

    return tune_nprobe(
        run_fn, sample, gt, target=scale.target_recall,
        max_nprobe=full_probe(built.dataset),
    )


def run_approach(
    spark: SparkSession,
    name: str,
    approach: str,
    dataset,
    workload,
    index_workload,
    scale: Scale,
    gt,
) -> BenchRow:
    row = BenchRow(dataset=name, approach=approach)
    try:
        if approach == "range" and index_workload is None:
            # LP: no range-partitionable attribute either (type-equality
            # templates) — same NA as RelatedQS (paper footnote 2).
            raise RangeNotApplicable("no range predicate in workload")
        built = build_index(
            approach,
            dataset,
            # Range's applicability is a property of the *query* workload
            # (LP has no historical log but its templates still decide NA).
            index_workload if approach == "hqi"
            else workload if approach == "range"
            else None,
            engine="spark",
            spark=spark,
            min_size=scale.min_size,
            n_buckets=scale.n_buckets,
            range_parts=scale.range_parts,
        )
    except RangeNotApplicable:
        row.note = "NA"
        return row
    row.build_seconds = built.build_seconds

    fetch_k = (
        _postfilter_fetch_k(dataset, workload, scale.k)
        if approach == "postfilter"
        else None
    )
    outcome = tune(built, workload, gt, scale, fetch_k=fetch_k)
    row.nprobe_by_tid = outcome.nprobe_by_tid
    if not outcome.reached:
        row.note = "recall target not reached"

    # Timed single-node run: comparable to the paper's one-box FAISS
    # setting, free of the distributed engine's constant scheduling floor
    # (see EXPERIMENTS.md discussion).
    result = run_queries(
        built,
        workload,
        k=scale.k,
        nprobe_by_tid=outcome.nprobe_by_tid,
        engine="local",
        fetch_k=fetch_k,
    )
    row.run_seconds = result.wall_seconds
    row.recall = recall_at_k(result, gt)
    row.tuples_scanned = result.tuples_scanned
    row.distance_computations = result.distance_computations

    # Timed distributed run (one untimed warm-up first: cache + codegen).
    spark_args = dict(
        k=scale.k, nprobe_by_tid=outcome.nprobe_by_tid, engine="spark",
        spark=spark, fetch_k=fetch_k,
    )
    run_queries(built, workload, **spark_args)
    spark_result = run_queries(built, workload, **spark_args)
    row.spark_run_seconds = spark_result.wall_seconds
    if built.layout is not None:
        built.layout.unpersist()
    return row


def run_dataset(
    spark: SparkSession,
    name: str,
    scale: Scale,
    approaches=APPROACH_ORDER,
) -> list[BenchRow]:
    dataset, workload, index_workload = load_dataset(name, scale)
    gt = exhaustive_local(dataset, workload, scale.k)
    rows = []
    for approach in approaches:
        rows.append(
            run_approach(
                spark, name, approach, dataset, workload, index_workload,
                scale, gt,
            )
        )
    return rows


def run_all(
    spark: SparkSession, scale: Scale, datasets=DATASETS
) -> list[BenchRow]:
    """All (dataset, approach) rows: Tables 3 and 4."""
    rows: list[BenchRow] = []
    for name in datasets:
        rows.extend(run_dataset(spark, name, scale))
    return rows
