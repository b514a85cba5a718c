"""Benchmark scale configuration (DESIGN.md §6) and the Spark driver's
heap size.

The paper runs 100M vectors on a 64-vCPU box; the reproduction runs
~1000x smaller (``bench``) so the whole table suite finishes in minutes.
``test`` shrinks further for smoke runs.

This module imports no pyspark: the driver heap must be known before the
JVM starts.
"""
from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    name: str
    kg_n: int  # KG entities (RelatedQS / LP substrate)
    kg_dim: int
    relatedqs_per_split: int  # queries per temporal split
    lp_queries: int
    bigann_n: int  # base vectors per public dataset
    bigann_nq: int  # query vectors (x20 filters); SIFT uses nq/10
    tune_per_template: int  # tuning-sample queries per template
    k: int = 10
    target_recall: float = 0.8
    min_size: int = 1024  # qd-tree MIN_SIZE
    n_buckets: int = 8  # flat-IVF posting-list buckets
    range_parts: int = 16


SCALES = {
    "bench": Scale(
        name="bench",
        kg_n=60_000,
        kg_dim=32,
        relatedqs_per_split=6_000,
        lp_queries=6_000,
        bigann_n=40_000,
        bigann_nq=400,
        tune_per_template=20,
        min_size=2048,
        n_buckets=16,
    ),
    "test": Scale(
        name="test",
        kg_n=6_000,
        kg_dim=8,
        relatedqs_per_split=200,
        lp_queries=300,
        bigann_n=4_000,
        bigann_nq=30,
        tune_per_template=8,
        min_size=256,
    ),
}


def driver_mem() -> str:
    """Heap for the Spark driver JVM, e.g. ``"8g"``.

    ``SPARK_DRIVER_MEM`` overrides it. Otherwise it is half of MemTotal in
    whole GiB, clamped to 2–8g (2g when MemTotal cannot be read): the same
    rule as the test command in ROADMAP.md. ``spark.driver.memory`` is read
    when the JVM launches, so callers pass this before any SparkSession.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(max(kib // (2 << 20), 2), 8)}g"
