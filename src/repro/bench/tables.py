"""Regenerate the paper's Tables 1–5 (DESIGN.md §4):

    PYTHONPATH=src python -m repro.bench.tables 1 2 3 4 5 --scale bench

For each table N asked for, writes ``bench_results/tableN.txt`` and
``bench_results/tableN.json`` (the rows as plain dicts, with the scale name
and ``os.cpu_count()``, so every number names the box it came from).
Tables 3 and 4 share one ``run_all``, the only part that needs Spark. After
writing every table, exits 1 if a result check (``check_table*``) failed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from repro.bench.config import SCALES, Scale, driver_mem
from repro.bench.e2e import DATASETS, BenchRow, run_all
from repro.bench.report import (
    format_details,
    format_table2,
    format_table3,
    format_table3_scans,
    format_table4,
    format_table5,
    table2_rows,
)
from repro.bench.robustness import RobustnessRow, run_robustness
from repro.kg.entities import kg_entities
from repro.kg.table1 import format_table1, workload_characteristics
from repro.kg.workload import relatedqs_workload

RESULTS_DIR = Path(__file__).resolve().parents[3] / "bench_results"


# Result checks: each returns one message per failed check, naming it.

def check_table1(templates: list[str]) -> list[str]:
    n = len(templates)
    return [] if n == 10 else [f"table1: {n} template rows, expected 10"]


def check_table3(rows: list[BenchRow], scale: Scale) -> list[str]:
    hqi = {r.dataset: r for r in rows if r.approach == "hqi"}
    floor = scale.target_recall - 0.05
    fails = [
        f"table3: HQI recall {r.recall:.3f} on {d} is below {floor:.2f}"
        for d, r in hqi.items() if not r.recall >= floor
    ]
    if set(hqi) != set(DATASETS):
        fails.append(f"table3: HQI rows for {sorted(hqi)}, expected all of {DATASETS}")
    return fails


def check_table4(rows: list[BenchRow]) -> list[str]:
    # LP has no query log, so HQI builds PreFilter's flat layout (§6.2);
    # the build must still be timed.
    if any(r.dataset == "LP" and r.approach == "hqi" and r.build_seconds > 0 for r in rows):
        return []
    return ["table4: LP's HQI build_seconds is not > 0"]


def check_table5(rows: list[RobustnessRow]) -> list[str]:
    hqi = next(r for r in rows if r.approach == "hqi")
    pre = next(r for r in rows if r.approach == "prefilter")
    fails = []
    # Filter stability: HQI's QPS stays roughly flat across unseen splits
    # (paper: <=5% drift; sub-second timings here add measurement noise).
    if not max(hqi.qps) / min(hqi.qps) < 1.6:
        fails.append(f"table5: HQI max/min QPS {max(hqi.qps) / min(hqi.qps):.2f} is not < 1.6")
    if not all(h > p for h, p in zip(hqi.qps, pre.qps)):
        fails.append("table5: HQI is not faster than PreFilter on every split")
    return fails


# Tables: each returns (title, text, rows, failed checks).

def _table1(scale: Scale, _e2e):
    ds = kg_entities(n=scale.kg_n, dim=scale.kg_dim, seed=0)
    splits = relatedqs_workload(ds, n_queries_per_split=scale.relatedqs_per_split, seed=0)
    df = workload_characteristics(ds, splits)
    return ("Table 1 (reproduction): RelatedQS-lite workload characteristics",
            format_table1(df), df.to_dict("records"), check_table1(list(df["template"])))


def _table2(scale: Scale, _e2e):
    rows = table2_rows(scale)
    return "Table 2 (reproduction): evaluation datasets", format_table2(rows), rows, []


def _table3(scale: Scale, e2e: list[BenchRow]):
    text = "\n\n".join([
        "(a) wall time, single-node engine (paper's setting)\n" + format_table3(e2e),
        "(b) wall time, distributed engine (one Spark job per batch, one task per slot)\n"
        + format_table3(e2e, time_attr="spark_run_seconds"),
        "(c) relative tuples scanned (paper's runtime proxy, §6.3)\n" + format_table3_scans(e2e),
        format_details(e2e),
    ])
    return ("Table 3 (reproduction): slowdown vs HQI @ recall >= 0.8",
            text, e2e, check_table3(e2e, scale))


def _table4(scale: Scale, e2e: list[BenchRow]):
    return ("Table 4 (reproduction): index generation time vs HQI",
            format_table4(e2e), e2e, check_table4(e2e))


def _table5(scale: Scale, _e2e):
    rows = run_robustness(scale)
    return ("Table 5 (reproduction): QPS by temporal split, normalized by HQI @ t0",
            format_table5(rows), rows, check_table5(rows))


TABLES = {1: _table1, 2: _table2, 3: _table3, 4: _table4, 5: _table5}


def _plain(x):
    """JSON values: dataclasses as dicts, numpy scalars as numbers, NaN as null."""
    if dataclasses.is_dataclass(x):
        x = dataclasses.asdict(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    x = x.item() if hasattr(x, "item") else x
    return None if isinstance(x, float) and math.isnan(x) else x


def _spark():
    from pyspark.sql import SparkSession

    mem = driver_mem()
    unit = {"g": 1024, "m": 1}.get(mem[-1].lower())
    if unit is None or not mem[:-1].isdigit():
        raise ValueError(f"driver memory {mem!r} is not like '8g' or '8192m'")
    return (
        SparkSession.builder.appName("repro-tables")
        .config("spark.driver.memory", mem)
        # PostFilter's LP Spark batch collects up to fetch_k = 256 rows per
        # (query, bucket) to the driver for the merge: 1149 MiB of
        # serialized task results at bench scale, over the 1 GiB default.
        .config("spark.driver.maxResultSize", f"{int(mem[:-1]) * unit // 2}m")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def main(argv: list[str] | None = None, out_dir: Path = RESULTS_DIR) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench.tables",
        description="Regenerate the paper's Tables 1-5 into bench_results/.",
    )
    ap.add_argument("tables", nargs="+", type=int, choices=sorted(TABLES), metavar="N",
                    help="table numbers to regenerate, from 1 to 5")
    ap.add_argument("--scale", choices=sorted(SCALES), default="bench",
                    help="workload scale preset (see repro.bench.config)")
    args = ap.parse_args(argv)
    scale, wanted = SCALES[args.scale], sorted(set(args.tables))
    spark = _spark() if {3, 4} & set(wanted) else None
    out, e2e, failures = Path(out_dir), None, []
    try:
        for n in wanted:
            if n in (3, 4) and e2e is None:
                e2e = run_all(spark, scale)
            title, text, rows, fails = TABLES[n](scale, e2e)
            failures += fails
            out.mkdir(parents=True, exist_ok=True)
            (out / f"table{n}.txt").write_text(f"{title}\n{text}\n")
            record = {"table": n, "scale": scale.name, "cpu_count": os.cpu_count(),
                      "rows": _plain(rows)}
            (out / f"table{n}.json").write_text(json.dumps(record, indent=1) + "\n")
            print(f"\n{title}\n{text}", flush=True)
    finally:
        if spark is not None:
            spark.stop()
    for f in failures:
        print(f"CHECK FAILED {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
