"""Table formatting for the reproduction reports (S14).

Produces the same row/column structure as the paper's Tables 2-5 so
EXPERIMENTS.md can put paper and measured numbers side by side.
"""
from __future__ import annotations

import numpy as np

from repro.bench.e2e import APPROACH_ORDER, DATASETS, BenchRow, load_dataset

_LABEL = {
    "hqi": "HQI",
    "prefilter": "PreFilter",
    "postfilter": "PostFilter",
    "range": "Range",
}


def _rows_by(rows: list[BenchRow]) -> dict[tuple[str, str], BenchRow]:
    return {(r.dataset, r.approach): r for r in rows}


def _fmt_rel(value: float, note: str = "") -> str:
    if note == "NA":
        return "NA"
    if np.isnan(value):
        return "-"
    suffix = " *" if note else ""
    return f"{value:.2f}x{suffix}"


def format_table3(
    rows: list[BenchRow], datasets=DATASETS, time_attr: str = "run_seconds"
) -> str:
    """Slowdown vs HQI @ the recall target (paper Table 3). Entries
    marked '*' did not reach the recall target at the probe cap (the
    paper prints '-' for these). ``time_attr`` selects the engine:
    ``run_seconds`` (single-node, the paper's setting) or
    ``spark_run_seconds`` (distributed: one Spark job per batch, whose
    fixed scheduling cost compresses ratios — see EXPERIMENTS.md)."""
    by = _rows_by(rows)
    header = "Approach   | " + " | ".join(f"{d:>10}" for d in datasets)
    out = [header, "-" * len(header)]
    for ap in APPROACH_ORDER:
        cells = []
        for d in datasets:
            r, h = by.get((d, ap)), by.get((d, "hqi"))
            if r is None:
                cells.append(f"{'-':>10}")
                continue
            rel = (
                getattr(r, time_attr) / getattr(h, time_attr)
                if r.applicable and h is not None
                else float("nan")
            )
            cells.append(f"{_fmt_rel(rel, r.note):>10}")
        out.append(f"{_LABEL[ap]:<10} | " + " | ".join(cells))
    return "\n".join(out)


def format_table3_scans(rows: list[BenchRow], datasets=DATASETS) -> str:
    """Work-normalized companion to Table 3: relative tuples scanned
    (the paper's own proxy — §6.3 'a reduction in tuple scans
    corresponds to a reduction in runtime')."""
    by = _rows_by(rows)
    header = "Approach   | " + " | ".join(f"{d:>10}" for d in datasets)
    out = [header, "-" * len(header)]
    for ap in APPROACH_ORDER:
        cells = []
        for d in datasets:
            r, h = by.get((d, ap)), by.get((d, "hqi"))
            if r is None or not r.applicable or h is None or not h.tuples_scanned:
                cells.append(f"{'NA' if r is not None and not r.applicable else '-':>10}")
                continue
            rel = r.tuples_scanned / h.tuples_scanned
            cells.append(f"{_fmt_rel(rel, r.note):>10}")
        out.append(f"{_LABEL[ap]:<10} | " + " | ".join(cells))
    return "\n".join(out)


def format_table4(rows: list[BenchRow], datasets=DATASETS) -> str:
    """Index generation time relative to HQI (paper Table 4 — which
    omits PostFilter since it shares PreFilter's index)."""
    by = _rows_by(rows)
    header = "Approach   | " + " | ".join(f"{d:>10}" for d in datasets)
    out = [header, "-" * len(header)]
    for ap in ("hqi", "prefilter", "range"):
        cells = []
        for d in datasets:
            r, h = by.get((d, ap)), by.get((d, "hqi"))
            if r is None or not r.applicable:
                cells.append(f"{'NA' if r is not None else '-':>10}")
                continue
            rel = r.build_seconds / h.build_seconds
            cells.append(f"{rel:>9.2f}x")
        out.append(f"{_LABEL[ap]:<10} | " + " | ".join(cells))
    return "\n".join(out)


def format_details(rows: list[BenchRow]) -> str:
    """Supplementary per-row metrics: absolute times, recall, and the
    deterministic work counters backing the runtime ratios."""
    out = [
        "dataset    approach    build_s   run_s  spark_s   recall"
        "   tuples_scanned   dist_comps   note"
    ]
    for r in rows:
        out.append(
            f"{r.dataset:<10} {r.approach:<10} {r.build_seconds:8.2f} "
            f"{r.run_seconds:7.2f} {r.spark_run_seconds:8.2f} {r.recall:7.3f} "
            f"{r.tuples_scanned:16,d} "
            f"{r.distance_computations:12,d}   {r.note}"
        )
    return "\n".join(out)


def format_table5(rob_rows) -> str:
    """QPS per temporal split normalized by HQI at t0 (paper Table 5)."""
    hqi = next(r for r in rob_rows if r.approach == "hqi")
    base = hqi.qps[0]
    header = "Approach   |     t0 |     t1 |     t2 |     t3"
    out = [header, "-" * len(header)]
    for r in rob_rows:
        cells = " | ".join(f"{q / base:5.3f}x" for q in r.qps)
        out.append(f"{_LABEL[r.approach]:<10} | {cells}")
    out.append("")
    out.append("recall per split:")
    for r in rob_rows:
        cells = " | ".join(f"{x:5.3f}" for x in r.recall)
        out.append(f"{_LABEL[r.approach]:<10} | {cells}")
    for r in rob_rows:
        if r.full_probe_tids:
            out.append(
                f"{_LABEL[r.approach]}: templates {r.full_probe_tids} are absent"
                " from t0 and ran at full probe"
            )
    return "\n".join(out)


def table2_rows(scale, datasets=DATASETS) -> list[dict]:
    """Evaluation datasets at reproduction scale (paper Table 2)."""
    rows = []
    for name in datasets:
        ds, wl, _ = load_dataset(name, scale)
        rows.append({
            "dataset": name,
            "n": ds.n,
            "nq": wl.nq,
            "dim": ds.dim,
            "dtype": "uint8" if name == "SIFT" else "f32",
            "metric": ds.metric,
            "attributes": (
                "entity types" if name == "LP"
                else "entity properties" if name == "RelatedQS"
                else "synthetic A,B"
            ),
        })
    return rows


def format_table2(rows: list[dict]) -> str:
    out = [
        "Dataset    |      n |  n_q (total queries) | dim | dtype | metric | attributes",
        "-" * 82,
    ]
    for r in rows:
        out.append(
            f"{r['dataset']:<10} | {r['n']:6d} | {r['nq']:20d} | {r['dim']:3d} |"
            f" {r['dtype']:5} | {r['metric']:6} | {r['attributes']}"
        )
    return "\n".join(out)
