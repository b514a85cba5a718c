"""Per-layer metrics derived from the spans of a traced run.

Query layers are medians over the traced local batches; the ``spark.*``
layers are medians over the Spark batches, whose task-side work is not
visible to the wrappers in the benchmark process (their inner layers equal the local
batches', which run the same partitions, nprobe and code). Build layers
are medians over the set-up repetitions.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# metric -> (span name, aggregate, unit); aggregate is "total", "self"
# (total minus direct children), "calls" or "count" (work counted at the
# span's boundary).
QUERY_LAYERS = {
    "distance.topk_s": ("distance.topk", "total", "s"),
    "distance.topk_calls": ("distance.topk", "calls", "count"),
    "distance.matmul_s": ("distance.matmul", "total", "s"),
    "distance.matmul_calls": ("distance.matmul", "calls", "count"),
    "ivf.scan_s": ("ivf.scan", "self", "s"),
    "ivf.probe_s": ("ivf.probe", "total", "s"),
    "routing.s": ("routing", "total", "s"),
    "predicates.mask_s": ("predicates.mask", "total", "s"),
    "predicates.mask_calls": ("predicates.mask", "calls", "count"),
    "engine.search_partition_s": ("engine.search_partition", "self", "s"),
    "engine.merge_s": ("engine.merge", "total", "s"),
    "engine.merge_rows": ("engine.merge", "count", "count"),
    "engine.index_rebuild_s": ("engine.index_rebuild", "total", "s"),
}
BUILD_LAYERS = {
    "layout.plan_s": ("layout.plan", "total", "s"),
    "layout.materialize_s": ("layout.materialize", "total", "s"),
    "kmeans.s": ("kmeans", "total", "s"),
    "kmeans.calls": ("kmeans", "calls", "count"),
    "qdtree.build_s": ("qdtree.build", "total", "s"),
    "tuning.s": ("tuning", "total", "s"),
    "tuning.rounds": ("tuning.round", "calls", "count"),
}


def batch_totals(spans: list[list], sids: list[int]) -> dict[str, dict]:
    """Per span name over the spans ``sids`` (one batch): calls, total and
    self seconds, and the summed work counts."""
    child_time: dict[int, float] = defaultdict(float)
    for sid in sids:
        name, start, end, parent, b, count = spans[sid]
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0, "count": 0}
    )
    for sid in sids:
        name, start, end, parent, b, count = spans[sid]
        agg = out[name]
        agg["calls"] += 1
        agg["total"] += end - start
        agg["self"] += end - start - child_time.get(sid, 0.0)
        agg["count"] += count or 0
    return out


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _layers(totals, table) -> dict[str, tuple[float, str]]:
    return {
        metric: (_median(t[span][agg] if span in t else 0 for t in totals), unit)
        for metric, (span, agg, unit) in table.items()
    }


def layer_metrics(
    spans, records, *, nq, n_parts, qdtree_leaves, spark_build_s, failed_frac
) -> dict[str, tuple[float, str]]:
    sids_of: dict[object, list[int]] = defaultdict(list)
    for sid, span in enumerate(spans):
        sids_of[span[4]].append(sid)
    totals = {b: batch_totals(spans, sids) for b, sids in sids_of.items()}

    timed = [r for r in records if r["phase"] == "timed"]
    traced = [totals.get(r["batch"], {}) for r in timed if r["traced"]]
    out = _layers(traced, QUERY_LAYERS)

    routed = _median(t["routing"]["count"] if "routing" in t else 0 for t in traced)
    out["routing.fanout"] = (routed / nq, "rows/query")
    out["routing.partitions_touched_frac"] = (routed / (nq * n_parts), "frac")

    ok = [r for r in timed if "tuples_scanned" in r]
    scanned = _median(r["tuples_scanned"] for r in ok)
    dcomp = _median(r["distance_computations"] for r in ok)
    out["ivf.tuples_scanned"] = (scanned, "count")
    out["ivf.distance_computations"] = (dcomp, "count")
    out["ivf.dcomp_per_scan"] = (dcomp / scanned if scanned else 0.0, "ratio")

    spark = [r for r in records if r["phase"] == "spark"]
    run_s, route_s = [], []
    for r in spark:
        t = totals.get(r["batch"], {})
        run_s.append(t["spark.run"]["total"] if "spark.run" in t else 0.0)
        route_s.append(t["routing"]["total"] if "routing" in t else 0.0)
    out["spark.build_s"] = (spark_build_s or 0.0, "s")
    out["spark.run_s"] = (_median(run_s), "s")
    out["spark.route_s"] = (_median(route_s), "s")
    out["spark.job_s"] = (_median(a - b for a, b in zip(run_s, route_s)), "s")
    out["spark.tasks"] = (_median(r.get("spark_tasks", 0) for r in spark), "count")
    out["spark.stages"] = (_median(r.get("spark_stages", 0) for r in spark), "count")

    setups = [t for b, t in totals.items() if str(b).startswith("setup-")]
    out.update(_layers(setups, BUILD_LAYERS))
    out["qdtree.leaves"] = (qdtree_leaves, "count")

    walls = {flag: [r["wall_s"] for r in timed if r["traced"] == flag] for flag in (True, False)}
    out["tracing.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0, "frac"
    )
    out["failed_frac"] = (failed_frac, "frac")
    return out
