"""In-memory span recorder that wraps the program's public functions.

Spans are recorded from the benchmark's side: each traced function is
replaced, where callers look it up, by a wrapper that records
``(name, start, end, parent span, batch id, count)``. Many functions are
imported by value (``from repro.core.distance import topk_rows``), so a
wrapper is installed in every module that looks the name up, not only in
the module that defines it. Wrappers run in the benchmark process only;
Spark's Python workers execute the unwrapped code.

Self time of a span is its duration minus the durations of its direct
children (spans nest, because the traced code runs in one thread).
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


def _traced_points():
    """(owner, attribute, span name, count-of-work function or None)."""
    import repro.core.ivf as ivf
    import repro.exec.local_engine as local_engine
    import repro.exec.routing as routing
    import repro.exec.spark_engine as spark_engine
    import repro.exec.strategies as strategies
    import repro.index.layout as layout
    from repro.core.predicates import Conjunction
    from repro.exec.engine import PartitionData

    def n_rows(result, args):
        return len(result)

    def n_data_rows(result, args):
        return int((args[0]["id"] >= 0).sum())

    return [
        # build layers
        (strategies, "plan_hqi", "layout.plan", None),
        (strategies, "plan_flat", "layout.plan", None),
        (strategies, "materialize_local", "layout.materialize", None),
        (strategies, "materialize_spark", "layout.materialize", None),
        (layout, "kmeans", "kmeans", None),
        (layout, "construct_balanced_qdtree", "qdtree.build", None),
        # query layers
        (strategies, "run_spark", "spark.run", None),
        (local_engine, "route_queries", "routing", n_rows),
        (spark_engine, "route_queries", "routing", n_rows),
        (local_engine, "search_partition", "engine.search_partition", None),
        (local_engine, "merge_rows_to_result", "engine.merge", n_data_rows),
        (PartitionData, "index", "engine.index_rebuild", None),
        (Conjunction, "mask", "predicates.mask", None),
        (ivf.IVFIndex, "search", "ivf.scan", None),
        (ivf.IVFIndex, "batch_search", "ivf.scan", None),
        (ivf.IVFIndex, "nearest_centroids", "ivf.probe", None),
        (ivf, "pairwise_scores", "distance.matmul", None),
        (ivf, "topk_rows", "distance.topk", None),
        (routing, "pairwise_scores", "distance.matmul", None),
    ]


class Tracer:
    """Records spans while ``enabled``; ``batch`` tags every new span."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, batch, count]
        self.enabled = False
        self.batch = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid, None)

    def _open(self, name: str) -> int | None:
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.batch, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int | None, count) -> None:
        if sid is None:
            return
        self.spans[sid][2] = time.perf_counter()
        self.spans[sid][5] = count
        self._stack.pop()

    def _wrap(self, name, fn, count_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            if sid is None:
                return fn(*args, **kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                count = count_fn(result, args) if count_fn and result is not None else None
                tracer._close(sid, count)

        return wrapper

    def install(self) -> None:
        for owner, attr, name, count_fn in _traced_points():
            orig = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, orig, count_fn))
            self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        """Write every span as one JSON document (times relative to the
        first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        fields = ["name", "start", "end", "parent", "batch", "count"]
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": fields,
                    "spans": [
                        [n, s - t0, e - t0, p, b, c]
                        for n, s, e, p, b, c in self.spans
                    ],
                },
                fh,
            )
