"""Tests for the process pool that searches a batch's routed partitions
(``exec.local_engine.run_local`` over ``core.forkpool.fork_map``)."""
import gc
import multiprocessing as mp
import os
from unittest import mock

import numpy as np
import pytest

from repro.bench.config import SCALES
from repro.bench.datasets import bigann_lite, bigann_workload
from repro.core import forkpool
from repro.exec import local_engine
from repro.exec.strategies import build_index, run_queries
from repro.kg.entities import kg_entities
from repro.kg.workload import relatedqs_workload

S = SCALES["test"]


@pytest.fixture(scope="module")
def ms():
    ds = bigann_lite("msturing", n=S.bigann_n, seed=0)
    return ds, bigann_workload(ds, nq=S.bigann_nq, seed=1)


@pytest.fixture(scope="module")
def kg():
    ds = kg_entities(n=S.kg_n, dim=S.kg_dim, seed=0)
    return ds, relatedqs_workload(ds, n_queries_per_split=S.relatedqs_per_split, seed=0)[0]


def _build(approach, ds, wl, **kw):
    return build_index(approach, ds, wl, min_size=S.min_size, n_buckets=S.n_buckets, **kw)


def _nprobe(wl, value=4):
    return {int(t): value for t in np.unique(wl.qtemplates)}


def _started_processes(fn):
    """``fn()``'s result and the number of processes it started."""
    starts = []
    start = mp.process.BaseProcess.start

    def record(proc):
        starts.append(proc)
        start(proc)

    with mock.patch.object(mp.process.BaseProcess, "start", record):
        return fn(), len(starts)


def _run(built, wl, *, cpus, gate=local_engine._ROWS_PER_WORKER, **kw):
    """``run_queries`` with ``cpus`` CPUs and ``gate`` routed rows per
    worker: its result and the number of processes it started."""
    with mock.patch.object(local_engine, "cpus", return_value=cpus), \
            mock.patch.object(local_engine, "_ROWS_PER_WORKER", gate):
        out = _started_processes(lambda: run_queries(built, wl, k=S.k, **kw))
    assert mp.active_children() == []
    assert forkpool._STAGED is None
    return out


def _assert_same(a, b):
    assert a.ids_by_qid.keys() == b.ids_by_qid.keys()
    for qid, ids in a.ids_by_qid.items():
        assert ids.tobytes() == b.ids_by_qid[qid].tobytes()
        assert a.scores_by_qid[qid].tobytes() == b.scores_by_qid[qid].tobytes()
    assert a.stats_by_tid == b.stats_by_tid


@pytest.mark.parametrize(
    "data,approach,m",
    [
        ("ms", "hqi", 0),
        ("ms", "hqi", 2),
        ("ms", "prefilter", 0),
        ("ms", "postfilter", 0),
        ("ms", "range", 0),
        ("kg", "hqi", 0),
    ],
    ids=["hqi-m0", "hqi-m2", "prefilter", "postfilter", "range", "kg-hqi"],
)
def test_pooled_batch_equals_inline(request, data, approach, m):
    ds, wl = request.getfixturevalue(data)
    built = _build(approach, ds, wl, m=m)
    nprobe = _nprobe(wl)
    inline, started_inline = _run(built, wl, cpus=1, gate=1, nprobe_by_tid=nprobe)
    pooled, started_pooled = _run(built, wl, cpus=4, gate=1, nprobe_by_tid=nprobe)
    assert (started_inline, started_pooled) == (0, 4)
    assert inline.tuples_scanned > 0
    _assert_same(pooled, inline)


def test_batch_below_the_gate_starts_no_process(ms):
    ds, wl = ms
    built = _build("hqi", ds, wl)
    small = wl.subset(np.arange(10))
    # Ten queries route far fewer than 2 * _ROWS_PER_WORKER rows.
    _, started = _run(built, small, cpus=4, nprobe_by_tid=_nprobe(small))
    assert started == 0
    # The whole workload routes enough rows for a pool (the control).
    _, started = _run(built, wl, cpus=4, gate=1, nprobe_by_tid=_nprobe(wl))
    assert started == 4


def test_one_cpu_starts_no_process(ms):
    ds, wl = ms
    built = _build("hqi", ds, wl)
    results = {}
    for cpus in ({0}, {0, 1, 2, 3}):
        with mock.patch.object(os, "sched_getaffinity", return_value=cpus), \
                mock.patch.object(local_engine, "_ROWS_PER_WORKER", 1):
            results[len(cpus)], started = _started_processes(
                lambda: run_queries(built, wl, k=S.k, nprobe_by_tid=_nprobe(wl))
            )
        # One CPU searches inline; four start a pool (the control).
        assert started == (0 if len(cpus) == 1 else 4)
        assert mp.active_children() == []
    _assert_same(results[4], results[1])


def test_worker_exception_is_raised_by_the_batch(ms):
    ds, wl = ms
    built = _build("hqi", ds, wl)
    driver, search = os.getpid(), local_engine.search_partition

    def failing(part, routed, params):
        if part.pid == 3:
            raise RuntimeError(f"pid 3 failed in {'driver' if os.getpid() == driver else 'worker'}")
        return search(part, routed, params)

    with mock.patch.object(local_engine, "search_partition", failing):
        with pytest.raises(RuntimeError, match="pid 3 failed in worker"):
            _run(built, wl, cpus=4, gate=1, nprobe_by_tid=_nprobe(wl))
    assert mp.active_children() == []
    assert forkpool._STAGED is None


def test_pooled_batch_with_live_spark_session(spark, kg):
    """PySpark's driver runs Python threads of its own; a pool forked
    beside them answers as the inline engine and the Spark engine do."""
    ds, wl = kg
    built = _build("hqi", ds, wl, engine="spark", spark=spark)
    try:
        nprobe = _nprobe(wl, 2)
        pooled, started = _run(built, wl, cpus=4, gate=1, nprobe_by_tid=nprobe)
        assert started == 4
        inline, _ = _run(built, wl, cpus=1, nprobe_by_tid=nprobe)
        _assert_same(pooled, inline)
        dist = run_queries(
            built, wl, k=S.k, nprobe_by_tid=nprobe, engine="spark", spark=spark
        )
        _assert_same(pooled, dist)
    finally:
        built.layout.unpersist()


class _Finalized:
    """Cyclic garbage whose finalizer records the process that ran it."""

    def __init__(self, log):
        self.log, self.cycle = log, self

    def __del__(self):
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()}\n")


def _collect(_staged, _key):
    return gc.collect()


def test_workers_leave_the_drivers_garbage_alone(tmp_path):
    """A worker's garbage collection must not finalize objects it
    inherited: py4j's finalizers would send the JVM commands on the
    driver's sockets."""
    log = tmp_path / "finalized.txt"
    gc.disable()
    try:
        for _ in range(10):
            _Finalized(str(log))
        forkpool.fork_map(_collect, None, range(4), 4)
        assert mp.active_children() == []
    finally:
        gc.enable()
    gc.collect()
    assert log.read_text().split() == [str(os.getpid())] * 10
