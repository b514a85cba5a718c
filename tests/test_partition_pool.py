"""Tests for the process pool that trains HQI's and Range's partition IVFs
(``index.layout._train_partitions``)."""
import multiprocessing as mp
import os
from unittest import mock

import numpy as np
import pytest

from repro.bench.config import SCALES
from repro.bench.datasets import bigann_lite, bigann_workload
from repro.core import forkpool
from repro.exec.strategies import build_index, run_queries
from repro.index import layout
from repro.kg.entities import kg_entities
from repro.kg.workload import relatedqs_workload

S = SCALES["test"]


@pytest.fixture(scope="module")
def ms():
    ds = bigann_lite("msturing", n=S.bigann_n, seed=0)
    return ds, bigann_workload(ds, nq=S.bigann_nq, seed=1)


def _build(approach, ds, wl, **kw):
    return build_index(approach, ds, wl, min_size=S.min_size, n_buckets=S.n_buckets, **kw)


def _packed(built):
    return [built.parts[pid].pack() for pid in sorted(built.parts)]


def _started_processes(fn):
    """``fn()``'s result and the number of processes it started."""
    starts = []
    start = mp.process.BaseProcess.start

    def record(proc):
        starts.append(proc)
        start(proc)

    with mock.patch.object(mp.process.BaseProcess, "start", record):
        return fn(), len(starts)


@pytest.mark.parametrize(
    "approach,m", [("hqi", 0), ("hqi", 2), ("range", 0)], ids=["hqi-m0", "hqi-m2", "range"]
)
def test_widths_one_and_four_build_the_same_bytes(ms, approach, m):
    ds, wl = ms
    rows, started = {}, {}
    for width in (1, 4):
        with mock.patch.object(layout, "cpus", return_value=width):
            built, started[width] = _started_processes(lambda: _build(approach, ds, wl, m=m))
        rows[width] = _packed(built)
    assert len(rows[1]) > 1
    assert rows[1] == rows[4]
    assert started == {1: 0, 4: 4}


@pytest.mark.parametrize("approach", ["hqi", "range", "prefilter"])
def test_kmeans_seconds_per_trained_pid(ms, approach):
    """Each trained partition reports its k-means seconds, whether it ran
    inline or in a worker; the flat layout trains none."""
    ds, wl = ms
    for width in (1, 4):
        with mock.patch.object(layout, "cpus", return_value=width):
            built = _build(approach, ds, wl if approach != "prefilter" else None)
        trained = set() if approach == "prefilter" else set(built.parts)
        assert set(built.kmeans_seconds) == trained
        assert all(s >= 0 for s in built.kmeans_seconds.values())


def test_one_cpu_starts_no_process(ms):
    ds, wl = ms
    for cpus in ({0}, {0, 1, 2, 3}):
        with mock.patch.object(os, "sched_getaffinity", return_value=cpus):
            _, started = _started_processes(lambda: _build("hqi", ds, wl))
        # One CPU trains inline; four start a pool (the control).
        assert started == (0 if len(cpus) == 1 else 4)


def test_flat_layout_starts_no_process(ms):
    ds, _ = ms
    _, started = _started_processes(lambda: _build("prefilter", ds, None))
    assert started == 0


def test_no_worker_outlives_the_build(ms):
    ds, wl = ms
    with mock.patch.object(layout, "cpus", return_value=4):
        for approach in ("hqi", "range"):
            _build(approach, ds, wl)
            assert mp.active_children() == []
            assert forkpool._STAGED is None


def test_worker_exception_is_raised_by_the_build(ms):
    ds, wl = ms
    driver, kmeans = os.getpid(), layout.kmeans

    def failing(x, k, *, seed=0, **kw):
        if seed == layout._PART_SEED + 3:
            raise RuntimeError(f"leaf 3 failed in {'driver' if os.getpid() == driver else 'worker'}")
        return kmeans(x, k, seed=seed, **kw)

    with mock.patch.object(layout, "kmeans", failing), \
            mock.patch.object(layout, "cpus", return_value=4):
        with pytest.raises(RuntimeError, match="leaf 3 failed in worker"):
            _build("hqi", ds, wl)
    assert mp.active_children() == []
    assert forkpool._STAGED is None


def test_build_with_live_spark_session(spark):
    """PySpark's driver runs Python threads of its own; a pool forked
    beside them still trains the same partitions, and the shipped layout
    answers as the local one does."""
    ds = kg_entities(n=S.kg_n, dim=S.kg_dim, seed=0)
    wl = relatedqs_workload(ds, n_queries_per_split=S.relatedqs_per_split, seed=0)[0]
    with mock.patch.object(layout, "cpus", return_value=4):
        built, started = _started_processes(
            lambda: _build("hqi", ds, wl, engine="spark", spark=spark)
        )
    try:
        assert started == 4
        assert mp.active_children() == []
        with mock.patch.object(layout, "cpus", return_value=1):
            assert _packed(built) == _packed(_build("hqi", ds, wl))
        nprobe = {int(t): 2 for t in np.unique(wl.qtemplates)}
        local = run_queries(built, wl, k=S.k, nprobe_by_tid=nprobe)
        dist = run_queries(built, wl, k=S.k, nprobe_by_tid=nprobe, engine="spark", spark=spark)
        for qid, ids in local.ids_by_qid.items():
            assert dist.ids_by_qid[qid].tolist() == ids.tolist()
    finally:
        built.layout.unpersist()
