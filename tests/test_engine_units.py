"""Unit tests for the execution-engine building blocks: PartitionData,
search_partition, result merging, and post-filtering."""
from unittest import mock

import numpy as np
import pandas as pd
import pytest

from repro.core.distance import pairwise_scores
from repro.core.ivf import PAD_ID, SearchStats
from repro.core.predicates import Cmp, Conjunction, NotNull
from repro.core.types import Workload
from repro.exec import engine
from repro.exec.engine import (
    ExecParams,
    PartitionData,
    RunResult,
    empty_result_frame,
    merge_rows_to_result,
    post_filter,
    search_partition,
)


def _toy_partition(n=60, d=4, seed=0, n_lists=4):
    g = np.random.default_rng(seed)
    from repro.core.kmeans import kmeans

    vecs = g.standard_normal((n, d))
    centroids, labels = kmeans(vecs, n_lists, seed=1)
    attrs = pd.DataFrame(
        {
            "etype": g.choice(["a", "b"], n),
            "h": np.where(g.random(n) < 0.5, g.random(n), np.nan),
        }
    )
    order = np.argsort(labels, kind="stable")  # rows in list order
    return PartitionData(
        pid=0,
        ids=np.arange(100, 100 + n, dtype=np.int64)[order],
        vecs=vecs[order],
        labels=labels[order],
        centroids=centroids,
        attrs=attrs.iloc[order].reset_index(drop=True),
    )


def _toy_workload(data, nq=5, seed=1):
    g = np.random.default_rng(seed)
    templates = {
        1: Conjunction([Cmp("etype", "=", "a")]),
        2: Conjunction([NotNull("h")]),
    }
    return Workload(
        templates=templates,
        qids=np.arange(nq, dtype=np.int64),
        qvecs=g.standard_normal((nq, data.vecs.shape[1])),
        qtemplates=np.array([1, 2, 1, 2, 1][:nq], dtype=np.int64),
    )


def _routed(qpos, tids, nprobe=10**6):
    """One partition's routed rows; every query probes ``nprobe`` lists
    (one count, or one per row)."""
    return pd.DataFrame(
        {
            "qpos": np.asarray(qpos, dtype=np.int64),
            "tid": np.asarray(tids, dtype=np.int64),
            "nprobe": np.broadcast_to(np.asarray(nprobe, dtype=np.int64), len(qpos)),
        }
    )


def _params(wl, **kw):
    defaults = dict(
        k=3,
        metric="l2",
        templates=wl.templates,
        nprobe_by_tid={},  # routing's input; search_partition reads the rows
        qvecs=wl.qvecs,
        batch_vectors=True,
        apply_filter=True,
    )
    defaults.update(kw)
    return ExecParams(**defaults)


class TestSearchPartition:
    def test_results_satisfy_filters(self):
        data = _toy_partition()
        wl = _toy_workload(data)
        routed = _routed(np.arange(wl.nq), wl.qtemplates)
        rows = search_partition(data, routed, _params(wl))
        res = rows[rows["id"] >= 0]
        id_to_row = {int(i): r for r, i in enumerate(data.ids)}
        for _, r in res.iterrows():
            tid = int(r["tid"])
            row = id_to_row[int(r["id"])]
            mask = wl.templates[tid].mask(data.attrs)
            assert mask[row]

    def test_stats_row_per_template(self):
        """One stats row per routed template, also for a template no row
        of the partition matches; the frame has ``empty_result_frame``'s
        dtypes."""
        data = _toy_partition()
        for no_match_template in (False, True):
            wl = _toy_workload(data)
            tids = wl.qtemplates.copy()
            if no_match_template:
                wl.templates[3] = Conjunction([Cmp("etype", "=", "no-such-type")])
                tids[[1, 4]] = 3
            rows = search_partition(data, _routed(np.arange(wl.nq), tids), _params(wl))
            pd.testing.assert_series_equal(rows.dtypes, empty_result_frame().dtypes)
            stats = rows[rows["id"] < 0]
            assert stats["tid"].tolist() == sorted(set(tids.tolist()))
            assert (stats["scanned"] > 0).all()
            if no_match_template:
                assert not ((rows["tid"] == 3) & (rows["id"] >= 0)).any()
                assert stats[stats["tid"] == 3]["dcomp"].tolist() == [0]

    def test_no_filter_mode_ignores_attrs(self):
        data = _toy_partition()
        wl = _toy_workload(data)
        params = _params(wl, apply_filter=False)
        rows = search_partition(data, _routed([0], [1]), params)
        res_ids = rows[rows["id"] >= 0]["id"]
        # Unfiltered: may contain tuples violating template 1.
        mask = wl.templates[1].mask(data.attrs)
        id_to_row = {int(i): r for r, i in enumerate(data.ids)}
        assert len(res_ids) == 3  # full k returned
        assert any(not mask[id_to_row[int(i)]] for i in res_ids) or mask.all()

    def test_empty_routed_returns_empty(self):
        data = _toy_partition()
        wl = _toy_workload(data)
        rows = search_partition(data, _routed([], []), _params(wl))
        assert rows.empty

    @pytest.mark.parametrize("batch_vectors", [False, True])
    def test_routed_counts_probe_nearest_lists(self, batch_vectors):
        """Each routed row's ``nprobe`` is how many of the partition's
        nearest lists its query probes: ragged counts, 0 and more than the
        partition's lists included. Results and counters equal the scan
        over exactly those lists."""
        data = _toy_partition(n=80, n_lists=5)
        wl = _toy_workload(data)
        counts = np.array([2, 0, 3, 9, 1])
        rows = search_partition(
            data, _routed(np.arange(wl.nq), wl.qtemplates, counts),
            _params(wl, batch_vectors=batch_vectors),
        )
        idx = data.index("l2")
        for tid in (1, 2):
            qpos = np.flatnonzero(wl.qtemplates == tid)
            mask = wl.templates[tid].mask(data.attrs)
            nearest = idx.nearest_centroids(wl.qvecs[qpos], idx.n_lists)
            got = rows[(rows["tid"] == tid) & (rows["id"] >= 0)]
            scanned = dcomp = 0
            probed = set()
            for q, lists in zip(qpos, nearest):
                in_lists = np.concatenate(
                    [np.arange(idx.list_offsets[l], idx.list_offsets[l + 1])
                     for l in lists[: counts[q]]] + [np.empty(0, np.int64)]
                ).astype(np.int64)
                probed |= set(lists[: counts[q]].tolist())
                scanned += len(in_lists)
                cand = in_lists[mask[in_lists]]
                dcomp += len(cand)
                sc = pairwise_scores(wl.qvecs[q : q + 1], data.vecs[cand], "l2")[0]
                order = np.lexsort((data.ids[cand], sc))[:3]
                mine = got[got["qpos"] == q]
                np.testing.assert_array_equal(mine["id"], data.ids[cand][order])
                np.testing.assert_allclose(mine["score"], sc[order], rtol=1e-12)
            if batch_vectors:  # a probed list is visited once per template
                scanned = int(sum(np.diff(idx.list_offsets)[sorted(probed)]))
            st_row = rows[(rows["tid"] == tid) & (rows["id"] < 0)].iloc[0]
            assert st_row["scanned"] == scanned
            assert st_row["dcomp"] == dcomp

    def test_batch_and_per_query_modes_agree(self):
        data = _toy_partition(n=120, n_lists=6)
        wl = _toy_workload(data)
        routed = _routed(np.arange(wl.nq), wl.qtemplates, 3)
        a = search_partition(data, routed, _params(wl))
        b = search_partition(data, routed, _params(wl, batch_vectors=False))
        ka = a[a["id"] >= 0].sort_values(["qpos", "score", "id"]).reset_index(drop=True)
        kb = b[b["id"] >= 0].sort_values(["qpos", "score", "id"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(ka[["qpos", "id"]], kb[["qpos", "id"]])


class TestPackedPartition:
    """``PartitionData.pack`` / ``unpack``: the one row per partition that
    the Spark layout and the ``hqi`` DataSource hold."""

    @staticmethod
    def _sparse_attrs(data, seed=2):
        """NaN-heavy floats, ``None`` strings and an integer column."""
        g = np.random.default_rng(seed)
        n = len(data.ids)
        etype = g.choice(["a", "b"], n).astype(object)
        etype[g.random(n) < 0.3] = None
        return pd.DataFrame(
            {
                "etype": etype,
                "h": np.where(g.random(n) < 0.9, np.nan, g.random(n)),
                "pop": np.where(g.random(n) < 0.5, np.nan, g.random(n)),
                "rank": g.integers(0, 5, n),
            }
        )

    @staticmethod
    def _assert_roundtrip(data):
        got = PartitionData.unpack(data.pack())
        assert got.pid == data.pid
        for f in ("ids", "vecs", "labels", "centroids"):
            assert getattr(got, f).dtype == getattr(data, f).dtype, f
            np.testing.assert_array_equal(getattr(got, f), getattr(data, f))
        pd.testing.assert_frame_equal(got.attrs, data.attrs)
        return got

    def test_local_list_partition_roundtrips(self):
        data = _toy_partition()
        data.attrs = self._sparse_attrs(data)
        self._assert_roundtrip(data)

    def test_global_list_partition_roundtrips(self):
        """A flat-layout bucket stores a stride of the global lists as its
        local lists, empty ones included: the unpacked index keeps every
        list, empty ones as zero-length runs."""
        data = _toy_partition()
        n_buckets, pid = 3, 1
        global_lists = data.labels * 2 * n_buckets + pid  # local 1, 3, ... empty
        all_centroids = np.arange(
            (2 * n_buckets * len(data.centroids) + 1) * data.centroids.shape[1],
            dtype=np.float64,
        ).reshape(-1, data.centroids.shape[1])
        data = PartitionData(
            pid=pid, ids=data.ids, vecs=data.vecs,
            labels=global_lists // n_buckets,
            centroids=all_centroids[pid::n_buckets],
            attrs=self._sparse_attrs(data),
        )
        got = self._assert_roundtrip(data)
        sizes = np.diff(got.index("l2").list_offsets)
        assert len(sizes) == len(data.centroids)
        assert (sizes[1::2] == 0).all()
        np.testing.assert_array_equal(
            sizes[::2], np.bincount(global_lists // (2 * n_buckets))
        )

    def test_rows_out_of_list_order_rejected(self):
        data = _toy_partition()
        with pytest.raises(ValueError, match="posting-list order"):
            PartitionData(
                pid=0, ids=data.ids, vecs=data.vecs, labels=data.labels[::-1],
                centroids=data.centroids, attrs=data.attrs,
            )


class TestMergeRows:
    def _wl(self, nq=3):
        return Workload(
            templates={1: Conjunction()},
            qids=np.array([10, 20, 30][:nq], dtype=np.int64),
            qvecs=np.zeros((nq, 2)),
            qtemplates=np.ones(nq, dtype=np.int64),
        )

    def test_merges_across_partitions(self):
        wl = self._wl()
        rows = pd.DataFrame(
            {
                "qpos": [0, 0, 0, 1],
                "tid": [1, 1, 1, 1],
                "id": [5, 7, 6, 9],
                "score": [0.3, 0.1, 0.2, 0.5],
                "scanned": [0, 0, 0, 0],
                "dcomp": [0, 0, 0, 0],
            }
        )
        res = merge_rows_to_result(rows, wl, k=2)
        assert res.ids_by_qid[10].tolist() == [7, 6]
        assert res.ids_by_qid[20].tolist() == [9]
        assert res.ids_by_qid[30].tolist() == []

    def test_stats_folded_by_template(self):
        wl = self._wl(1)
        rows = pd.DataFrame(
            {
                "qpos": [-1, -1],
                "tid": [1, 1],
                "id": [-1, -1],
                "score": [0.0, 0.0],
                "scanned": [100, 50],
                "dcomp": [10, 5],
            }
        )
        res = merge_rows_to_result(rows, wl, k=2)
        assert res.stats_by_tid[1].tuples_scanned == 150
        assert res.stats_by_tid[1].distance_computations == 15
        assert res.tuples_scanned == 150

    def test_tie_break_on_merge(self):
        wl = self._wl(1)
        rows = pd.DataFrame(
            {
                "qpos": [0, 0],
                "tid": [1, 1],
                "id": [9, 4],
                "score": [1.0, 1.0],
                "scanned": [0, 0],
                "dcomp": [0, 0],
            }
        )
        res = merge_rows_to_result(rows, wl, k=1)
        assert res.ids_by_qid[10].tolist() == [4]

    @staticmethod
    def _rows(qpos, ids, scores):
        n = len(qpos)
        return pd.DataFrame(
            {
                "qpos": np.asarray(qpos, dtype=np.int64),
                "tid": np.ones(n, dtype=np.int64),
                "id": np.asarray(ids, dtype=np.int64),
                "score": np.asarray(scores, dtype=np.float64),
                "scanned": np.zeros(n, dtype=np.int64),
                "dcomp": np.zeros(n, dtype=np.int64),
            }
        )

    @staticmethod
    def _lexsort_reference(rows, wl, k):
        """Per-query top-k by one 3-key sort on (qpos, score, id)."""
        qpos, ids, score = (rows[c].to_numpy() for c in ("qpos", "id", "score"))
        perm = np.lexsort((ids, score, qpos))
        out = {}
        for pos, qid in enumerate(wl.qids.tolist()):
            sel = perm[qpos[perm] == pos][:k]
            out[qid] = (ids[sel], score[sel])
        return out

    def test_ties_across_partitions_broken_by_id(self):
        wl = self._wl(1)
        # Two partitions' rows, each in (score, id) order, tying on score.
        rows = pd.concat(
            [
                self._rows([0, 0, 0], [8, 30, 31], [0.5, 1.0, 1.0]),
                self._rows([0, 0, 0], [2, 12, 40], [1.0, 1.0, 2.0]),
            ],
            ignore_index=True,
        )
        res = merge_rows_to_result(rows, wl, k=4)
        assert res.ids_by_qid[10].tolist() == [8, 2, 12, 30]
        assert res.scores_by_qid[10].tolist() == [0.5, 1.0, 1.0, 1.0]

    def test_fewer_than_k_and_no_rows(self):
        wl = self._wl(3)
        rows = self._rows([2, 0, 2], [5, 6, 4], [0.2, 0.9, 0.2])
        res = merge_rows_to_result(rows, wl, k=5)
        assert res.ids_by_qid[10].tolist() == [6]
        assert res.ids_by_qid[20].tolist() == []  # no rows
        assert res.scores_by_qid[20].dtype == np.float64
        assert res.ids_by_qid[30].tolist() == [4, 5]
        assert res.scores_by_qid[30].tolist() == [0.2, 0.2]

    @pytest.mark.parametrize("per_chunk", [1, 2, 5, None])
    def test_chunk_boundaries(self, per_chunk):
        """Queries merged in chunks of ``per_chunk`` (budget = that many of
        the largest query's rows; None keeps the module budget) give what
        one sort over all rows gives."""
        g = np.random.default_rng(per_chunk or 0)
        nq, n, k = 23, 400, 6
        wl = Workload(
            templates={1: Conjunction()},
            qids=np.arange(nq, dtype=np.int64) * 3 + 1,
            qvecs=np.zeros((nq, 2)),
            qtemplates=np.ones(nq, dtype=np.int64),
        )
        # Skewed per-query counts, heavy score ties, some queries empty.
        qpos = np.minimum(g.geometric(0.12, n) - 1, nq - 3)
        rows = self._rows(qpos, g.permutation(10 * n)[:n], g.integers(0, 4, n))
        cells = engine._MERGE_CELLS
        if per_chunk is not None:
            cells = per_chunk * int(np.bincount(qpos).max())
        with mock.patch.object(engine, "_MERGE_CELLS", cells):
            res = merge_rows_to_result(rows, wl, k=k)
        for qid, (ids, scores) in self._lexsort_reference(rows, wl, k).items():
            np.testing.assert_array_equal(res.ids_by_qid[qid], ids)
            np.testing.assert_array_equal(res.scores_by_qid[qid], scores)


class TestPostFilter:
    def test_filters_and_truncates(self):
        wl = Workload(
            templates={1: Conjunction([Cmp("etype", "=", "a")])},
            qids=np.array([0], dtype=np.int64),
            qvecs=np.zeros((1, 2)),
            qtemplates=np.array([1], dtype=np.int64),
        )
        attrs = pd.DataFrame(
            {"etype": ["a", "b", "a", "a"]}, index=[100, 101, 102, 103]
        )
        res = RunResult(
            ids_by_qid={0: np.array([101, 100, 102, 103])},
            scores_by_qid={0: np.array([0.1, 0.2, 0.3, 0.4])},
        )
        out = post_filter(res, attrs, wl, k=2)
        assert out.ids_by_qid[0].tolist() == [100, 102]
        np.testing.assert_allclose(out.scores_by_qid[0], [0.2, 0.3])

    def test_empty_template_passthrough(self):
        wl = Workload(
            templates={1: Conjunction()},
            qids=np.array([0], dtype=np.int64),
            qvecs=np.zeros((1, 2)),
            qtemplates=np.array([1], dtype=np.int64),
        )
        attrs = pd.DataFrame({"x": [1.0]}, index=[5])
        res = RunResult(
            ids_by_qid={0: np.array([5])}, scores_by_qid={0: np.array([0.5])}
        )
        out = post_filter(res, attrs, wl, k=1)
        assert out.ids_by_qid[0].tolist() == [5]

    def test_stats_preserved(self):
        wl = Workload(
            templates={1: Conjunction()},
            qids=np.array([0], dtype=np.int64),
            qvecs=np.zeros((1, 2)),
            qtemplates=np.array([1], dtype=np.int64),
        )
        attrs = pd.DataFrame({"x": [1.0]}, index=[5])
        res = RunResult(
            ids_by_qid={0: np.array([5])},
            scores_by_qid={0: np.array([0.5])},
            stats_by_tid={1: SearchStats(7, 3)},
        )
        out = post_filter(res, attrs, wl, k=1)
        assert out.stats_by_tid[1].tuples_scanned == 7
