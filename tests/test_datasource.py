"""Tests for the ``hqi`` Python DataSource that Spark reads the layout
through (S7)."""
import os

import numpy as np
import pandas as pd
import pytest

from repro.exec.engine import PartitionData
from repro.exec.strategies import build_index, run_queries
from repro.index.datasource import META_FILE, load_meta, read_layout
from repro.index.layout import SparkLayout
from repro.kg.entities import kg_entities
from repro.kg.workload import relatedqs_workload
from tests.test_layout_units import assert_encoded_partition

K = 10


@pytest.fixture(scope="module")
def kg():
    return kg_entities(n=1_500, dim=8, seed=0)


@pytest.fixture(scope="module")
def kg_load(kg):
    return relatedqs_workload(kg, n_queries_per_split=80, seed=0)[0]


@pytest.fixture(scope="module")
def persisted(spark, kg, kg_load):
    built = build_index(
        "hqi", kg, kg_load, engine="spark", spark=spark, min_size=128
    )
    return built, built.layout.files.name


def _decoded(df):
    """pid -> PartitionData for every packed row of a layout DataFrame."""
    return {int(r["pid"]): PartitionData.unpack(r) for r in df.collect()}


class TestSaveLoad:
    def test_meta_written(self, spark, persisted):
        built, path = persisted
        meta = load_meta(path)
        assert meta["kind"] == "hqi"
        assert sorted(p for slot in meta["slots"] for p in slot) == sorted(
            {int(p) for p in np.unique(built.plan.pid_of_row)}
        )
        part = PartitionData.unpack(read_layout(spark, path).first())
        assert "etype" in part.attrs.columns

    def test_roundtrip_all_rows(self, spark, persisted):
        built, path = persisted
        orig = _decoded(built.layout.df)
        got = _decoded(read_layout(spark, path))
        assert set(got) == set(orig)
        for pid, part in orig.items():
            np.testing.assert_array_equal(got[pid].ids, part.ids)
            np.testing.assert_array_equal(got[pid].labels, part.labels)
            np.testing.assert_array_equal(got[pid].centroids, part.centroids)
            pd.testing.assert_frame_equal(got[pid].attrs, part.attrs)

    def test_loaded_partitions_are_encoded(self, spark, persisted, kg):
        _, path = persisted
        raw_by_id = kg.pdf.set_index("id")
        for part in _decoded(read_layout(spark, path)).values():
            assert_encoded_partition(part, raw_by_id)

    def test_vectors_survive_roundtrip(self, spark, persisted, kg):
        built, path = persisted
        (part,) = [
            p for p in _decoded(read_layout(spark, path)).values() if 7 in p.ids
        ]
        np.testing.assert_allclose(
            part.vecs[np.flatnonzero(part.ids == 7)[0]],
            kg.pdf.loc[kg.pdf["id"] == 7, "vec"].iloc[0],
        )


class TestPartitionPruning:
    def test_pids_option_prunes_scan(self, spark, persisted):
        built, path = persisted
        all_pids = sorted(p for slot in load_meta(path)["slots"] for p in slot)
        keep = all_pids[:2]
        df = read_layout(spark, path, pids=keep)
        seen = {int(r["pid"]) for r in df.select("pid").distinct().collect()}
        assert seen == set(keep)

    def test_routing_driven_pruning_preserves_answers(self, spark, persisted, kg, kg_load):
        """Read only the partitions the qd-tree routes template T4 to; a
        full-probe search over that pruned scan must equal the search
        over the full layout for T4's queries."""
        built, path = persisted
        tree = built.plan.tree
        t4 = kg_load.templates[4]
        pids = np.flatnonzero(tree.route_groups([tree.group_for(list(t4))])[0]).tolist()
        pruned_df = read_layout(spark, path, pids=pids)
        pruned_layout = SparkLayout(df=pruned_df.cache(), plan=built.plan)
        from dataclasses import replace

        alt = replace(built, layout=pruned_layout)
        t4_pos = kg_load.queries_of_template(4)
        sub = kg_load.subset(t4_pos)
        cfg = {4: 10**6}
        a = run_queries(built, sub, k=K, nprobe_by_tid=cfg, engine="spark", spark=spark)
        b = run_queries(alt, sub, k=K, nprobe_by_tid=cfg, engine="spark", spark=spark)
        for qid in sub.qids:
            np.testing.assert_array_equal(
                a.ids_by_qid[int(qid)], b.ids_by_qid[int(qid)]
            )
        pruned_layout.df.unpersist()

    def test_empty_pids_list_reads_nothing(self, spark, persisted):
        built, path = persisted
        df = read_layout(spark, path, pids=[])
        assert df.count() == 0


class TestLayoutDirectory:
    def test_unpersist_removes_directory(self, spark, kg, kg_load):
        built = build_index(
            "hqi", kg, kg_load, engine="spark", spark=spark, min_size=128
        )
        path = built.layout.files.name
        assert os.path.isfile(os.path.join(path, META_FILE))
        built.layout.unpersist()
        assert not os.path.exists(path)

    def test_pids_option_drops_emptied_slots(self, spark, persisted):
        _, path = persisted
        slots = load_meta(path)["slots"]
        keep = {slots[0][0], slots[-1][-1]}
        got = [
            sorted(int(r["pid"]) for r in part)
            for part in read_layout(spark, path, pids=keep)
            .select("pid").rdd.glom().collect()
        ]
        want = [[p for p in slot if p in keep] for slot in slots]
        assert got == [slot for slot in want if slot]
