"""Unit tests for layout planning (plan_hqi / plan_range / plan_flat)
and the local materializer."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.bench.datasets import bigann_lite, bigann_workload
from repro.core.kmeans import assign
from repro.core.predicates import Cmp, Conjunction, In
from repro.exec.engine import PartitionData
from repro.index.layout import (
    CENTROID_COL,
    lpt_slots,
    materialize_local,
    plan_flat,
    plan_hqi,
    plan_range,
)
from repro.kg.entities import kg_entities
from repro.kg.workload import relatedqs_templates, relatedqs_workload


@pytest.fixture(scope="module")
def kg():
    return kg_entities(n=3_000, dim=8, seed=0)


@pytest.fixture(scope="module")
def wl(kg):
    return relatedqs_workload(kg, n_queries_per_split=150, seed=0)[0]


@pytest.fixture(scope="module")
def ms():
    return bigann_lite("msturing", n=2_000, seed=0)


class TestPlanHQI:
    def test_pid_assignment_total(self, kg, wl):
        plan = plan_hqi(kg, wl, min_size=256)
        assert plan.kind == "hqi"
        assert len(plan.pid_of_row) == kg.n
        assert set(np.unique(plan.pid_of_row)) <= set(range(plan.n_parts))

    def test_min_size_bounds_partition_count(self, kg, wl):
        small = plan_hqi(kg, wl, min_size=128)
        large = plan_hqi(kg, wl, min_size=1024)
        assert small.n_parts >= large.n_parts
        # No partition can be smaller than a split of a MIN_SIZE node
        # would allow; the tree never splits nodes at or below MIN_SIZE.
        counts = np.bincount(large.pid_of_row)
        assert counts.max() >= 1024 / 2 or large.n_parts == 1

    def test_m_zero_has_no_routing_centroids(self, kg, wl):
        plan = plan_hqi(kg, wl, m=0)
        assert plan.routing_centroids is None
        assert all(
            getattr(a, "attr", "") != CENTROID_COL for a in plan.tree.atoms
        )

    def test_m_positive_adds_centroid_atoms(self, kg, wl):
        plan = plan_hqi(kg, wl, m=5, n_routing_centroids=16, min_size=256)
        assert plan.routing_centroids.shape == (16, kg.dim)
        centroid_atoms = [
            a for a in plan.tree.atoms if getattr(a, "attr", "") == CENTROID_COL
        ]
        assert len(centroid_atoms) == 16

    def test_partitions_purify_templates(self, kg, wl):
        """Weighted cost (Eq. 1) of the qd-tree layout must beat a random
        layout with the same partition count."""
        plan = plan_hqi(kg, wl, min_size=256)
        counts = {t: c for t, c in wl.template_counts().items()}
        tree = plan.tree
        routed = tree.route_groups(
            [tree.group_for(list(wl.templates[tid])) for tid in counts]
        )
        n_rows = np.array([lf.n_rows for lf in tree.leaves])
        qd_cost = sum(
            weight * n_rows[r].sum() for weight, r in zip(counts.values(), routed)
        )
        rand_cost = sum(counts.values()) * kg.n  # every query scans all
        assert qd_cost < 0.7 * rand_cost


class TestPlanRange:
    def test_bucket_assignment_matches_edges(self, ms):
        plan = plan_range(ms, attr="A", n_parts=8)
        vals = ms.pdf["A"].to_numpy()
        for b in range(8):
            rows = vals[plan.pid_of_row == b]
            if b > 0:
                assert rows.min() >= plan.range_edges[b - 1]
            if b < 7:
                assert rows.max() <= plan.range_edges[b]

    def test_n_parts(self, ms):
        plan = plan_range(ms, attr="B", n_parts=5)
        assert plan.n_parts == 5
        assert plan.range_attr == "B"
        assert len(plan.range_edges) == 4


class TestPlanFlat:
    def test_lists_assigned_to_nearest_centroid(self, ms):
        plan = plan_flat(ms, n_buckets=4, seed=0)
        np.testing.assert_array_equal(
            plan.list_of_row, assign(ms.vecs(), plan.global_centroids)
        )

    def test_sqrt_n_lists(self, ms):
        plan = plan_flat(ms, n_buckets=4, seed=0)
        assert len(plan.global_centroids) == int(np.sqrt(ms.n))

    def test_buckets_capped_by_lists(self):
        tiny = bigann_lite("msturing", n=9, seed=0)
        plan = plan_flat(tiny, n_buckets=64, seed=0)
        assert plan.n_buckets <= 3  # sqrt(9) lists


def test_lpt_slots_largest_first_to_least_loaded():
    # Order by rows: 1 (9), 4 (7), 0 and 2 (5 each; pid breaks the tie), 3 (2).
    # Loads after each step: [9, 0], [9, 7], [9, 12], [14, 12], [14, 14].
    assert lpt_slots({0: 5, 1: 9, 2: 5, 3: 2, 4: 7}, 2) == [[1, 2], [0, 3, 4]]
    assert lpt_slots({3: 1, 5: 1}, 2) == [[3], [5]]


class TestMaterializeLocal:
    def test_partitions_cover_dataset(self, kg, wl):
        plan = plan_hqi(kg, wl, min_size=256)
        parts = materialize_local(kg, plan)
        total = sum(len(p.ids) for p in parts.values())
        assert total == kg.n
        all_ids = np.concatenate([p.ids for p in parts.values()])
        assert sorted(all_ids.tolist()) == sorted(kg.ids().tolist())

    def test_partition_ivf_sqrt_lists(self, kg, wl):
        plan = plan_hqi(kg, wl, min_size=256)
        parts = materialize_local(kg, plan)
        for p in parts.values():
            assert len(p.centroids) == max(1, int(np.sqrt(len(p.ids))))

    def test_flat_bucket_local_list_is_global_stride(self, ms):
        """Local list j of bucket b holds exactly the rows of global list
        b + j * n_buckets, with that list's centroid row; every global
        list of the bucket is stored, empty or not (the second plan leaves
        two of every three global lists empty)."""
        plan = plan_flat(ms, n_buckets=4, seed=0)
        lists = plan.list_of_row * 3
        sparse = dataclasses.replace(
            plan, pid_of_row=lists % 4, list_of_row=lists,
            global_centroids=ms.vecs()[: 3 * len(plan.global_centroids)],
        )
        ids = ms.ids()
        for plan in (plan, sparse):
            n_lists = len(plan.global_centroids)
            parts = materialize_local(ms, plan)
            assert set(parts) == set(range(4))
            for b, p in parts.items():
                idx = p.index(ms.metric)
                assert idx.n_lists == len(range(b, n_lists, 4))
                for j, g in enumerate(range(b, n_lists, 4)):
                    np.testing.assert_array_equal(
                        idx.centroids[j], plan.global_centroids[g]
                    )
                    lo, hi = idx.list_offsets[j], idx.list_offsets[j + 1]
                    np.testing.assert_array_equal(
                        np.sort(idx.ids[lo:hi]),
                        np.sort(ids[plan.list_of_row == g]),
                    )

    @pytest.mark.parametrize("kind", ["hqi", "flat"])
    def test_index_lists_hold_their_labelled_rows(self, kg, wl, kind):
        """Rows are stored in list order, so each posting list of
        ``PartitionData.index`` is exactly the rows labelled with it."""
        plan = plan_hqi(kg, wl, min_size=256) if kind == "hqi" else plan_flat(kg)
        for p in materialize_local(kg, plan).values():
            idx = p.index(kg.metric)
            np.testing.assert_array_equal(
                np.repeat(np.arange(idx.n_lists), np.diff(idx.list_offsets)),
                p.labels,
            )

    def test_attrs_aligned_with_ids(self, kg, wl):
        plan = plan_hqi(kg, wl, min_size=256)
        parts = materialize_local(kg, plan)
        pdf = kg.pdf.set_index("id")
        p = parts[0]
        expected = pdf.loc[p.ids, "etype"].to_numpy()
        np.testing.assert_array_equal(p.attrs["etype"].to_numpy(), expected)


# Atoms over every attribute kind a KG partition holds: the RelatedQS
# templates plus string range compares and values absent from the data.
_GUARD_PREDS = [
    *relatedqs_templates().values(),
    Conjunction([Cmp("etype", "<", "person")]),
    Conjunction([Cmp("etype", ">=", "film"), Cmp("popularity", ">", 50.0)]),
    Conjunction([In("etype", ["planet", "song"])]),
    Conjunction([Cmp("etype", "=", "planet")]),
]


def assert_encoded_partition(part, raw_by_id):
    """``part`` holds no object-dtype attribute column, and each guard
    predicate's mask over it equals the mask over the dataset's raw rows."""
    assert not [c for c in part.attrs.columns if part.attrs[c].dtype == object]
    raw = raw_by_id.loc[part.ids, list(part.attrs.columns)].reset_index(drop=True)
    for pred in _GUARD_PREDS:
        np.testing.assert_array_equal(pred.mask(part.attrs), pred.mask(raw))


class TestEncodedPartitionAttrs:
    @pytest.mark.parametrize("kind", ["hqi", "flat"])
    def test_built_and_unpacked_partitions_are_encoded(self, kg, wl, kind):
        plan = plan_hqi(kg, wl, min_size=256) if kind == "hqi" else plan_flat(kg)
        raw_by_id = kg.pdf.set_index("id")
        for part in materialize_local(kg, plan).values():
            assert isinstance(part.attrs["etype"].dtype, pd.CategoricalDtype)
            assert_encoded_partition(part, raw_by_id)
            assert_encoded_partition(PartitionData.unpack(part.pack()), raw_by_id)
