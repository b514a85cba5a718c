"""Unit tests for the balanced qd-tree (S5, Algorithms 1-2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.predicates import Cmp, Conjunction, In, NotNull
from repro.core.qdtree import (
    Leaf,
    QueryGroup,
    construct_balanced_qdtree,
    extract_atoms,
)


def _matrix(pdf, atoms):
    return np.stack([a.mask(pdf) for a in atoms], axis=1)


@pytest.fixture()
def toy():
    """The Figure 3 toy database: 7 tuples, types song/artist, 2 centroids."""
    pdf = pd.DataFrame(
        {
            "etype": ["song", "song", "artist", "artist", "artist", "artist", "song"],
            "centroid_id": [0, 0, 0, 1, 1, 1, 1],
        }
    )
    templates = [
        Conjunction([Cmp("etype", "=", "song")]),
        Conjunction([Cmp("etype", "=", "artist")]),
    ]
    centroid_atoms = [In("centroid_id", [0]), In("centroid_id", [1])]
    atoms = extract_atoms(templates, centroid_atoms)
    return pdf, templates, atoms


class TestExtractAtoms:
    def test_dedup_preserves_order(self):
        t1 = Conjunction([Cmp("a", "=", 1), NotNull("b")])
        t2 = Conjunction([NotNull("b"), Cmp("c", "<", 2)])
        atoms = extract_atoms([t1, t2])
        assert atoms == [Cmp("a", "=", 1), NotNull("b"), Cmp("c", "<", 2)]

    def test_centroid_atoms_appended(self):
        atoms = extract_atoms(
            [Conjunction([NotNull("x")])], [In("centroid_id", [0])]
        )
        assert atoms == [NotNull("x"), In("centroid_id", [0])]


class TestConstruction:
    def test_leaves_partition_all_rows(self, toy):
        pdf, templates, atoms = toy
        m = _matrix(pdf, atoms)
        groups = [
            QueryGroup(and_idxs=(0,), or_idxs=(2,), weight=2),
            QueryGroup(and_idxs=(1,), or_idxs=(3,), weight=2),
        ]
        tree = construct_balanced_qdtree(m, atoms, groups, min_size=1)
        all_rows = np.concatenate([lf.row_idx for lf in tree.leaves])
        assert sorted(all_rows.tolist()) == list(range(len(pdf)))

    def test_min_size_respected(self, toy):
        pdf, templates, atoms = toy
        m = _matrix(pdf, atoms)
        groups = [QueryGroup(and_idxs=(0,)), QueryGroup(and_idxs=(1,))]
        tree = construct_balanced_qdtree(m, atoms, groups, min_size=100)
        assert tree.n_leaves == 1  # nothing above MIN_SIZE => single leaf

    def test_no_queries_single_leaf(self, toy):
        pdf, _, atoms = toy
        m = _matrix(pdf, atoms)
        tree = construct_balanced_qdtree(m, atoms, [], min_size=1)
        assert tree.n_leaves == 1

    def test_type_split_separates_templates(self, toy):
        """With two disjoint type predicates, each leaf should serve only
        one template — each template's queries route to fewer leaves than
        the total (pruning actually happens)."""
        pdf, templates, atoms = toy
        m = _matrix(pdf, atoms)
        groups = [QueryGroup(and_idxs=(0,)), QueryGroup(and_idxs=(1,))]
        tree = construct_balanced_qdtree(m, atoms, groups, min_size=1)
        assert tree.n_leaves >= 2
        song, artist = tree.route_groups(groups)
        assert song.sum() < tree.n_leaves
        assert artist.sum() < tree.n_leaves
        assert not (song & artist).any()

    def test_semantic_description_matches_rows(self, toy):
        pdf, templates, atoms = toy
        m = _matrix(pdf, atoms)
        groups = [QueryGroup(and_idxs=(0,)), QueryGroup(and_idxs=(1,))]
        tree = construct_balanced_qdtree(m, atoms, groups, min_size=1)
        for lf in tree.leaves:
            np.testing.assert_array_equal(
                lf.any_true, m[lf.row_idx].any(axis=0)
            )

    def test_balanced_splits_on_selective_predicates(self):
        """1000 rows, ten 10%-selectivity types: the balanced algorithm
        accumulates predicates so the first split is near 50/50, unlike
        the single-predicate greedy which would cut 10/90."""
        g = np.random.default_rng(0)
        pdf = pd.DataFrame({"etype": g.choice([f"t{i}" for i in range(10)], 1000)})
        templates = [Conjunction([Cmp("etype", "=", f"t{i}")]) for i in range(10)]
        atoms = extract_atoms(templates)
        m = _matrix(pdf, atoms)
        groups = [QueryGroup(and_idxs=(i,), weight=1) for i in range(10)]
        tree = construct_balanced_qdtree(m, atoms, groups, min_size=50)
        from repro.core.qdtree import Internal

        root = tree.root
        assert isinstance(root, Internal)
        assert len(root.split_atoms) > 1  # multiple predicates accumulated
        n_left = sum(a.mask(pdf).sum() for a in root.split_atoms)
        assert 400 <= n_left <= 700


class TestRouting:
    @pytest.fixture()
    def built(self, toy):
        pdf, templates, atoms = toy
        m = _matrix(pdf, atoms)
        groups = [
            QueryGroup(and_idxs=(0,), or_idxs=(2,)),
            QueryGroup(and_idxs=(1,), or_idxs=(3,)),
            QueryGroup(and_idxs=(0,), or_idxs=(3,)),
        ]
        tree = construct_balanced_qdtree(m, atoms, groups, min_size=1)
        return pdf, atoms, m, tree

    def test_routing_is_complete(self, built):
        """Every tuple satisfying a query's constraint must live in a
        routed partition — routing may over-approximate, never miss."""
        pdf, atoms, m, tree = built
        for and_idxs in [(0,), (1,)]:
            for or_idxs in [(), (2,), (3,), (2, 3)]:
                g = QueryGroup(and_idxs=and_idxs, or_idxs=or_idxs)
                routed = set(np.flatnonzero(tree.route_groups([g])[0]))
                sat = m[:, and_idxs[0]].copy()
                if or_idxs:
                    sat &= m[:, or_idxs].any(axis=1)
                for lf in tree.leaves:
                    if sat[lf.row_idx].any():
                        assert lf.pid in routed

    def test_group_for_known_atoms(self, built):
        pdf, atoms, m, tree = built
        g = tree.group_for([Cmp("etype", "=", "song")], [In("centroid_id", [0])])
        assert g.and_idxs == (0,)
        assert g.or_idxs == (2,)

    def test_group_for_unknown_and_atom_conservative(self, built):
        pdf, atoms, m, tree = built
        g = tree.group_for([NotNull("nope")], [])
        assert g.and_idxs == ()  # unknown atom dropped => routes everywhere
        assert tree.route_groups([g]).all()

    def test_group_for_unknown_or_atom_conservative(self, built):
        pdf, atoms, m, tree = built
        g = tree.group_for([], [In("centroid_id", [99])])
        assert g.or_idxs == ()


class TestCostBehaviour:
    def test_pruning_beats_random_partitioning(self):
        """The qd-tree layout must need fewer (partition, query) accesses
        than a random equal-size partitioning — Equation 1's objective."""
        g = np.random.default_rng(1)
        n = 2000
        types = g.choice(["a", "b", "c", "d"], n)
        pdf = pd.DataFrame(
            {
                "etype": types,
                "h": np.where(g.random(n) < 0.3, g.random(n), np.nan),
            }
        )
        templates = [
            Conjunction([Cmp("etype", "=", t)]) for t in "abcd"
        ] + [Conjunction([NotNull("h")])]
        atoms = extract_atoms(templates)
        m = _matrix(pdf, atoms)
        groups = [
            QueryGroup(and_idxs=tuple(atoms.index(a) for a in t), weight=10)
            for t in templates
        ]
        tree = construct_balanced_qdtree(m, atoms, groups, min_size=100)
        # Cost per Equation (1): sum over partitions of |Pi| * routed queries.
        routed = tree.route_groups(groups)
        qd_cost = sum(
            lf.n_rows * sum(g.weight for g, r in zip(groups, routed) if r[lf.pid])
            for lf in tree.leaves
        )
        # Random partitioning with the same number of parts: every query
        # routes to every partition (types are spread uniformly).
        p = tree.n_leaves
        rand_cost = n * sum(g.weight for g in groups)
        assert p > 1
        assert qd_cost < rand_cost
