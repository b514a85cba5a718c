"""Balanced qd-tree for workload-aware partitioning (§4.1, Algorithms 1–2).

The tree is built over a boolean *atom matrix*: one column per cut
predicate (``Atom``) extracted from the workload, one row per database
tuple. Vector-similarity constraints enter as ordinary atoms over the
``centroid_id`` column added by the §4.1.1 transformation (``centroid_id
IN {c}``), so the construction treats relational and vector predicates
uniformly.

Differences from the original greedy qd-tree, per the paper:

- each split accumulates *multiple* predicates (a disjunction) until the
  left side holds at least half of the node's tuples, which keeps the
  tree balanced in the presence of highly selective predicates
  (Algorithm 1, lines 5–12);
- the per-predicate cost is the number of (weighted) queries that would
  be routed to both children (Algorithm 2, line 7) — minimizing it
  maximizes the number of partitions skippable for the workload.

A query group models a set of identical queries: a conjunction of
attribute atoms (all must be satisfiable in a partition for it to be
routed there) plus an optional disjunctive set of centroid atoms (the
query's ``m`` nearest centroids — the partition must contain at least
one of them).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .predicates import Atom


@dataclass(frozen=True)
class QueryGroup:
    """Distinct (attribute constraint, centroid set) with a multiplicity."""

    and_idxs: tuple  # indices into the atom list; conjunction
    or_idxs: tuple = ()  # centroid atoms; disjunction; () = unconstrained
    weight: int = 1


@dataclass
class Leaf:
    pid: int
    n_rows: int
    any_true: np.ndarray  # semantic description: atom satisfiable in partition
    row_idx: np.ndarray | None = None  # training-set rows (dropped when persisted)


@dataclass
class Internal:
    split_atoms: tuple  # Atom objects; tuple goes LEFT iff any atom is true
    left: "Internal | Leaf" = None
    right: "Internal | Leaf" = None


def _routed(any_true: np.ndarray, g: QueryGroup) -> bool:
    """Does a partition with satisfiability bits ``any_true`` subsume g?"""
    for j in g.and_idxs:
        if not any_true[j]:
            return False
    if g.or_idxs:
        return any(any_true[j] for j in g.or_idxs)
    return True


@dataclass
class QDTree:
    """A constructed tree plus per-leaf semantic descriptions."""

    atoms: list
    root: Internal | Leaf = None
    leaves: list = field(default_factory=list)
    _atom_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._atom_index = {a: i for i, a in enumerate(self.atoms)}

    # ---------------------------------------------------------------- routing
    def route_groups(self, groups: list[QueryGroup]) -> np.ndarray:
        """``(len(groups), n_leaves)`` bool: ``[i, pid]`` is set iff leaf
        ``pid``'s semantic description subsumes ``groups[i]`` (as
        ``_routed`` decides), for all groups at once against one leaves ×
        atoms satisfiability matrix."""
        sat = np.array([lf.any_true for lf in self.leaves], dtype=bool).T
        need = np.zeros((len(groups), len(self.atoms)), dtype=bool)
        some = np.zeros_like(need)
        for i, g in enumerate(groups):
            need[i, list(g.and_idxs)] = True
            some[i, list(g.or_idxs)] = True
        # No AND atom unsatisfiable, and some OR atom satisfiable when the
        # group has any.
        return ~(need @ ~sat) & ((some @ sat) | ~some.any(axis=1, keepdims=True))

    def group_for(self, and_atoms, or_atoms=()) -> QueryGroup:
        """Build a QueryGroup from Atom objects. Atoms outside the cut set
        (unseen predicates) are dropped conservatively: an unknown AND atom
        cannot prune, an unknown OR atom makes the disjunction satisfiable."""
        and_idxs = tuple(
            self._atom_index[a] for a in and_atoms if a in self._atom_index
        )
        or_idxs = []
        for a in or_atoms:
            if a not in self._atom_index:
                or_idxs = []  # unknown centroid: cannot prune on centroids
                break
            or_idxs.append(self._atom_index[a])
        return QueryGroup(and_idxs=and_idxs, or_idxs=tuple(or_idxs))

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)


def extract_atoms(conjunctions, centroid_atoms=()) -> list:
    """Deduplicated cut-predicate list from workload templates plus the
    centroid atoms produced by the §4.1.1 transformation."""
    out, seen = [], set()
    for conj in conjunctions:
        for a in conj:
            if a not in seen:
                seen.add(a)
                out.append(a)
    for a in centroid_atoms:
        if a not in seen:
            seen.add(a)
            out.append(a)
    return out


def construct_balanced_qdtree(
    atom_matrix: np.ndarray,
    atoms: list,
    groups: list[QueryGroup],
    *,
    min_size: int = 64,
) -> QDTree:
    """Algorithm 1 (ConstructBalancedQDTree).

    ``atom_matrix`` is the (n_tuples × n_atoms) boolean evaluation of every
    cut predicate over the database — computed once, with numpy, by
    ``plan_hqi``. Construction itself is a driver-side recursion over
    row-index arrays (the matrix for 100K tuples × ~50 atoms is a few MB).
    """
    atom_matrix = np.ascontiguousarray(atom_matrix, dtype=bool)
    n, n_atoms = atom_matrix.shape
    if len(atoms) != n_atoms:
        raise ValueError("atom list does not match matrix width")
    tree = QDTree(atoms=atoms)

    def make_leaf(rows: np.ndarray) -> Leaf:
        lf = Leaf(
            pid=len(tree.leaves),
            n_rows=len(rows),
            any_true=atom_matrix[rows].any(axis=0)
            if len(rows)
            else np.zeros(n_atoms, dtype=bool),
            row_idx=rows,
        )
        tree.leaves.append(lf)
        return lf

    def build(rows: np.ndarray, node_groups: list[QueryGroup]):
        if len(rows) <= min_size or not node_groups:
            return make_leaf(rows)
        sub = atom_matrix[rows]
        any_t, all_t = sub.any(axis=0), sub.all(axis=0)
        # Candidate cut predicates: atoms referenced by this node's queries
        # that are mixed (can actually split these rows).
        cand = sorted(
            {
                j
                for g in node_groups
                for j in (*g.and_idxs, *g.or_idxs)
                if any_t[j] and not all_t[j]
            }
        )
        if not cand:
            return make_leaf(rows)
        split_idxs: list[int] = []
        union = np.zeros(len(rows), dtype=bool)
        # Accumulate min-cost predicates until the left side is balanced.
        while len(np.flatnonzero(union)) * 2 <= len(rows) and cand:
            best = None  # (cost, -|L| balance tie-break, atom idx, new union)
            for j in cand:
                u = union | sub[:, j]
                n_l = int(u.sum())
                if n_l == len(rows):
                    continue  # degenerate: right side would be empty
                l_bits = atom_matrix[rows[u]].any(axis=0)
                r_bits = atom_matrix[rows[~u]].any(axis=0)
                cost = sum(
                    g.weight
                    * (int(_routed(l_bits, g)) + int(_routed(r_bits, g)))
                    for g in node_groups
                )
                key = (cost, -n_l, j)
                if best is None or key < best[0]:
                    best = (key, j, u)
            if best is None:
                break
            j, union = best[1], best[2]
            cand.remove(j)
            split_idxs.append(j)
        n_left = int(union.sum())
        if n_left == 0 or n_left == len(rows):
            return make_leaf(rows)
        left_rows, right_rows = rows[union], rows[~union]
        l_bits = atom_matrix[left_rows].any(axis=0)
        r_bits = atom_matrix[right_rows].any(axis=0)
        q_left = [g for g in node_groups if _routed(l_bits, g)]
        q_right = [g for g in node_groups if _routed(r_bits, g)]
        node = Internal(split_atoms=tuple(atoms[j] for j in split_idxs))
        node.left = build(left_rows, q_left)
        node.right = build(right_rows, q_right)
        return node

    tree.root = build(np.arange(n), list(groups))
    return tree
