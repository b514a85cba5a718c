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
one of them). One rule, ``subsumes``, decides which groups a partition
serves: for the build's cut cost and child groups, and for routing.
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
    row_idx: np.ndarray | None = None  # training-set rows


@dataclass
class Internal:
    split_atoms: tuple  # Atom objects; tuple goes LEFT iff any atom is true
    left: "Internal | Leaf" = None
    right: "Internal | Leaf" = None


def group_matrices(groups: list[QueryGroup], n_atoms: int):
    """``(need, some, weight)``: the groups' AND and OR atoms as
    ``(len(groups), n_atoms)`` float32 0/1 matrices, and their weights
    (float64, so weighted sums are exact integers and use BLAS)."""
    need = np.zeros((len(groups), n_atoms), dtype=np.float32)
    some = np.zeros_like(need)
    for i, g in enumerate(groups):
        need[i, list(g.and_idxs)] = 1
        some[i, list(g.or_idxs)] = 1
    return need, some, np.array([g.weight for g in groups], dtype=np.float64)


def subsumes(need: np.ndarray, some: np.ndarray, sat: np.ndarray) -> np.ndarray:
    """``(groups, partitions)`` bool: does a partition with satisfiability
    bits ``sat[p]`` (``(partitions, atoms)`` bool) subsume group i? Every
    AND atom must be satisfiable, and some OR atom when the group has any.
    Both products count atoms, so they are exact in float32."""
    bits = sat.T.astype(need.dtype)
    return ((need @ (1 - bits)) == 0) & (
        ((some @ bits) > 0) | ~some.any(axis=1, keepdims=True)
    )


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
        ``pid``'s semantic description subsumes ``groups[i]``."""
        need, some, _ = group_matrices(groups, len(self.atoms))
        return subsumes(need, some, np.array([lf.any_true for lf in self.leaves]))

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
    min_size: int,
) -> QDTree:
    """Algorithm 1 (ConstructBalancedQDTree).

    ``atom_matrix`` is the (n_tuples × n_atoms) boolean evaluation of every
    cut predicate over the database — computed once, with numpy, by
    ``plan_hqi``. Construction itself is a driver-side recursion over
    row-index arrays and group-index arrays; every node decides which
    groups a side subsumes with ``subsumes``, as routing does.
    """
    atom_matrix = np.ascontiguousarray(atom_matrix, dtype=bool)
    n, n_atoms = atom_matrix.shape
    if len(atoms) != n_atoms:
        raise ValueError("atom list does not match matrix width")
    tree = QDTree(atoms=atoms)
    need, some, weight = group_matrices(groups, n_atoms)
    uses = (need + some) > 0  # atoms each group references

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

    def build(rows: np.ndarray, gs: np.ndarray):
        if len(rows) <= min_size or not len(gs):
            return make_leaf(rows)
        sub = atom_matrix[rows]
        # Candidate cut predicates: atoms referenced by this node's groups
        # that are mixed (can actually split these rows).
        cand = np.flatnonzero(
            uses[gs].any(axis=0) & sub.any(axis=0) & ~sub.all(axis=0)
        )
        if not len(cand):
            return make_leaf(rows)
        # Row counts per atom are exact in float32 below 2**24 rows.
        sub_f = sub.astype(np.float32 if len(rows) < 1 << 24 else np.float64)
        g_need, g_some, g_weight = need[gs], some[gs], weight[gs]
        split_idxs: list[int] = []
        union = np.zeros(len(rows), dtype=bool)
        # Accumulate min-cost predicates until the left side is balanced.
        # All candidates are scored at once: a cut moves its rows outside
        # the union left, and the right side keeps the other rows outside.
        while np.count_nonzero(union) * 2 <= len(rows) and len(cand):
            rest = sub_f[~union]
            moved = rest[:, cand]
            n_l = np.count_nonzero(union) + moved.sum(axis=0)
            moved_t = moved.T @ rest
            l_bits = (moved_t > 0) | sub[union].any(axis=0)
            r_bits = (rest.sum(axis=0) - moved_t) > 0
            ok = subsumes(g_need, g_some, np.concatenate([l_bits, r_bits]))
            cost = (g_weight @ ok).reshape(2, -1).sum(axis=0)
            # Key (cost, -|L| balance tie-break, atom idx); a cut that
            # leaves the right side empty is degenerate and sorts last.
            best = np.lexsort((cand, -n_l, cost, n_l == len(rows)))[0]
            if n_l[best] == len(rows):
                break
            union |= sub[:, cand[best]]
            split_idxs.append(cand[best])
            cand = np.delete(cand, best)
        # The first cut is never degenerate, so both sides are non-empty.
        sides = np.stack([sub[union].any(axis=0), sub[~union].any(axis=0)])
        routed = subsumes(g_need, g_some, sides)
        node = Internal(split_atoms=tuple(atoms[j] for j in split_idxs))
        node.left = build(rows[union], gs[routed[:, 0]])
        node.right = build(rows[~union], gs[routed[:, 1]])
        return node

    tree.root = build(np.arange(n), np.arange(len(groups)))
    return tree
