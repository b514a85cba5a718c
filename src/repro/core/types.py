"""Shared containers: the vector database (Definition 1) and the hybrid
query workload (Definition 2).

A ``Dataset`` holds the canonical pandas frame (deterministic, produced
by the generators): ``id``, ``vec`` (fixed-length lists) and the
attribute columns, with NaN / ``None`` for a missing attribute. The index
build, exhaustive search (Strategy A) and the DuckDB oracle all read it.

A ``Workload`` is a set of hybrid queries in struct-of-arrays form:
query vectors as one ``(nq, d)`` matrix plus a template id per query
pointing into a small dict of attribute constraints. This mirrors the
paper's observation that workloads contain few distinct templates
(filter commonality) and is what the batch executor groups by.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .predicates import Conjunction


def vec_matrix(col: pd.Series) -> np.ndarray:
    """Stack a pandas column of fixed-length lists into an (n, d) array."""
    return np.stack(col.to_numpy()).astype(np.float64)


@dataclass
class Dataset:
    """A vector database V: tuples (id, vec, attributes)."""

    name: str
    metric: str  # 'l2' | 'ip'
    pdf: pd.DataFrame  # columns: id, vec, *attr_cols
    attr_cols: list[str]
    _vecs: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.pdf)

    @property
    def dim(self) -> int:
        return len(self.pdf["vec"].iloc[0])

    def vecs(self) -> np.ndarray:
        if self._vecs is None:
            self._vecs = vec_matrix(self.pdf["vec"])
        return self._vecs

    def ids(self) -> np.ndarray:
        return self.pdf["id"].to_numpy(dtype=np.int64)


@dataclass
class Workload:
    """A batch hybrid-query workload Q over one dataset."""

    templates: dict[int, Conjunction]  # template_id -> attribute constraint
    qids: np.ndarray  # (nq,) int64, globally unique within the workload
    qvecs: np.ndarray  # (nq, d) float64
    qtemplates: np.ndarray  # (nq,) int64 template id per query

    @property
    def nq(self) -> int:
        return len(self.qids)

    def queries_of_template(self, tid: int) -> np.ndarray:
        """Positions (not qids) of this template's queries."""
        return np.flatnonzero(self.qtemplates == tid)

    def template_counts(self) -> dict[int, int]:
        uniq, counts = np.unique(self.qtemplates, return_counts=True)
        return {int(t): int(c) for t, c in zip(uniq, counts)}

    def subset(self, positions: np.ndarray) -> "Workload":
        """Sub-workload at the given query positions (used for tuning)."""
        return Workload(
            templates=self.templates,
            qids=self.qids[positions],
            qvecs=self.qvecs[positions],
            qtemplates=self.qtemplates[positions],
        )
