"""Predicate model for hybrid queries (Definition 2 of the paper).

A hybrid query's attribute constraint is a conjunction of atomic
predicates, each of which is one of:

- a unary comparison  ``A op x``  with ``op in {<, <=, >, >=, =}``,
- a set-membership check  ``A IN {x1, ..., xj}``,
- an existence check  ``A IS NOT NULL``.

Every predicate supports three evaluation surfaces used throughout the
reproduction:

- ``to_sql()``  — a boolean SQL expression valid in both Spark SQL and
  DuckDB (used by the distributed executor and the correctness oracle),
- ``mask(pdf)`` — a numpy boolean mask over a pandas chunk (used inside
  ``mapInPandas`` tasks and by the local reference engine),
- structural equality / hashing — used by the qd-tree to deduplicate cut
  predicates and by the batch executor to group queries by template.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

_OPS = {"<", "<=", ">", ">=", "="}


def _sql_literal(v) -> str:
    """Render a Python value as a SQL literal (strings are single-quoted)."""
    if isinstance(v, str):
        escaped = v.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    raise TypeError(f"unsupported literal type: {type(v)!r}")


@dataclass(frozen=True)
class Cmp:
    """Unary comparison ``attr op value`` (NULLs never satisfy it)."""

    attr: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")

    def to_sql(self) -> str:
        return f"({self.attr} {self.op} {_sql_literal(self.value)})"

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        col = pdf[self.attr]
        if self.op == "<":
            m = col < self.value
        elif self.op == "<=":
            m = col <= self.value
        elif self.op == ">":
            m = col > self.value
        elif self.op == ">=":
            m = col >= self.value
        else:  # "="
            m = col == self.value
        # NaN comparisons are already False; explicit notna() also covers
        # object columns holding None.
        return (m & col.notna()).to_numpy(dtype=bool)

    def attrs(self) -> frozenset[str]:
        return frozenset({self.attr})


@dataclass(frozen=True)
class In:
    """Set membership ``attr IN {values}`` (NULLs never satisfy it)."""

    attr: str
    values: frozenset = field(default_factory=frozenset)

    def __init__(self, attr: str, values):
        object.__setattr__(self, "attr", attr)
        object.__setattr__(self, "values", frozenset(values))
        if not self.values:
            raise ValueError("IN predicate needs at least one value")

    def to_sql(self) -> str:
        vals = ", ".join(_sql_literal(v) for v in sorted(self.values))
        return f"({self.attr} IN ({vals}))"

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        col = pdf[self.attr]
        return (col.isin(self.values) & col.notna()).to_numpy(dtype=bool)

    def attrs(self) -> frozenset[str]:
        return frozenset({self.attr})


@dataclass(frozen=True)
class NotNull:
    """Existence check ``attr IS NOT NULL``."""

    attr: str

    def to_sql(self) -> str:
        return f"({self.attr} IS NOT NULL)"

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        return pdf[self.attr].notna().to_numpy(dtype=bool)

    def attrs(self) -> frozenset[str]:
        return frozenset({self.attr})


Atom = Cmp | In | NotNull


@dataclass(frozen=True)
class Conjunction:
    """A conjunctive attribute constraint ``p1 AND ... AND pk``.

    The empty conjunction is TRUE (matches every tuple) — used by pure
    vector-search workloads such as the paper's MSTuring no-attribute
    microbenchmark.
    """

    preds: tuple = ()

    def __init__(self, preds=()):
        object.__setattr__(self, "preds", tuple(preds))

    def to_sql(self) -> str:
        if not self.preds:
            return "TRUE"
        return " AND ".join(p.to_sql() for p in self.preds)

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        m = np.ones(len(pdf), dtype=bool)
        for p in self.preds:
            m &= p.mask(pdf)
        return m

    def attrs(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.preds:
            out |= p.attrs()
        return out

    def __len__(self) -> int:
        return len(self.preds)

    def __iter__(self):
        return iter(self.preds)
