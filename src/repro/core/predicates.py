"""Predicate model for hybrid queries (Definition 2 of the paper).

A hybrid query's attribute constraint is a conjunction of atomic
predicates, each of which is one of:

- a unary comparison  ``A op x``  with ``op in {<, <=, >, >=, =}``,
- a set-membership check  ``A IN {x1, ..., xj}``,
- an existence check  ``A IS NOT NULL``.

Every predicate supports three evaluation surfaces used throughout the
reproduction:

- ``to_sql()``  — a boolean SQL expression valid in both Spark SQL and
  DuckDB (the DuckDB correctness oracle builds its WHERE clause from it),
- ``mask(pdf)`` — a numpy boolean mask over a pandas frame (the filter
  bitmap ``search_partition`` pushes into the scan, in both engines),
- structural equality / hashing — used by the qd-tree to deduplicate cut
  predicates and by the batch executor to group queries by template.

Every atom's mask goes through one column kernel, ``_column_mask``. Index
partitions store their string attributes dictionary-encoded
(``dictionary_encode``: pandas categoricals, Arrow dictionary arrays once
packed), so on such a column the atom's test runs once per dictionary
entry and the result is gathered by code, with code -1 (NULL) reading
False. A float column is tested with numpy and ``~isnan``; any other
column (the canonical ``Dataset`` frame's object strings, integers) takes
the pandas path. NULLs never satisfy an atom on any path.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
}


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


def dictionary_encode(frame: pd.DataFrame) -> pd.DataFrame:
    """``frame`` with its object (string / ``None``) columns as pandas
    categoricals, the form ``mask`` tests once per dictionary entry."""
    obj = [c for c in frame.columns if frame[c].dtype == object]
    return frame.astype(dict.fromkeys(obj, "category")) if obj else frame


def _column_mask(col: pd.Series, test) -> np.ndarray:
    """``test`` (values -> bools, elementwise) over ``col``; NULLs read False."""
    if isinstance(col.dtype, pd.CategoricalDtype):
        cat = col.array  # the pd.Categorical; its codes without a Series
        hit = np.asarray(test(cat.categories.to_numpy()), dtype=bool)
        # Code -1 (NULL) gathers the appended False.
        return np.append(hit, False).take(cat.codes)
    if col.dtype.kind == "f":
        vals = col.to_numpy()
        return np.asarray(test(vals), dtype=bool) & ~np.isnan(vals)
    return np.asarray(test(col), dtype=bool) & col.notna().to_numpy()


@dataclass(frozen=True)
class Cmp:
    """Unary comparison ``attr op value`` (NULLs never satisfy it)."""

    attr: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in _CMP:
            raise ValueError(f"op must be one of {sorted(_CMP)}, got {self.op!r}")

    def to_sql(self) -> str:
        return f"({self.attr} {self.op} {_sql_literal(self.value)})"

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        cmp = _CMP[self.op]
        return _column_mask(pdf[self.attr], lambda v: cmp(v, self.value))

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
        return _column_mask(pdf[self.attr], lambda v: pd.Index(v).isin(self.values))

    def attrs(self) -> frozenset[str]:
        return frozenset({self.attr})


@dataclass(frozen=True)
class NotNull:
    """Existence check ``attr IS NOT NULL``."""

    attr: str

    def to_sql(self) -> str:
        return f"({self.attr} IS NOT NULL)"

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        return _column_mask(pdf[self.attr], lambda v: np.ones(len(v), dtype=bool))

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
