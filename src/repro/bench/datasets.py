"""BIGANN-lite datasets and their synthetic hybrid workloads (S13).

§6.1 of the paper: SIFT-100M (128-dim uint8, L2), MSTuring-100M
(100-dim f32, L2), YandexT2I-100M (200-dim f32, IP). Vectors carry no
attributes, so the paper assigns each vector two random float attributes
A and B and generates 20 range predicates — 10 per attribute — where
predicate i has selectivity 2^-i, i in [0, 9]. The query log is the
Cartesian product of the 20 filters with all n_q query vectors.

We reproduce that construction verbatim at ~1000x smaller scale
(DESIGN.md §3): same dims, dtypes, metrics, and the same filter
selectivity ladder; SIFT keeps its 10x-smaller query count, which is
what limits batching gains on it in Table 3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.predicates import Cmp, Conjunction
from repro.core.types import Dataset, Workload

_N_MIXTURE = 64  # mixture components so IVF clustering has structure


@dataclass(frozen=True)
class BigannSpec:
    name: str
    dim: int
    dtype: str  # 'uint8' | 'f32'
    metric: str  # 'l2' | 'ip'
    nq_scale: float  # relative query-set size (SIFT has 10x fewer)


SPECS: dict[str, BigannSpec] = {
    "sift": BigannSpec("sift", 128, "uint8", "l2", 0.1),
    "msturing": BigannSpec("msturing", 100, "f32", "l2", 1.0),
    "yandext2i": BigannSpec("yandext2i", 200, "f32", "ip", 1.0),
}


def _mixture_vectors(
    rng: np.random.Generator, n: int, dim: int, spec: BigannSpec
) -> np.ndarray:
    centers = rng.standard_normal((_N_MIXTURE, dim))
    comp = rng.integers(0, _N_MIXTURE, size=n)
    x = centers[comp] + 0.5 * rng.standard_normal((n, dim))
    if spec.dtype == "uint8":
        # SIFT-like: clipped non-negative 8-bit magnitudes.
        x = np.clip(np.round(x * 36 + 128), 0, 255)
    elif spec.metric == "ip":
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x.astype(np.float64)


def bigann_lite(name: str, *, n: int, seed: int = 0) -> Dataset:
    """Base vectors plus the two synthetic uniform attributes A and B."""
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    vecs = _mixture_vectors(rng, n, spec.dim, spec)
    pdf = pd.DataFrame({"id": np.arange(n, dtype=np.int64)})
    pdf["vec"] = list(vecs)
    pdf["A"] = rng.random(n)
    pdf["B"] = rng.random(n)
    return Dataset(name=name, metric=spec.metric, pdf=pdf, attr_cols=["A", "B"])


def range_filter_templates() -> dict[int, Conjunction]:
    """20 range templates: ids 1..10 are A < 2^-i (i=0..9), ids 11..20 are
    B < 2^-i. Selectivity of template i (within its attribute) is 2^-i."""
    out: dict[int, Conjunction] = {}
    for i in range(10):
        out[i + 1] = Conjunction([Cmp("A", "<", float(2.0**-i))])
        out[i + 11] = Conjunction([Cmp("B", "<", float(2.0**-i))])
    return out


def bigann_workload(
    dataset: Dataset, *, nq: int, seed: int = 100
) -> Workload:
    """Query log = Cartesian product of all 20 filters and nq query
    vectors (so 20*nq hybrid queries), exactly as in §6.1."""
    spec = SPECS[dataset.name]
    rng = np.random.default_rng(seed)
    qvecs = _mixture_vectors(rng, nq, spec.dim, spec)
    templates = range_filter_templates()
    tids = np.repeat(np.arange(1, 21, dtype=np.int64), nq)
    qvecs_full = np.tile(qvecs, (20, 1))
    return Workload(
        templates=templates,
        qids=np.arange(len(tids), dtype=np.int64),
        qvecs=qvecs_full,
        qtemplates=tids,
    )
