"""Synthetic knowledge-graph substrate (S11).

The paper evaluates on an internal Apple KG with GraphSage entity
embeddings; we cannot access either, so we simulate the properties HQI
exploits (see DESIGN.md §3):

- entities have a ``etype`` and a set of *nullable* attributes whose
  presence depends on the type (§2.1: "The set of attributes an entity
  has is impacted by its type");
- embeddings come from a per-(type, subcluster) Gaussian mixture, so
  vectors correlate with the relational attributes (§2.3: "the vectors
  representing real-world entities are often correlated" with the
  predicates);
- attribute-presence probabilities are chosen so the ten RelatedQS
  templates (kg/workload.py) hit the Table 1 selectivity targets, with
  a floor that keeps every template feasible (>= ~2k matching entities)
  at reproduction scale.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.types import Dataset

# Entity-type population shares (sum to 1.0).
TYPE_SHARES: dict[str, float] = {
    "person": 0.08,
    "artist": 0.06,
    "song": 0.20,
    "album": 0.08,
    "film": 0.06,
    "city": 0.05,
    "country": 0.01,
    "team": 0.04,
    "company": 0.10,
    "book": 0.06,
    "event": 0.06,
    "misc": 0.20,
}

# (attribute, carrier type or None for all types, target joint selectivity)
# Joint selectivity = share(type) * P(attr present | type); these targets
# mirror Table 1's "% feasible KG entities" column (T1..T9 carriers).
ATTR_SPECS: list[tuple[str, str | None, float]] = [
    ("nobel", "person", 5e-4),  # T1 (paper <0.005%; floored, see DESIGN.md)
    ("stadium", "team", 1e-3),  # T2
    ("grammy", "artist", 1e-3),  # T3
    ("height", "person", 5e-3),  # T4
    ("population", "city", 5e-3),  # T5
    ("runtime", "film", 1e-2),  # T6
    ("birth_year", "person", 2.5e-2),  # T7
    ("popularity", None, 0.58),  # T9
]

ATTR_COLS = ["etype"] + [a for a, _, _ in ATTR_SPECS]

_SUBCLUSTERS = 8  # Gaussian-mixture components per entity type
_NOISE = 0.6  # within-cluster noise: spreads neighbors across IVF lists
_MIN_FEASIBLE = 24  # entities that carry each attribute, at least


def kg_entities(*, n: int, dim: int, seed: int = 0) -> Dataset:
    """Generate the synthetic KG entity table with IP-metric embeddings.

    ``_MIN_FEASIBLE`` floors every attribute's carrier count so that even
    the rarest template (T1) has enough matching entities for top-10
    search at small reproduction scales.
    """
    g = np.random.default_rng(seed)
    types = list(TYPE_SHARES)
    shares = np.array([TYPE_SHARES[t] for t in types])
    etype = g.choice(types, size=n, p=shares / shares.sum())

    cols: dict[str, np.ndarray] = {"id": np.arange(n, dtype=np.int64)}
    cols["etype"] = etype
    for attr, carrier, target_sel in ATTR_SPECS:
        carrier_mask = np.ones(n, dtype=bool) if carrier is None else etype == carrier
        n_carrier = int(carrier_mask.sum())
        if n_carrier == 0:
            p = 0.0
        else:
            # P(present | carrier) to reach the joint selectivity target,
            # floored so at least _MIN_FEASIBLE entities carry the attribute.
            p = min(1.0, max(target_sel * n, _MIN_FEASIBLE) / n_carrier)
        present = carrier_mask & (g.random(n) < p)
        vals = np.where(present, g.random(n) * 100.0, np.nan)
        cols[attr] = vals

    # Embeddings: per-(type, subcluster) mixture, L2-normalized (IP metric).
    centers = {
        (t, s): g.standard_normal(dim) for t in types for s in range(_SUBCLUSTERS)
    }
    sub = g.integers(0, _SUBCLUSTERS, size=n)
    vecs = np.empty((n, dim))
    for t in types:
        for s in range(_SUBCLUSTERS):
            rows = np.flatnonzero((etype == t) & (sub == s))
            if len(rows):
                vecs[rows] = centers[(t, s)] + _NOISE * g.standard_normal(
                    (len(rows), dim)
                )
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)

    pdf = pd.DataFrame(cols)
    pdf["vec"] = list(vecs)
    pdf = pdf[["id", "vec", *ATTR_COLS]]
    return Dataset(name="kg", metric="ip", pdf=pdf, attr_cols=ATTR_COLS)
