"""Definition 3 (batch HVQ processing) checked against DuckDB.

One DuckDB query states the semantics: for each query, the k nearest
tuples that satisfy its template, ranked by ``(score, id)``, with squared
L2 written via ``list_inner_product`` and the WHERE clause built from each
template's ``to_sql()``. Exhaustive search and HQI, PreFilter and Range at
full probe on the local engine must all return exactly those rows, in
that order.

Integer-valued vectors make every score exact, so some queries have
exact score ties at the k-th rank (8 of the 48 here; in 6 of them the
tied rows sit in different partitions of every layout).
The templates cover NULL-heavy attributes, zero matches, fewer than k
matches, an empty constraint, and ``A <= edge`` where ``edge`` is a Range
bucket edge that is also a data value.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.predicates import Cmp, Conjunction, In, NotNull
from repro.core.types import Dataset, Workload
from repro.exec.recall import exhaustive_local
from repro.exec.strategies import build_index, run_queries
from repro.index.layout import plan_range
from repro.oracle import assert_equivalent

K = 5
FULL = 10**6
N, DIM, NQ_PER_TEMPLATE = 800, 6, 6
N_RARE = 3  # rows with etype 'city': fewer than K matches


@pytest.fixture(scope="module")
def ds() -> Dataset:
    g = np.random.default_rng(0)
    etype = g.choice(["song", "artist", "person"], N).astype(object)
    etype[g.choice(N, N_RARE, replace=False)] = "city"
    pdf = pd.DataFrame(
        {
            "id": np.arange(N, dtype=np.int64),
            "vec": list(g.integers(0, 10, (N, DIM)).astype(np.float64)),
            "etype": etype,
            # NULL for ~85% of rows.
            "h": np.where(g.random(N) < 0.15, g.integers(0, 100, N), np.nan),
            # Integer-valued, so the Range edges are data values.
            "A": g.integers(0, 20, N).astype(np.float64),
        }
    )
    return Dataset(name="intvec", metric="l2", pdf=pdf, attr_cols=["etype", "h", "A"])


@pytest.fixture(scope="module")
def wl(ds) -> Workload:
    edge = float(plan_range(ds).range_edges[3])
    assert (ds.pdf["A"] == edge).any(), "the Range edge must be a data value"
    templates = {
        1: Conjunction([Cmp("etype", "=", "song")]),
        2: Conjunction([In("etype", ["artist", "person"])]),
        3: Conjunction([NotNull("h")]),
        4: Conjunction([Cmp("etype", "=", "nobody")]),  # zero matches
        5: Conjunction([Cmp("etype", "=", "city")]),  # fewer than K
        6: Conjunction([Cmp("A", "<=", edge)]),
        7: Conjunction([Cmp("A", "<", edge), NotNull("h")]),
        8: Conjunction(),
    }
    assert templates[5].mask(ds.pdf).sum() == N_RARE < K
    assert not templates[4].mask(ds.pdf).any()
    tids = np.repeat(np.array(list(templates), dtype=np.int64), NQ_PER_TEMPLATE)
    g = np.random.default_rng(1)
    wl = Workload(
        templates=templates,
        qids=np.arange(len(tids), dtype=np.int64),
        qvecs=g.integers(0, 10, (len(tids), DIM)).astype(np.float64),
        qtemplates=tids,
    )
    # The (score, id) tie-break decides some query's k-th answer.
    wide = exhaustive_local(ds, wl, K + 1).scores_by_qid.values()
    assert any(len(s) > K and s[K - 1] == s[K] for s in wide)
    return wl


def _definition3_sql(wl: Workload, k: int) -> str:
    where = " OR ".join(
        f"(q.tid = {tid} AND {t.to_sql()})" for tid, t in wl.templates.items()
    )
    window = "row_number() OVER (PARTITION BY q.qid ORDER BY score, v.id)"
    return f"""
        SELECT q.qid AS qid, v.id AS candidate,
               list_inner_product(v.vvec, v.vvec)
             - 2 * list_inner_product(q.qvec, v.vvec)
             + list_inner_product(q.qvec, q.qvec) AS score,
               {window} AS rank
        FROM q, v
        WHERE {where}
        QUALIFY {window} <= {k}
    """


def _rows(result, wl: Workload) -> pd.DataFrame:
    """A ``RunResult`` as (qid, candidate, score, rank) rows."""
    rows = [
        (qid, int(i), float(s), r + 1)
        for qid in wl.qids.tolist()
        for r, (i, s) in enumerate(
            zip(result.ids_by_qid[qid], result.scores_by_qid[qid])
        )
    ]
    return pd.DataFrame(rows, columns=["qid", "candidate", "score", "rank"])


def _run(approach: str, ds: Dataset, wl: Workload):
    if approach == "exhaustive_local":
        return exhaustive_local(ds, wl, K)
    built = build_index(
        approach, ds, wl if approach != "prefilter" else None, min_size=64
    )
    assert built.plan.n_parts > 1
    cfg = {tid: FULL for tid in wl.templates}
    return run_queries(built, wl, k=K, nprobe_by_tid=cfg)


class TestDefinition3Oracle:
    @pytest.mark.parametrize(
        "approach", ["exhaustive_local", "hqi", "prefilter", "range"]
    )
    def test_matches_duckdb(self, ds, wl, approach):
        q = pd.DataFrame({"qid": wl.qids, "qvec": list(wl.qvecs), "tid": wl.qtemplates})
        v = ds.pdf.rename(columns={"vec": "vvec"})
        assert_equivalent(
            _rows(_run(approach, ds, wl), wl), _definition3_sql(wl, K), q=q, v=v
        )
