"""Unit tests for the predicate model (Definition 2)."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.predicates import Cmp, Conjunction, In, NotNull, dictionary_encode
from repro.kg.entities import kg_entities


@pytest.fixture(scope="module")
def kg_pdf() -> pd.DataFrame:
    return kg_entities(n=2_500, dim=4, seed=0).pdf.drop(columns="vec")


@pytest.fixture()
def pdf() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "etype": ["song", "artist", "person", None, "song", "city"],
            "height": [np.nan, 1.7, 1.8, np.nan, np.nan, np.nan],
            "pop": [10.0, 20.0, 30.0, 40.0, 50.0, np.nan],
            "rank": [1, 2, 3, 4, 5, 6],
        }
    )


class TestCmp:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("<", 30.0, [True, True, False, False, False, False]),
            ("<=", 30.0, [True, True, True, False, False, False]),
            (">", 30.0, [False, False, False, True, True, False]),
            (">=", 30.0, [False, False, True, True, True, False]),
            ("=", 30.0, [False, False, True, False, False, False]),
        ],
    )
    def test_ops(self, pdf, op, value, expected):
        assert Cmp("pop", op, value).mask(pdf).tolist() == expected

    def test_null_never_matches(self, pdf):
        # NaN in "pop" row 5 must be excluded for every operator.
        for op in ["<", "<=", ">", ">=", "="]:
            assert not Cmp("pop", op, 1e18).mask(pdf)[5] or op in ("<", "<=")
        assert not Cmp("pop", ">", -1e18).mask(pdf)[5]

    def test_string_equality(self, pdf):
        assert Cmp("etype", "=", "song").mask(pdf).tolist() == [
            True, False, False, False, True, False,
        ]

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            Cmp("pop", "!=", 1)

    def test_sql_rendering(self):
        assert Cmp("pop", "<", 3).to_sql() == "(pop < 3)"
        assert Cmp("etype", "=", "so'ng").to_sql() == "(etype = 'so''ng')"

    def test_hash_equality(self):
        assert Cmp("a", "<", 1) == Cmp("a", "<", 1)
        assert hash(Cmp("a", "<", 1)) == hash(Cmp("a", "<", 1))
        assert Cmp("a", "<", 1) != Cmp("a", "<=", 1)


class TestIn:
    def test_membership(self, pdf):
        assert In("etype", ["song", "city"]).mask(pdf).tolist() == [
            True, False, False, False, True, True,
        ]

    def test_null_never_matches(self, pdf):
        assert not In("etype", ["song"]).mask(pdf)[3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            In("etype", [])

    def test_sql_sorted_deterministic(self):
        assert In("etype", ["b", "a"]).to_sql() == "(etype IN ('a', 'b'))"

    def test_hash_order_insensitive(self):
        assert In("x", [1, 2]) == In("x", [2, 1])
        assert hash(In("x", [1, 2])) == hash(In("x", [2, 1]))

    def test_int_membership(self, pdf):
        assert In("rank", [2, 4, 6]).mask(pdf).tolist() == [
            False, True, False, True, False, True,
        ]


class TestNotNull:
    def test_float_column(self, pdf):
        assert NotNull("height").mask(pdf).tolist() == [
            False, True, True, False, False, False,
        ]

    def test_object_column(self, pdf):
        assert NotNull("etype").mask(pdf).tolist() == [
            True, True, True, False, True, True,
        ]

    def test_sql(self):
        assert NotNull("h").to_sql() == "(h IS NOT NULL)"


class TestConjunction:
    def test_empty_is_true(self, pdf):
        assert Conjunction().mask(pdf).all()
        assert Conjunction().to_sql() == "TRUE"

    def test_and_semantics(self, pdf):
        c = Conjunction([Cmp("etype", "=", "person"), NotNull("height")])
        assert c.mask(pdf).tolist() == [False, False, True, False, False, False]

    def test_attrs_union(self):
        c = Conjunction([Cmp("a", "<", 1), NotNull("b"), In("a", [1])])
        assert c.attrs() == frozenset({"a", "b"})

    def test_iteration_and_len(self):
        preds = [Cmp("a", "<", 1), NotNull("b")]
        c = Conjunction(preds)
        assert len(c) == 2 and list(c) == preds

    def test_hashable_for_grouping(self):
        a = Conjunction([Cmp("a", "<", 1)])
        b = Conjunction([Cmp("a", "<", 1)])
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize(
    "pred",
    [
        Cmp("pop", "<", 25.0),
        Cmp("pop", ">=", 30.0),
        Cmp("etype", "=", "song"),
        In("etype", ["song", "artist"]),
        In("rank", [1, 3, 5]),
        NotNull("height"),
        NotNull("etype"),
        Conjunction([Cmp("etype", "=", "person"), NotNull("height")]),
        Conjunction([In("etype", ["song", "city"]), Cmp("pop", ">", 5.0)]),
        Conjunction(),
        # KG templates (pred7 and the empty one also run on the KG frame).
        Conjunction([In("etype", ["song", "company"])]),
        Conjunction([NotNull("popularity")]),
    ],
)
def test_sql_matches_pandas_mask_on_duckdb(pdf, kg_pdf, pred):
    """to_sql() and mask() must agree — DuckDB evaluates the SQL over the
    same frame and the selected row sets are compared, on each frame that
    has the predicate's attributes."""
    frames = [f for f in (pdf, kg_pdf) if pred.attrs() <= set(f.columns)]
    assert frames
    for frame in frames:
        assert _duckdb_rids(frame, pred) == np.flatnonzero(pred.mask(frame)).tolist()


def _duckdb_rids(pdf, pred):
    """Row positions DuckDB selects with ``pred.to_sql()`` over ``pdf``."""
    pdf = pdf.assign(_rid=np.arange(len(pdf)))
    con = duckdb.connect()
    try:
        con.register("t", pdf)
        return con.execute(
            f"SELECT _rid FROM t WHERE {pred.to_sql()} ORDER BY _rid"
        ).fetchdf()["_rid"].tolist()
    finally:
        con.close()


class TestDictionaryEncodedMask:
    """Masks over the dictionary-encoded frame an index partition holds
    select the rows DuckDB selects over the raw frame."""

    @pytest.fixture()
    def raw(self, pdf):
        return pdf.assign(empty=[None] * len(pdf))  # an all-NULL string column

    def test_encoding_dtypes(self, raw):
        enc = dictionary_encode(raw)
        assert all(isinstance(enc[c].dtype, pd.CategoricalDtype)
                   for c in ("etype", "empty"))
        assert enc["empty"].cat.categories.empty
        for c in ("etype", "empty"):  # codes decode to the raw values
            assert [None if pd.isna(v) else v for v in enc[c]] == raw[c].tolist()
        for c in ("height", "pop", "rank"):
            pd.testing.assert_series_equal(enc[c], raw[c])

    @pytest.mark.parametrize(
        "pred",
        [
            Cmp("etype", "<", "person"),
            Cmp("etype", ">=", "city"),
            Cmp("etype", "<=", "zzz"),  # above every dictionary entry
            Cmp("etype", ">", "aardvark"),  # below every dictionary entry
            Cmp("etype", "=", "song"),
            Cmp("etype", "=", "planet"),  # absent from the dictionary
            In("etype", ["planet", "moon"]),  # absent from the dictionary
            In("etype", ["song", "planet"]),
            NotNull("etype"),  # None strings
            Cmp("pop", ">", 20.0),  # NaN floats
            Cmp("height", "=", 1.7),
            In("pop", [10.0, 40.0, 99.0]),
            NotNull("height"),
            Cmp("rank", ">=", 3),  # int column
            In("rank", [2, 7]),
            NotNull("rank"),
            NotNull("empty"),  # all-NULL column
            Cmp("empty", "=", "song"),
            Cmp("empty", "<", "song"),
            In("empty", ["song"]),
            Conjunction([In("etype", ["song", "person"]), NotNull("height")]),
            Conjunction([Cmp("etype", ">", "b"), Cmp("pop", "<", 45.0)]),
        ],
    )
    def test_matches_duckdb_on_raw_frame(self, raw, pred):
        got = pred.mask(dictionary_encode(raw))
        assert got.dtype == bool and got.shape == (len(raw),)
        assert np.flatnonzero(got).tolist() == _duckdb_rids(raw, pred)

    @pytest.mark.parametrize(
        "pred",
        [
            Cmp("etype", "<", "person"),
            In("etype", ["song"]),
            NotNull("etype"),
            Cmp("pop", ">", 20.0),
            NotNull("height"),
            In("rank", [2]),
            Conjunction([Cmp("etype", "=", "song"), NotNull("pop")]),
        ],
    )
    def test_empty_frame(self, raw, pred):
        got = pred.mask(dictionary_encode(raw).iloc[:0])
        assert got.dtype == bool and got.shape == (0,)
