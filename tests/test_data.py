"""Unit tests for the data model (schema, table, domain, io)."""

import numpy as np
import pytest

from repro.data import Domain, FieldKind, FieldSpec, Schema, TraceTable, read_csv, write_csv


@pytest.fixture
def flow_schema():
    return Schema(
        fields=(
            FieldSpec("srcip", FieldKind.IP),
            FieldSpec("dstport", FieldKind.PORT),
            FieldSpec("proto", FieldKind.CATEGORICAL, categories=("TCP", "UDP")),
            FieldSpec("ts", FieldKind.TIMESTAMP),
            FieldSpec("pkt", FieldKind.NUMERIC),
            FieldSpec("label", FieldKind.CATEGORICAL, categories=("a", "b"), is_label=True),
        ),
        kind="flow",
    )


@pytest.fixture
def small_table(flow_schema):
    return TraceTable(
        flow_schema,
        {
            "srcip": np.array([1, 2, 1, 3]),
            "dstport": np.array([80, 443, 80, 53]),
            "proto": np.array(["TCP", "TCP", "TCP", "UDP"], dtype=object),
            "ts": np.array([0.0, 1.0, 2.0, 3.0]),
            "pkt": np.array([5, 1, 9, 2]),
            "label": np.array(["a", "b", "a", "a"], dtype=object),
        },
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema(fields=(FieldSpec("x", FieldKind.NUMERIC), FieldSpec("x", FieldKind.NUMERIC)))

    def test_categorical_requires_categories(self):
        with pytest.raises(ValueError):
            FieldSpec("c", FieldKind.CATEGORICAL)

    def test_non_categorical_rejects_categories(self):
        with pytest.raises(ValueError):
            FieldSpec("n", FieldKind.NUMERIC, categories=(1, 2))

    def test_label_field(self, flow_schema):
        assert flow_schema.label_field.name == "label"

    def test_contains_getitem(self, flow_schema):
        assert "srcip" in flow_schema
        assert flow_schema["pkt"].kind is FieldKind.NUMERIC
        with pytest.raises(KeyError):
            flow_schema["nope"]

    def test_with_without_field(self, flow_schema):
        extended = flow_schema.with_field(FieldSpec("extra", FieldKind.NUMERIC))
        assert "extra" in extended
        shrunk = extended.without_field("extra")
        assert "extra" not in shrunk

    def test_effective_flow_key_subset(self, flow_schema):
        assert flow_schema.effective_flow_key() == ("srcip", "dstport", "proto")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Schema(fields=(FieldSpec("x", FieldKind.NUMERIC),), kind="stream")


class TestTraceTable:
    def test_length_and_columns(self, small_table):
        assert len(small_table) == 4
        assert np.array_equal(small_table["dstport"], [80, 443, 80, 53])

    def test_ragged_columns_rejected(self, flow_schema):
        with pytest.raises(ValueError):
            TraceTable(flow_schema, {n: np.arange(3 + i) for i, n in enumerate(flow_schema.names)})

    def test_missing_column_rejected(self, flow_schema, small_table):
        cols = small_table.columns()
        del cols["pkt"]
        with pytest.raises(ValueError):
            TraceTable(flow_schema, cols)

    def test_filter_take(self, small_table):
        subset = small_table.filter(np.array([True, False, True, False]))
        assert len(subset) == 2
        assert np.array_equal(subset["srcip"], [1, 1])

    def test_with_column_replace(self, small_table):
        replaced = small_table.with_column("pkt", np.array([1, 1, 1, 1]))
        assert replaced["pkt"].sum() == 4
        assert small_table["pkt"].sum() == 17  # original untouched

    def test_with_new_column_requires_spec(self, small_table):
        with pytest.raises(ValueError):
            small_table.with_column("new", np.zeros(4))
        added = small_table.with_column(
            "new", np.zeros(4), FieldSpec("new", FieldKind.NUMERIC)
        )
        assert "new" in added.schema

    def test_sort_by(self, small_table):
        ordered = small_table.sort_by("pkt")
        assert list(ordered["pkt"]) == [1, 2, 5, 9]

    def test_concat(self, small_table):
        doubled = small_table.concat(small_table)
        assert len(doubled) == 8

    def test_group_ids_mixed_types(self, small_table):
        ids = small_table.group_ids(["srcip", "proto"])
        assert ids[0] == ids[2]  # same (1, TCP)
        assert ids[0] != ids[1]

    def test_group_ids_count(self, small_table):
        ids = small_table.group_ids(["srcip"])
        assert len(np.unique(ids)) == 3

    def test_feature_matrix_encodes_categoricals(self, small_table):
        X, names = small_table.feature_matrix(exclude=("label",))
        assert X.shape == (4, 5)
        assert "label" not in names
        proto_col = X[:, names.index("proto")]
        assert set(proto_col) <= {0.0, 1.0}

    def test_head_shuffle(self, small_table):
        assert len(small_table.head(2)) == 2
        shuffled = small_table.shuffle(np.random.default_rng(0))
        assert sorted(shuffled["pkt"]) == sorted(small_table["pkt"])


def _group_ids_fold(table, names):
    """The original ``group_ids``: one ``np.unique`` per column, then another
    per pairwise fold.  Kept as the oracle for the numbering."""
    if table.n_records == 0:
        return np.zeros(0, dtype=np.int64)
    ids = np.zeros(table.n_records, dtype=np.int64)
    for name in names:
        _, codes = np.unique(table.column(name), return_inverse=True)
        codes = codes.astype(np.int64)
        _, ids = np.unique(ids * (codes.max() + 1) + codes, return_inverse=True)
        ids = ids.astype(np.int64)
    return ids


def _key_table(columns):
    kinds = {"O": FieldKind.CATEGORICAL, "f": FieldKind.NUMERIC}
    fields = tuple(
        FieldSpec(
            name,
            kinds.get(col.dtype.kind, FieldKind.PORT),
            categories=tuple(dict.fromkeys(col)) if col.dtype == object else None,
        )
        for name, col in columns.items()
    )
    return TraceTable(Schema(fields=fields, kind="flow"), columns)


@pytest.fixture(scope="module")
def key_table():
    rng = np.random.default_rng(11)
    n = 3000
    floats = rng.choice([0.5, -1.25, 2.0, 0.0, -0.0, np.nan, 7.5], size=n)
    return _key_table(
        {
            "i": rng.integers(0, 40, n),
            "j": rng.integers(-(2**40), 2**40, n),
            "f": floats,
            "s": rng.choice(["tcp", "udp", "icmp", "gre", "Tcp", ""], size=n).astype(object),
            "t": rng.choice(["a", "b"], size=n).astype(object),
        }
    )


class TestGroupIdsParity:
    """``group_ids`` numbers rows exactly like the original pairwise fold."""

    @pytest.mark.parametrize(
        "names",
        [("i",), ("f",), ("s",), ("i", "f", "s"), ("s", "i"), ("f", "s", "j", "t"),
         ("t", "s"), ("j", "i", "f", "t", "s")],
    )
    def test_matches_fold(self, key_table, names):
        ids = key_table.group_ids(names)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, _group_ids_fold(key_table, names))

    def test_nan_keys_form_one_group(self, key_table):
        ids = key_table.group_ids(["f"])
        nan_rows = np.isnan(key_table.column("f"))
        assert nan_rows.any() and len(np.unique(ids[nan_rows])) == 1

    def test_flow_key_of_a_dataset(self):
        from repro.datasets import load_dataset

        table = load_dataset("ton", n_records=4000, seed=2)
        key = table.schema.effective_flow_key()
        assert np.array_equal(table.group_ids(key), _group_ids_fold(table, key))

    def test_empty_table(self, key_table):
        ids = key_table.head(0).group_ids(["i", "s"])
        assert ids.dtype == np.int64 and ids.shape == (0,)

    def test_cardinality_product_past_2_62(self):
        rng = np.random.default_rng(5)
        n = 2000
        columns = {f"c{k}": rng.integers(0, 10**9, n) for k in range(6)}
        columns["obj"] = rng.choice(["x", "y", "z"], size=n).astype(object)
        table = _key_table(columns)
        cards = [len(np.unique(col)) for col in columns.values()]
        assert int(np.prod(cards, dtype=object)) > 2**62
        names = list(columns)
        assert np.array_equal(table.group_ids(names), _group_ids_fold(table, names))

    def test_mixed_type_object_column_raises(self):
        table = _key_table(
            {
                "i": np.array([1, 2, 3, 4]),
                "m": np.array(["a", 1, "b", 2], dtype=object),
            }
        )
        with pytest.raises(TypeError):
            _group_ids_fold(table, ["i", "m"])
        with pytest.raises(TypeError):
            table.group_ids(["i", "m"])


class TestDomain:
    def test_basic(self):
        d = Domain({"a": 3, "b": 4})
        assert d.size("a") == 3
        assert d.shape(("b", "a")) == (4, 3)
        assert d.cells(("a", "b")) == 12
        assert d.total_size() == 7

    def test_project_and_eq(self):
        d = Domain({"a": 3, "b": 4, "c": 2})
        assert d.project(["a", "c"]) == Domain({"a": 3, "c": 2})

    def test_rejects_empty_size(self):
        with pytest.raises(ValueError):
            Domain({"a": 0})


class TestCsvIo:
    def test_roundtrip(self, small_table, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(small_table, path)
        loaded = read_csv(path, small_table.schema)
        assert len(loaded) == len(small_table)
        assert np.array_equal(loaded["dstport"], small_table["dstport"])
        assert list(loaded["proto"]) == list(small_table["proto"])
        assert np.allclose(loaded["ts"], small_table["ts"])

    def test_header_mismatch_rejected(self, small_table, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(small_table, path)
        other_schema = small_table.schema.without_field("pkt")
        with pytest.raises(ValueError):
            read_csv(path, other_schema)
