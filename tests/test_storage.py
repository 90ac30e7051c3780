"""Unit tests for columns, tables, dictionaries, and the catalog."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.storage import (
    Column,
    Database,
    Dictionary,
    DType,
    Table,
    common_numeric_type,
    dtype_from_name,
    rows_approx_equal,
)


class TestDTypes:
    def test_itemsizes(self):
        assert DType.INT32.itemsize == 4
        assert DType.INT64.itemsize == 8
        assert DType.FLOAT32.itemsize == 4
        assert DType.DATE.itemsize == 4
        assert DType.STRING.itemsize == 4  # dictionary codes

    def test_parse_names(self):
        assert dtype_from_name("int32") is DType.INT32
        assert dtype_from_name("STRING") is DType.STRING
        with pytest.raises(SchemaError):
            dtype_from_name("varchar")

    def test_numeric_promotion(self):
        assert common_numeric_type(DType.INT32, DType.INT32) is DType.INT32
        assert common_numeric_type(DType.INT32, DType.INT64) is DType.INT64
        assert common_numeric_type(DType.INT32, DType.FLOAT32) is DType.FLOAT32
        assert common_numeric_type(DType.INT64, DType.FLOAT32) is DType.FLOAT64
        assert common_numeric_type(DType.FLOAT32, DType.FLOAT64) is DType.FLOAT64

    def test_string_promotion_rejected(self):
        with pytest.raises(SchemaError):
            common_numeric_type(DType.STRING, DType.INT32)


class TestDictionary:
    def test_order_preserving_codes(self):
        dictionary = Dictionary(["EUROPE", "ASIA", "ASIA", "AMERICA"])
        assert dictionary.values == ("AMERICA", "ASIA", "EUROPE")
        assert dictionary.code("AMERICA") < dictionary.code("ASIA") < dictionary.code("EUROPE")

    def test_roundtrip(self):
        dictionary = Dictionary(["b", "a", "c"])
        codes = dictionary.encode(["a", "b", "c", "a"])
        assert dictionary.decode(codes) == ["a", "b", "c", "a"]

    def test_missing_value(self):
        dictionary = Dictionary(["x"])
        assert dictionary.code_or_missing("y") == -1
        with pytest.raises(SchemaError):
            dictionary.code("y")

    def test_bounds(self):
        dictionary = Dictionary(["b", "d", "f"])
        assert dictionary.lower_bound("a") == 0
        assert dictionary.lower_bound("b") == 0
        assert dictionary.lower_bound("c") == 1
        assert dictionary.lower_bound("g") == 3
        assert dictionary.upper_bound("b") == 1
        assert dictionary.upper_bound("a") == 0
        assert dictionary.upper_bound("f") == 3

    @given(st.lists(st.text(max_size=8), min_size=1, max_size=40), st.text(max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bounds_match_sorted_semantics(self, values, probe):
        dictionary = Dictionary(values)
        uniques = dictionary.values
        lower = dictionary.lower_bound(probe)
        upper = dictionary.upper_bound(probe)
        assert all(value < probe for value in uniques[:lower])
        assert all(value >= probe for value in uniques[lower:])
        assert all(value <= probe for value in uniques[:upper])
        assert all(value > probe for value in uniques[upper:])

    @given(st.lists(st.text(max_size=6), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_roundtrip(self, values):
        dictionary = Dictionary(values)
        assert dictionary.decode(dictionary.encode(values)) == list(values)


class TestColumn:
    def test_string_column_requires_dictionary(self):
        with pytest.raises(SchemaError):
            Column(DType.STRING, np.zeros(3, dtype=np.int32))

    def test_numeric_column_rejects_dictionary(self):
        dictionary = Dictionary(["x"])
        with pytest.raises(SchemaError):
            Column(DType.INT32, np.zeros(3, dtype=np.int32), dictionary)

    def test_values_are_immutable(self):
        column = Column.int32([1, 2, 3])
        with pytest.raises(ValueError):
            column.values[0] = 9

    def test_take_preserves_dictionary(self):
        column = Column.from_strings(["a", "b", "a"])
        taken = column.take(np.array([2, 0]))
        assert taken.decoded() == ["a", "a"]
        assert taken.dictionary is column.dictionary

    def test_nbytes(self):
        assert Column.int32([1, 2, 3]).nbytes == 12
        assert Column.float64([1.0]).nbytes == 8

    def test_two_dimensional_rejected(self):
        with pytest.raises(SchemaError):
            Column(DType.INT32, np.zeros((2, 2), dtype=np.int32))


class TestTable:
    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="lengths differ"):
            Table({"a": Column.int32([1, 2]), "b": Column.int32([1])})

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            Table({})

    def test_select_and_order(self):
        table = Table({"a": Column.int32([1]), "b": Column.int32([2]), "c": Column.int32([3])})
        selected = table.select(["c", "a"])
        assert selected.column_names == ["c", "a"]

    def test_unknown_column(self):
        table = Table({"a": Column.int32([1])})
        with pytest.raises(SchemaError, match="no column"):
            table.column("z")

    def test_take_rows(self):
        table = Table(
            {"k": Column.int32([10, 20, 30]), "s": Column.from_strings(["x", "y", "z"])}
        )
        taken = table.take(np.array([2, 0]))
        assert taken.to_rows() == [(30, "z"), (10, "x")]

    def test_sorted_rows_are_canonical(self):
        table = Table({"v": Column.int32([3, 1, 2])})
        assert table.sorted_rows() == [(1,), (2,), (3,)]

    def test_rename(self):
        table = Table({"a": Column.int32([1])}).rename({"a": "b"})
        assert table.column_names == ["b"]

    def test_with_column_length_checked(self):
        table = Table({"a": Column.int32([1, 2])})
        with pytest.raises(SchemaError):
            table.with_column("b", Column.int32([1]))


class TestRowsApproxEqual:
    def test_exact_strings(self):
        assert rows_approx_equal([("a", 1)], [("a", 1)])
        assert not rows_approx_equal([("a", 1)], [("b", 1)])

    def test_float_tolerance(self):
        assert rows_approx_equal([(1.0,)], [(1.0 + 1e-9,)])
        assert not rows_approx_equal([(1.0,)], [(2.0,)])

    def test_length_mismatch(self):
        assert not rows_approx_equal([(1,)], [(1,), (2,)])


class TestDatabase:
    def test_add_and_lookup(self):
        database = Database()
        database.add("t", Table({"a": Column.int32([1])}))
        assert "t" in database
        assert database["t"].num_rows == 1

    def test_duplicate_rejected(self):
        database = Database({"t": Table({"a": Column.int32([1])})})
        with pytest.raises(SchemaError):
            database.add("t", Table({"a": Column.int32([2])}))

    def test_missing_table(self):
        with pytest.raises(SchemaError, match="no table"):
            Database().table("ghost")

    def test_drop(self):
        database = Database({"t": Table({"a": Column.int32([1])})})
        database.drop("t")
        assert "t" not in database
        with pytest.raises(SchemaError):
            database.drop("t")

    def test_concatenated_from_many_threads(self):
        """The fleets of several serving workers share one partitioned
        catalog: its memo of pieces back to back takes concurrent
        lookups, inserts and evictions (eight keys, room for four)."""
        tables = {
            f"p{i}": Table({
                "a": Column.int32(np.arange(i * 50, (i + 1) * 50)),
                "b": Column.int32(np.arange(i * 50, (i + 1) * 50) * 7),
            })
            for i in range(6)
        }
        database = Database(tables)
        expected = {
            (names, column): np.concatenate([tables[name].column(column).values for name in names])
            for names in (tuple(f"p{i}" for i in range(first, first + 3)) for first in range(4))
            for column in "ab"
        }
        keys, errors = list(expected), []

        def work(seed):
            draw = random.Random(seed)
            try:
                for _ in range(400):
                    key = draw.choice(keys)
                    assert np.array_equal(database.concatenated(*key), expected[key])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
