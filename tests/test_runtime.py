"""Tests for the query runtime: sources, aggregation, finalization."""

import numpy as np
import pytest

from repro.engines.runtime import QueryRuntime
from repro.errors import PlanError
from repro.expressions import col
from repro.hardware import GTX970, VirtualCoprocessor
from repro.plan import PlanBuilder, extract_pipelines
from repro.plan.logical import AggSpec, PlanSchema, SortKey
from repro.plan.physical import AggregateSink, PhysicalQuery
from repro.storage import DType


@pytest.fixture()
def runtime(tiny_db):
    return QueryRuntime(VirtualCoprocessor(GTX970), tiny_db)


def _pipeline(tiny_db, plan):
    return extract_pipelines(plan, tiny_db).pipelines[-1]


class TestLoadSource:
    def test_loads_required_columns_only(self, tiny_db, runtime):
        plan = PlanBuilder.scan("lineorder").project(["lo_revenue"]).build()
        pipeline = _pipeline(tiny_db, plan)
        scope = runtime.load_source(pipeline)
        assert list(scope) == ["lo_revenue"]

    def test_transfers_each_column_once(self, tiny_db, runtime):
        plan = PlanBuilder.scan("lineorder").project(["lo_revenue"]).build()
        pipeline = _pipeline(tiny_db, plan)
        runtime.load_source(pipeline)
        log = runtime.device.log
        first = log.transfer_bytes("h2d")
        runtime.load_source(pipeline)
        assert log.transfer_bytes("h2d") == first
        assert len(log.transfers) == 1

    def test_renamed_source_columns(self, tiny_db, runtime):
        plan = (
            PlanBuilder.scan("date", rename={"d_year": "year"})
            .project(["year"])
            .build()
        )
        pipeline = _pipeline(tiny_db, plan)
        scope = runtime.load_source(pipeline)
        assert "year" in scope
        assert np.array_equal(scope["year"], tiny_db["date"]["d_year"].values)

    def test_missing_virtual_table(self, tiny_db, runtime):
        plan = PlanBuilder.scan("lineorder").project(["lo_revenue"]).build()
        pipeline = _pipeline(tiny_db, plan)
        pipeline.source_is_virtual = True
        pipeline.source = "ghost"
        with pytest.raises(PlanError, match="before it was produced"):
            runtime.load_source(pipeline)

    def test_missing_hash_table(self, runtime):
        with pytest.raises(PlanError, match="never built"):
            runtime.hash_table("ht99")


class TestAggregateRows:
    def _sink(self, group=True, ops=("sum",)):
        keys = [("k", col("k"))] if group else []
        aggregates = [
            AggSpec(op, col("v") if op != "count" else None, f"{op}_v") for op in ops
        ]
        dtypes = {}
        if group:
            dtypes["k"] = DType.INT32
        for op in ops:
            dtypes[f"{op}_v"] = (
                DType.FLOAT64 if op == "avg" else DType.INT64
            )
        return AggregateSink(keys, aggregates), PlanSchema(dtypes, {})

    def test_grouped_all_ops(self, runtime):
        sink, schema = self._sink(ops=("sum", "count", "min", "max", "avg"))
        scope = {
            "k": np.array([1, 2, 1, 2, 1], dtype=np.int32),
            "v": np.array([10, 20, 30, 40, 50], dtype=np.int32),
        }
        mask = np.ones(5, dtype=bool)
        result = runtime.aggregate_rows(sink, scope, mask, schema)
        assert result.num_groups == 2
        assert result.outputs["sum_v"].tolist() == [90, 60]
        assert result.outputs["count_v"].tolist() == [3, 2]
        assert result.outputs["min_v"].tolist() == [10, 20]
        assert result.outputs["max_v"].tolist() == [50, 40]
        assert result.outputs["avg_v"].tolist() == [30.0, 30.0]

    def test_mask_filters_rows(self, runtime):
        sink, schema = self._sink(ops=("sum",))
        scope = {
            "k": np.array([1, 1, 1], dtype=np.int32),
            "v": np.array([5, 7, 100], dtype=np.int32),
        }
        mask = np.array([True, True, False])
        result = runtime.aggregate_rows(sink, scope, mask, schema)
        assert result.outputs["sum_v"].tolist() == [12]
        assert result.inputs == 2

    def test_single_tuple_aggregation(self, runtime):
        sink, schema = self._sink(group=False, ops=("sum", "count", "avg"))
        scope = {"v": np.array([2.0, 4.0])}
        result = runtime.aggregate_rows(sink, scope, np.ones(2, dtype=bool), schema)
        assert result.codes is None
        assert result.outputs["sum_v"].tolist() == [6]
        assert result.outputs["count_v"].tolist() == [2]
        assert result.outputs["avg_v"].tolist() == [3.0]

    def test_empty_selection(self, runtime):
        sink, schema = self._sink(group=False, ops=("sum", "count"))
        scope = {"v": np.array([1.0, 2.0])}
        result = runtime.aggregate_rows(sink, scope, np.zeros(2, dtype=bool), schema)
        assert result.outputs["sum_v"].tolist() == [0]
        assert result.outputs["count_v"].tolist() == [0]

    def test_entry_bytes_cover_keys_and_accumulators(self, runtime):
        sink, schema = self._sink(ops=("sum", "avg"))
        scope = {
            "k": np.array([1], dtype=np.int32),
            "v": np.array([1], dtype=np.int32),
        }
        result = runtime.aggregate_rows(sink, scope, np.ones(1, dtype=bool), schema)
        # key (8 for INT64 output? key dtype int32 -> 4) + sum 8 + avg 12
        assert result.entry_bytes >= 4 + 8 + 12


class TestFinalize:
    def _query(self, tiny_db, order=None, limit=None):
        builder = PlanBuilder.scan("customer").project(["c_nation", "c_custkey"])
        if order:
            builder = builder.order_by(order)
        if limit is not None:
            builder = builder.limit(limit)
        return extract_pipelines(builder.build(), tiny_db)

    def test_sort_descending_numeric(self, tiny_db, runtime):
        query = self._query(tiny_db, order=[("c_custkey", False)])
        outputs = {
            "c_nation": tiny_db["customer"]["c_nation"].values,
            "c_custkey": tiny_db["customer"]["c_custkey"].values,
        }
        table = runtime.finalize(query, outputs)
        keys = [row[1] for row in table.to_rows()]
        assert keys == sorted(keys, reverse=True)

    def test_sort_string_column_lexicographic(self, tiny_db, runtime):
        query = self._query(tiny_db, order=["c_nation"])
        outputs = {
            "c_nation": tiny_db["customer"]["c_nation"].values,
            "c_custkey": tiny_db["customer"]["c_custkey"].values,
        }
        table = runtime.finalize(query, outputs)
        nations = [row[0] for row in table.to_rows()]
        assert nations == sorted(nations)

    def test_limit(self, tiny_db, runtime):
        query = self._query(tiny_db, limit=3)
        outputs = {
            "c_nation": tiny_db["customer"]["c_nation"].values,
            "c_custkey": tiny_db["customer"]["c_custkey"].values,
        }
        assert runtime.finalize(query, outputs).num_rows == 3

    def test_result_transferred_per_column(self, tiny_db, runtime):
        """The result columns ship as one packed transfer: one link
        latency per result, every column's bytes in it."""
        query = self._query(tiny_db)
        outputs = {
            "c_nation": tiny_db["customer"]["c_nation"].values,
            "c_custkey": tiny_db["customer"]["c_custkey"].values,
        }
        table = runtime.finalize(query, outputs)
        [d2h] = [r for r in runtime.device.log.transfers if r.direction == "d2h"]
        assert d2h.label == "result"
        assert d2h.nbytes == sum(c.nbytes for c in table.columns.values())
        assert d2h.nbytes == runtime.output_bytes

    def test_string_columns_decoded_with_dictionary(self, tiny_db, runtime):
        query = self._query(tiny_db)
        outputs = {
            "c_nation": tiny_db["customer"]["c_nation"].values,
            "c_custkey": tiny_db["customer"]["c_custkey"].values,
        }
        table = runtime.finalize(query, outputs)
        assert all(isinstance(row[0], str) for row in table.to_rows())
