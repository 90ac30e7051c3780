"""Tests for the vector-at-a-time engine (Section 3's negative result)."""

import pytest

from repro.engines import CompoundEngine, VectorAtATimeEngine
from repro.expressions import col, lit
from repro.hardware import GTX970, VirtualCoprocessor
from repro.plan import PlanBuilder
from repro.storage.table import rows_approx_equal
from repro.workloads import group_by_query, projection_query, ssb_plan


def _run(engine, plan, database):
    return engine.execute(plan, database, VirtualCoprocessor(GTX970))


class TestCorrectness:
    def test_projection_matches_compound(self, ssb_db):
        plan = projection_query(10)
        vector = _run(VectorAtATimeEngine(512), plan, ssb_db)
        compound = _run(CompoundEngine("lrgp_simd"), plan, ssb_db)
        assert rows_approx_equal(
            vector.table.sorted_rows(), compound.table.sorted_rows()
        )

    def test_grouped_aggregation_merges_across_vectors(self, ssb_db):
        plan = group_by_query(32)
        vector = _run(VectorAtATimeEngine(700), plan, ssb_db)
        compound = _run(CompoundEngine("lrgp_simd"), plan, ssb_db)
        assert rows_approx_equal(
            vector.table.sorted_rows(), compound.table.sorted_rows(), rel_tol=1e-6
        )

    def test_star_join_with_build_fallback(self, ssb_db):
        plan = ssb_plan("q3.1", ssb_db)
        vector = _run(VectorAtATimeEngine(2048), plan, ssb_db)
        compound = _run(CompoundEngine("lrgp_simd"), plan, ssb_db)
        assert rows_approx_equal(
            vector.table.sorted_rows(), compound.table.sorted_rows(),
            rel_tol=1e-3, abs_tol=0.5,
        )

    def test_single_tuple_aggregation(self, ssb_db):
        plan = (
            PlanBuilder.scan("lineorder")
            .filter(col("lo_quantity") < lit(20))
            .aggregate(group_by=[], aggregates=[("sum", col("lo_revenue"), "r"),
                                                 ("min", col("lo_revenue"), "lo"),
                                                 ("max", col("lo_revenue"), "hi")])
            .build()
        )
        vector = _run(VectorAtATimeEngine(333), plan, ssb_db)
        compound = _run(CompoundEngine("lrgp_simd"), plan, ssb_db)
        assert rows_approx_equal(
            vector.table.sorted_rows(), compound.table.sorted_rows()
        )

    def test_avg_merges_across_vectors(self, ssb_db):
        """AVG re-reduces from hidden per-vector SUM/COUNT partials (it
        used to raise PlanError)."""
        for group_by in ([], ["lo_discount"]):
            plan = (
                PlanBuilder.scan("lineorder")
                .filter(col("lo_quantity") < lit(20))
                .aggregate(
                    group_by=group_by,
                    aggregates=[("avg", col("lo_revenue"), "a")],
                )
                .build()
            )
            vector = _run(VectorAtATimeEngine(512), plan, ssb_db)
            compound = _run(CompoundEngine("lrgp_simd"), plan, ssb_db)
            assert len(vector.profile.kernels) > 1
            assert rows_approx_equal(
                vector.table.sorted_rows(), compound.table.sorted_rows(), rel_tol=1e-9
            )


class TestSection3Argument:
    def test_one_launch_per_vector(self, ssb_db):
        plan = projection_query(10)
        result = _run(VectorAtATimeEngine(1024), plan, ssb_db)
        rows = ssb_db["lineorder"].num_rows
        assert len(result.profile.kernels) == -(-rows // 1024)

    def test_cache_sized_vectors_are_much_slower(self, ssb_db):
        plan = projection_query(10)
        vector = _run(VectorAtATimeEngine(1024), plan, ssb_db)
        compound = _run(CompoundEngine("lrgp_simd"), plan, ssb_db)
        assert vector.kernel_ms > 10 * compound.kernel_ms

    def test_penalty_shrinks_with_vector_size(self, ssb_db):
        plan = projection_query(10)
        small = _run(VectorAtATimeEngine(1024), plan, ssb_db)
        large = _run(VectorAtATimeEngine(32768), plan, ssb_db)
        assert large.kernel_ms < small.kernel_ms

    def test_small_vectors_run_undersubscribed(self, ssb_db):
        """Vectors below the resident thread count lose occupancy."""
        plan = projection_query(10)
        result = _run(VectorAtATimeEngine(256), plan, ssb_db)
        per_launch = result.kernel_ms / len(result.profile.kernels)
        assert per_launch > GTX970.kernel_launch_overhead * 1e3

    def test_invalid_vector_size(self):
        with pytest.raises(ValueError):
            VectorAtATimeEngine(0)
