"""Tests for kernel code generation and the kernel context."""

import ast

import numpy as np
import pytest

from repro.engines.runtime import HashTableEntry, QueryRuntime
from repro.errors import CompilationError
from repro.expressions import col, lit
from repro.hardware import GTX970, MemoryLevel, VirtualCoprocessor
from repro.kernels import (
    KernelContext,
    generate_compound_kernel,
    generate_count_kernel,
    generate_write_kernel,
)
from repro.kernels.codegen import _compound_lines, _multipass_lines
from repro.plan import PlanBuilder, extract_pipelines
from repro.plan.logical import PlanSchema
from repro.plan.physical import MaterializeSink, Pipeline, ProbeStage
from repro.primitives import JoinHashTable
from repro.storage import DType
from repro.workloads import (
    SSB_QUERIES,
    TPCH_PLANS,
    generate_ssb,
    generate_tpch,
    ssb_plan,
    tpch_plan,
)


@pytest.fixture()
def star_query(tiny_db):
    plan = (
        PlanBuilder.scan("lineorder")
        .filter(col("lo_discount").between(1, 3))
        .join(
            PlanBuilder.scan("customer").filter(col("c_region") == lit("ASIA")),
            build_keys=["c_custkey"],
            probe_keys=["lo_custkey"],
            payload=["c_nation"],
        )
        .map("revenue", col("lo_extendedprice") * col("lo_discount"))
        .project(["c_nation", "revenue"])
        .build()
    )
    return extract_pipelines(plan, tiny_db)


class TestGeneratedSource:
    def test_compound_kernel_structure(self, star_query):
        kernel = generate_compound_kernel(star_query.pipelines[-1])
        source = kernel.source
        assert "def compound_" in source
        assert "ctx.positions(mask)" in source
        index, probe = next(
            (index, stage)
            for index, stage in enumerate(star_query.pipelines[-1].stages)
            if isinstance(stage, ProbeStage)
        )
        assert f"mask = ctx.probe_stage(mask, {index}, {probe.table_id!r}, " in source
        assert "# select" in source
        assert "# join probe" in source
        # The aligned write comes after the prefix sum, as in Figure 12.
        assert source.index("ctx.positions") < source.index("ctx.store")

    def test_count_kernel_ends_with_flags(self, star_query):
        kernel = generate_count_kernel(star_query.pipelines[-1])
        assert "ctx.finish_count(mask)" in kernel.source
        assert "ctx.positions" not in kernel.source

    def test_write_kernel_uses_installed_positions(self, star_query):
        kernel = generate_write_kernel(star_query.pipelines[-1])
        assert "ctx.initial_mask()" in kernel.source
        assert "ctx.installed_positions()" in kernel.source

    def test_build_pipeline_compound_inserts_inline(self, star_query):
        build_pipeline = star_query.pipelines[0]
        kernel = generate_compound_kernel(build_pipeline)
        assert "ctx.sink_build" in kernel.source

    def test_source_is_valid_python(self, star_query):
        for pipeline in star_query.pipelines:
            kernel = generate_compound_kernel(pipeline)
            compile(kernel.source, "<test>", "exec")


class TestKernelContext:
    def _context(self, tiny_db, n=100, mode="atomic", **kwargs):
        device = VirtualCoprocessor(GTX970)
        runtime = QueryRuntime(device, tiny_db)
        rng = np.random.default_rng(5)
        scope = {
            "a": rng.integers(0, 100, n).astype(np.int32),
            "b": rng.integers(0, 100, n).astype(np.int32),
        }
        from repro.plan.logical import PlanSchema
        from repro.storage import DType

        schema = PlanSchema({"a": DType.INT32, "b": DType.INT32}, {})
        return KernelContext(runtime, scope, schema, mode=mode, **kwargs), scope

    def test_touch_charges_once_per_column(self, tiny_db):
        ctx, _ = self._context(tiny_db, n=100)
        ctx.touch(["a"])
        ctx.touch(["a", "b"])
        assert ctx.meter.reads[MemoryLevel.GLOBAL] == 2 * 100 * 4

    def test_touch_after_filter_charges_survivors_only(self, tiny_db):
        ctx, scope = self._context(tiny_db, n=100)
        mask = ctx.apply_filter(ctx.full_mask(), scope["a"] < 50, cost=1)
        survivors = int(mask.sum())
        ctx.touch(["b"])
        assert ctx.meter.reads[MemoryLevel.GLOBAL] == 100 * 4 * 0 + survivors * 4

    def test_mark_loaded_suppresses_charges(self, tiny_db):
        ctx, _ = self._context(tiny_db)
        ctx.mark_loaded(["a"])
        ctx.touch(["a"])
        assert ctx.meter.reads[MemoryLevel.GLOBAL] == 0

    def test_positions_mode_dispatch(self, tiny_db):
        for mode in ("atomic", "lrgp_simd", "lrgp_we"):
            ctx, scope = self._context(tiny_db, mode=mode)
            mask = scope["a"] < 50
            result = ctx.positions(mask)
            assert sorted(result.positions[mask].tolist()) == list(range(result.total))

    def test_positions_forbidden_in_multipass(self, tiny_db):
        ctx, scope = self._context(tiny_db, mode="multipass")
        with pytest.raises(CompilationError):
            ctx.positions(scope["a"] < 50)

    def test_write_kernel_protocol(self, tiny_db):
        ctx, _ = self._context(tiny_db, mode="multipass")
        with pytest.raises(CompilationError):
            ctx.initial_mask()
        with pytest.raises(CompilationError):
            ctx.installed_positions()

    def test_store_scatters_to_positions(self, tiny_db):
        ctx, scope = self._context(tiny_db)
        mask = scope["a"] < 50
        positions = ctx.positions(mask)
        ctx.store("a", scope["a"], mask, positions)
        dense = ctx.outputs["a"]
        assert sorted(dense.tolist()) == sorted(scope["a"][mask].tolist())

    def test_invalid_mode_rejected(self, tiny_db):
        with pytest.raises(CompilationError):
            self._context(tiny_db, mode="quantum")


class TestCountWriteConsistency:
    def test_count_and_write_agree_with_compound(self, tiny_db, star_query):
        """The three-phase model must select exactly the same rows as
        the compound kernel."""
        from repro.engines import CompoundEngine, MultiPassEngine
        from repro.storage.table import rows_approx_equal

        compound = CompoundEngine("atomic").execute(
            star_query, tiny_db, VirtualCoprocessor(GTX970)
        )
        multipass = MultiPassEngine().execute(
            star_query, tiny_db, VirtualCoprocessor(GTX970)
        )
        assert rows_approx_equal(
            compound.table.sorted_rows(), multipass.table.sorted_rows()
        )


# ----------------------------------------------------------------------
# the source shape: one statement per primitive
# ----------------------------------------------------------------------
#: Kernel kind -> the emitter of its source lines (no compile, no cache).
EMITTERS = {"compound": _compound_lines, "multipass": _multipass_lines}


@pytest.fixture(scope="module")
def every_pipeline(ssb_db, tpch_db):
    """Every pipeline of every SSB query and TPC-H plan, at two scale
    factors each."""
    databases = [
        ("ssb", ssb_db),
        ("ssb", generate_ssb(scale_factor=0.001, seed=3)),
        ("tpch", tpch_db),
        ("tpch", generate_tpch(scale_factor=0.001, seed=5)),
    ]
    pipelines = []
    for family, database in databases:
        if family == "ssb":
            plans = [ssb_plan(name, database) for name in sorted(SSB_QUERIES)]
        else:
            plans = [tpch_plan(name, database) for name in sorted(TPCH_PLANS)]
        for plan in plans:
            pipelines += extract_pipelines(plan, database).pipelines
    return pipelines


def _statements(lines: list[str]) -> int:
    """Statements in a kernel body (comments are none)."""
    tree = ast.parse("def kernel(ctx):\n" + "".join(f"    {line}\n" for line in lines))
    return sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - 1


def _sink_statements(kind: str, sink) -> int:
    # A multi-pass kernel's count phase ends in an ``if`` and finish_count.
    count_epilogue = 2 if kind == "multipass" else 0
    if isinstance(sink, MaterializeSink):
        return count_epilogue + 2 + len(sink.outputs)  # positions, touch, stores
    return count_epilogue + 1  # sink_build / sink_aggregate / materialize_for_*


class TestOneStatementPerPrimitive:
    FRAME = 2  # scope = ctx.scope; mask = ...

    @pytest.mark.parametrize("kind", sorted(EMITTERS))
    def test_statement_count(self, every_pipeline, kind):
        for pipeline in every_pipeline:
            residuals = sum(
                isinstance(stage, ProbeStage) and stage.residual is not None
                for stage in pipeline.stages
            )
            budget = (
                self.FRAME
                + len(pipeline.stages)
                + residuals
                + _sink_statements(kind, pipeline.sink)
            )
            assert _statements(EMITTERS[kind](pipeline)) <= budget, pipeline.describe()

    def test_equal_source_means_equal_pipeline(self, every_pipeline):
        """The kernel cache is keyed by source text: a pipeline may only
        reuse another's kernel if the source pins down what it does."""
        for emit in EMITTERS.values():
            seen: dict[str, tuple[str, str]] = {}
            for pipeline in every_pipeline:
                lines = "\n".join([pipeline.name, *emit(pipeline)])
                structure = (repr(pipeline.stages), repr(pipeline.sink))
                assert seen.setdefault(lines, structure) == structure, pipeline.describe()
            assert len(seen) < len(every_pipeline)  # some sources are shared


class TestHandBuiltStarJoin:
    """A generated star-join kernel on a context with no ``pipeline=``:
    everything it does comes from the source."""

    N = 200

    def _runtime(self, tiny_db):
        device = VirtualCoprocessor(GTX970)
        runtime = QueryRuntime(device, tiny_db)
        keys = np.arange(20, dtype=np.int32)
        runtime.register_hash_table(
            "ht", HashTableEntry(JoinHashTable.build(device, [keys], name="ht"),
                                 {"p": keys * 10})
        )
        even = np.arange(0, 20, 2, dtype=np.int32)
        runtime.register_hash_table(
            "dim", HashTableEntry(JoinHashTable.build(device, [even], name="dim"),
                                  {"q": even + 100})
        )
        return runtime

    def _context(self, tiny_db, source):
        schema = PlanSchema({"k": DType.INT32, "j": DType.INT32, "a": DType.INT32}, {})
        return KernelContext(self._runtime(tiny_db), source, schema, mode="atomic")

    def test_probes_payloads_and_left_default(self, tiny_db):
        rng = np.random.default_rng(9)
        source = {
            "k": rng.integers(0, 40, self.N).astype(np.int32),
            "j": rng.integers(0, 20, self.N).astype(np.int32),
            "a": rng.integers(0, 100, self.N).astype(np.int32),
        }
        pipeline = Pipeline(
            name="star",
            source="fact",
            source_is_virtual=False,
            stages=[
                ProbeStage("ht", [col("k")], payload=["p"]),
                ProbeStage(
                    "dim", [col("j")], payload=["q"], kind="left",
                    payload_defaults={"q": -7},
                ),
            ],
            sink=MaterializeSink(["a", "p", "q"]),
            required_columns=["a", "j", "k"],
            scope_schema=PlanSchema({}, {}),
            output_name="__result__",
        )
        kernel = generate_compound_kernel(pipeline)
        assert "defaults={'q': -7}" in kernel.source
        ctx = self._context(tiny_db, source)
        kernel(ctx)

        hit = source["k"] < 20
        j = source["j"][hit]
        expected = sorted(zip(
            source["a"][hit].tolist(),
            (source["k"][hit] * 10).tolist(),
            np.where(j % 2 == 0, j + 100, -7).tolist(),
        ))
        outputs = ctx.outputs
        assert sorted(zip(*(outputs[name].tolist() for name in ("a", "p", "q")))) == expected

        # The stage calls charge what the per-primitive protocol charges.
        walked = self._context(tiny_db, source)
        mask = walked.full_mask()
        for table_id, key, payload, kind, default in (
            ("ht", "k", "p", "inner", None),
            ("dim", "j", "q", "left", -7),
        ):
            walked.touch([key])
            rows = walked.probe(table_id, [walked.scope[key]], mask, key_cost=1)
            mask = walked.apply_probe(mask, rows, kind=kind)
            walked.scope[payload] = walked.payload(table_id, rows, payload, default=default)
            walked.mark_loaded([payload])
        positions = walked.positions(mask)
        walked.touch(["a", "p", "q"], count=positions.total)
        for name in ("a", "p", "q"):
            walked.store(name, walked.scope[name], mask, positions)
        assert walked.meter.snapshot() == ctx.meter.snapshot()
