"""The fully pipelined compound-kernel engine (Sections 5 and 6).

Each fusion operator executes as ONE generated kernel that evaluates
the relational primitives, computes write positions with a pipelined
prefix sum, and performs the aligned writes — no intermediate
materialization in GPU global memory.

Two reduction families are available:

* ``Pipelined``  (``mode="atomic"``) — plain atomic prefix
  sums/reductions (techniques A2/B2/C2);
* ``Resolution`` (``mode="lrgp_simd"`` or ``"lrgp_we"``) — local
  resolution, global propagation (techniques A3/B3/C3) with a SIMD or
  work-efficient local mechanism.
"""

from __future__ import annotations

import numpy as np

from ..kernels.codegen import generate_compound_kernel
from ..kernels.context import EstimateContext, KernelContext
from ..plan.physical import AggregateSink, BuildSink, Pipeline
from ..scaleout.merge import merge_partials, rewrite_for_partials
from .base import Engine
from .runtime import QueryRuntime


class CompoundEngine(Engine):
    """HorseQC: Fully pipelined — one compound kernel per pipeline."""

    def __init__(self, mode: str = "lrgp_simd"):
        if mode not in ("atomic", "lrgp_simd", "lrgp_we"):
            raise ValueError(f"invalid compound mode {mode!r}")
        self.mode = mode
        label = {
            "atomic": "Pipelined",
            "lrgp_simd": "Resolution:SIMD",
            "lrgp_we": "Resolution:WE",
        }[mode]
        self.name = f"horseqc-compound[{label}]"
        #: Last execution's sources per pipeline name (for inspection);
        #: rebound per run — see :class:`~repro.engines.base.Engine`.
        self.kernel_sources: dict[str, str] = {}

    fuses_siblings = True

    def lazy_capable(self, pipeline: Pipeline) -> bool:
        return True

    def execute_pipeline(
        self, pipeline: Pipeline, runtime: QueryRuntime
    ) -> dict[str, np.ndarray] | None:
        scope = runtime.load_source(
            pipeline, lazy_capable=self.lazy_capable(pipeline)
        )
        return run_compound_pipeline(pipeline, runtime, self.mode, scope)

    def estimate_pipeline(self, pipeline: Pipeline, runtime) -> tuple[int, int]:
        scope = runtime.load_source(
            pipeline, lazy_capable=self.lazy_capable(pipeline)
        )
        kernel = generate_compound_kernel(pipeline, runtime.device.log)
        ctx = _launch(
            EstimateContext, kernel, pipeline, runtime, self.mode, scope,
            runtime.source_rows(pipeline), kernel.name,
        )
        return ctx.valid, ctx.groups


def _launch(
    context, kernel, pipeline: Pipeline, runtime, mode: str, scope, rows: int,
    name: str, occupancy_rows: int = 1,
) -> KernelContext:
    """Run ``pipeline``'s compound ``kernel`` over ``scope`` on a
    ``context`` and launch what it charged as ``name``."""
    ctx = context(
        runtime, scope, pipeline.scope_schema, mode=mode, sink=pipeline.sink,
        output_schema=pipeline.output_schema, rows=rows, pipeline=pipeline,
    )
    kernel(ctx)
    occupancy = min(1.0, max(ctx.n, 1) / occupancy_rows)
    runtime.device.launch(name, "compound", ctx.n, ctx.meter, occupancy=occupancy)
    return ctx


def slice_bounds(total_rows: int, slice_rows: int) -> list[tuple[int, int]]:
    """``[start, stop)`` row ranges of ``slice_rows`` rows covering
    ``total_rows``; an empty input still gets its one (empty) slice, so
    every sink emits a partial."""
    return [
        (start, min(start + slice_rows, total_rows))
        for start in range(0, max(total_rows, 1), slice_rows)
    ]


def sliced(pipeline: Pipeline) -> tuple[Pipeline, object]:
    """What a run of ``pipeline`` in row slices launches, and how the
    partials merge: an AVG sink's :func:`~repro.scaleout.merge.rewrite_for_partials`
    pipeline (hidden SUM and COUNT), as scale-out morsels do; any other as it is."""
    sink = pipeline.sink
    if isinstance(sink, AggregateSink) and any(spec.op == "avg" for spec in sink.aggregates):
        return rewrite_for_partials(pipeline)
    return pipeline, None


def run_compound_pipeline(
    pipeline: Pipeline,
    runtime: QueryRuntime,
    mode: str,
    scope: dict[str, np.ndarray],
    bounds: list[tuple[int, int]] | None = None,
    suffix: str = "",
    occupancy_rows: int = 1,
    before=None,
    after=None,
) -> dict[str, np.ndarray] | None:
    """Run ``pipeline`` as generated compound-kernel launches over
    ``scope`` — the one place a fusion operator meets the device
    (``docs/architecture.md``, "one query loop").

    Without ``bounds`` the whole input is one launch and the sink
    outputs come back as they are (``None`` for a hash-table build).
    With ``bounds`` each ``[start, stop)`` row range is its own launch
    ``<kernel>.<suffix><i>``, charged at reduced occupancy below
    ``occupancy_rows`` rows, between ``before(index, start, stop)`` and
    ``after(index, outputs)`` on the :func:`sliced` pipeline; the per-slice
    outputs re-reduce through :func:`~repro.scaleout.merge.merge_partials`.
    """
    sink = pipeline.sink
    launched, scheme = (pipeline, None) if bounds is None else sliced(pipeline)
    kernel = generate_compound_kernel(launched, runtime.device.log)
    runtime.list_kernel(pipeline.name, kernel.source)

    def launch(rows_scope, rows: int, name: str) -> KernelContext:
        return _launch(
            KernelContext, kernel, launched, runtime, mode, rows_scope, rows, name,
            occupancy_rows,
        )

    if bounds is None:
        ctx = launch(scope, runtime.source_rows(pipeline), kernel.name)
        # A build sink registered its hash table in ctx.sink_build.
        return None if isinstance(sink, BuildSink) else ctx.outputs

    partials: list[dict[str, np.ndarray]] = []
    counts: list[int] = []
    for index, (start, stop) in enumerate(bounds):
        if before is not None:
            before(index, start, stop)
        ctx = launch(
            {name: values[start:stop] for name, values in scope.items()},
            stop - start,
            f"{kernel.name}.{suffix}{index}",
        )
        partials.append(ctx.outputs)
        # Qualifying rows per slice keep an empty slice's min/max
        # placeholder out of the merge.
        counts.append(ctx.aggregation.inputs if ctx.aggregation is not None else 0)
        if after is not None:
            after(index, ctx.outputs)
    return merge_partials(
        sink,
        pipeline.output_schema,
        partials,
        counts=counts,
        scheme=scheme,
        context=f"{suffix}s",
    )
