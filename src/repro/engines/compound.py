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

from time import perf_counter

import numpy as np

from ..kernels.codegen import generate_compound_kernel
from ..kernels.context import EstimateContext, KernelContext
from ..plan.physical import AggregateSink, BuildSink, Pipeline
from ..scaleout.merge import merge_partials, rewrite_for_partials
from .base import Engine
from .runtime import GroupScope, QueryRuntime


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

    def _run_members(self, members: list[Pipeline], runtime: QueryRuntime):
        # The one pass stands in for each member's run_pipeline (whose
        # record runs a final pipeline's execute_pipeline): an engine or
        # a runtime (the cost estimator's, which prices it) that runs a
        # pipeline otherwise keeps the member loop.
        if (
            not morsel_group(members)
            or type(self).execute_pipeline is not CompoundEngine.execute_pipeline
            or type(runtime).record is not QueryRuntime.record
        ):
            return super()._run_members(members, runtime)
        device = runtime.device
        started = perf_counter()
        with device.fusing() as queued:
            produced = run_compound_group(members, runtime, self.mode)
        # The group's one pass: no launch of its own spans it.
        device.log.phase(
            f"member {'+'.join(member.name for member in members)}", "member", started
        )
        # One compound launch per member, in member order.
        return produced, [[trace] for trace in queued]

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
    runtime.device.log.bodies += 1
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


def morsel_group(members: list[Pipeline]) -> bool:
    """Whether ``members`` are morsels: two or more pipelines that run
    one pipeline's stages and aggregating or materializing sink over
    different pieces of its base table (a fleet device's turn)."""
    head = members[0]
    return (
        len(members) > 1
        and not isinstance(head.sink, BuildSink)
        and all(member.stages is head.stages and member.sink is head.sink for member in members)
    )


def run_compound_group(members: list[Pipeline], runtime: QueryRuntime, mode: str) -> list:
    """Run the :func:`morsel_group` ``members``, whose first-read
    columns are loaded, as ONE host pass of their compound kernel: the
    scope is the members' columns back to back and member ``i`` is
    segment ``i`` of the kernel's row domain
    (:class:`~repro.kernels.context.KernelContext`).  Each member then
    lists its kernel, makes its runtime effects and launches what its
    segment charged, in member order — exactly the launch it would
    queue run alone.  Returns each member's sink outputs."""
    head, log = members[0], runtime.device.log
    kernels = [generate_compound_kernel(member, log) for member in members]
    rows = [runtime.source_rows(member) for member in members]
    ctx = KernelContext(
        runtime, GroupScope(runtime.database, members), head.scope_schema, mode,
        sink=head.sink, output_schema=head.output_schema, segments=list(zip(members, rows)),
    )
    kernels[0](ctx)
    log.bodies += 1
    for member, kernel, count, meter, effects in zip(
        members, kernels, rows, ctx.meters, ctx.effects
    ):
        runtime.list_kernel(member.name, kernel.source)
        for effect, args in effects:
            runtime.effect(effect, args)
        runtime.device.launch(kernel.name, "compound", count, meter)
    return ctx.segment_outputs
