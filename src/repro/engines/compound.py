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
from ..kernels.context import EstimateContext, KernelContext, Segment
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
        ctx = self._whole(pipeline, runtime, KernelContext)
        # A build sink registered its hash table in ctx.sink_build.
        return None if isinstance(pipeline.sink, BuildSink) else ctx.outputs

    def estimate_pipeline(self, pipeline: Pipeline, runtime) -> tuple[int, int]:
        ctx = self._whole(pipeline, runtime, EstimateContext)
        return ctx.valid, ctx.groups

    def _whole(self, pipeline: Pipeline, runtime: QueryRuntime, context) -> KernelContext:
        """Load ``pipeline`` and run it on a ``context`` over all its
        rows: the one-segment case, one launch."""
        scope = runtime.load_source(pipeline, lazy_capable=self.lazy_capable(pipeline))
        rows = runtime.source_rows(pipeline)
        return run_compound([Segment(pipeline, rows)], runtime, self.mode, scope, context)[0]

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
        # Member i is segment i, over its piece's columns back to back.
        segments = [Segment(member, runtime.source_rows(member)) for member in members]
        scope = GroupScope(runtime.database, members)
        with device.fusing() as queued:
            [ctx] = run_compound(segments, runtime, self.mode, scope)
        # The group's one pass: no launch of its own spans it.
        names = "+".join(member.name for member in members)
        device.log.phase(f"member {names}", "member", started)
        # One compound launch per member, in member order.
        return ctx.segment_outputs, [[trace] for trace in queued]


def run_compound(
    segments: list[Segment],
    runtime: QueryRuntime,
    mode: str,
    scope,
    context=KernelContext,
    occupancy_rows: int = 1,
) -> list[KernelContext]:
    """Run a compound kernel's pass over ``scope`` — the one place a
    fusion operator meets the device (``docs/architecture.md``, "one
    query loop") — and return the contexts it ran on.

    Each :class:`~repro.kernels.context.Segment` is the next rows of
    ``scope``; their pipelines share the first's stages and sink, whose
    body runs ONCE on one ``context``.  Then, per segment:
    its pipeline's kernel is listed (a lone segment, whose effects are
    made during the body, lists it before), its h2d logged, its deferred
    effects made and its launch issued as the kernel's name plus its
    ``suffix``, at reduced occupancy below ``occupancy_rows`` rows.  A
    count domain (:class:`~repro.kernels.context.EstimateContext`)
    rounds each stage's rows per kernel, so it runs each segment alone."""
    device = runtime.device
    pipelines = {segment.pipeline.name: segment.pipeline for segment in segments}
    kernels = {name: generate_compound_kernel(p, device.log) for name, p in pipelines.items()}
    unlisted = set(kernels)

    def list_kernel(pipeline: Pipeline) -> None:
        if pipeline.name in unlisted:
            unlisted.remove(pipeline.name)
            runtime.list_kernel(pipeline.name, kernels[pipeline.name].source)

    head = segments[0].pipeline
    passes = [[segment] for segment in segments] if context is EstimateContext else [segments]
    contexts = []
    for part in passes:
        if len(part) == 1:
            list_kernel(part[0].pipeline)
        ctx = context(
            runtime, scope, head.scope_schema, mode, sink=head.sink,
            output_schema=head.output_schema, segments=part,
        )
        kernels[head.name](ctx)
        device.log.bodies += 1
        for segment, meter, effects in zip(part, ctx.meters, ctx.effects):
            list_kernel(segment.pipeline)
            if segment.ship is not None:
                segment.ship()
            for effect, args in effects or ():
                runtime.effect(effect, args)
            device.launch(
                kernels[segment.pipeline.name].name + segment.suffix, "compound",
                segment.rows, meter, occupancy=min(1.0, max(segment.rows, 1) / occupancy_rows),
            )
        contexts.append(ctx)
    return contexts


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


def merge_slices(pipeline: Pipeline, contexts: list[KernelContext], scheme, context: str) -> dict:
    """``pipeline``'s sink outputs, re-reduced from the ``contexts`` of
    a pass whose segments are its :func:`sliced` row slices
    (:func:`~repro.scaleout.merge.merge_partials`; ``context`` names them)."""
    partials = [outputs for ctx in contexts for outputs in ctx.segment_outputs]
    # Qualifying rows per slice keep an empty slice's min/max
    # placeholder out of the merge.
    counts = [result.inputs for ctx in contexts for result in ctx.aggregations]
    return merge_partials(
        pipeline.sink, pipeline.output_schema, partials, counts=counts, scheme=scheme,
        context=context,
    )


def estimate_slices(pipeline: Pipeline, contexts: list[EstimateContext], runtime) -> tuple[int, int]:
    """The rows and groups of ``pipeline`` priced over the ``contexts``
    of a pass whose segments are its :func:`sliced` row slices: the
    rows they all keep, and the groups those rows fall into once
    :func:`merge_slices` merges the partials."""
    rows, groups = sum(ctx.valid for ctx in contexts), contexts[-1].groups
    if groups and pipeline.sink.group_keys:
        return rows, runtime.groups(pipeline, rows)
    return rows, groups


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
