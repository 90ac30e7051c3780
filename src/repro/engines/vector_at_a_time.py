"""Vector-at-a-time on a GPU — Section 3's rejected design, quantified.

The paper argues that the CPU sweet spot of vector-at-a-time processing
does not exist on GPUs: "Kernel invocations are an order of magnitude
more expensive than CPU function calls. Furthermore, GPUs need much
larger batch sizes to facilitate over-subscription ... batches, which
fit in the GPU caches, are too small to be processed efficiently."

This engine implements that design anyway so the argument can be
measured: each fusion operator runs as a sequence of compound-kernel
launches over cache-sized vectors. Every launch pays the kernel-launch
overhead, and vectors smaller than the device's resident thread count
execute at proportionally reduced occupancy.

Build-sink pipelines run un-vectorized (a hash table must see all build
rows); everything else is one pass of
:func:`~repro.engines.compound.run_compound` with a segment — one
launch — per ``vector_rows`` rows.  The cost estimator prices it by the
same pass (:meth:`VectorAtATimeEngine.estimate_pipeline`).
"""

from __future__ import annotations

import numpy as np

from ..plan.physical import BuildSink, Pipeline
from ..kernels.context import EstimateContext, KernelContext, Segment
from .compound import (
    CompoundEngine, estimate_slices, merge_slices, run_compound, slice_bounds, sliced,
)
from .runtime import QueryRuntime


class VectorAtATimeEngine(CompoundEngine):
    """Compound-kernel logic over cache-sized vectors (one launch each)."""

    #: Section 3's design launches per vector and fuses nothing.
    fuses_siblings = False

    def __init__(self, vector_rows: int = 1024, mode: str = "lrgp_simd"):
        if vector_rows <= 0:
            raise ValueError("vector_rows must be positive")
        super().__init__(mode)
        self.vector_rows = vector_rows
        self.name = f"vector-at-a-time[{vector_rows}]"

    def execute_pipeline(
        self, pipeline: Pipeline, runtime: QueryRuntime
    ) -> dict[str, np.ndarray] | None:
        vectors = self._vectors(pipeline, runtime, KernelContext)
        if vectors is None:
            return super().execute_pipeline(pipeline, runtime)
        return merge_slices(pipeline, *vectors, "vectors")

    def estimate_pipeline(self, pipeline: Pipeline, runtime) -> tuple[int, int]:
        """Price ``pipeline`` as :meth:`execute_pipeline` runs it: the
        same vectors, each launched over its row count."""
        vectors = self._vectors(pipeline, runtime, EstimateContext)
        if vectors is None:
            return super().estimate_pipeline(pipeline, runtime)
        return estimate_slices(pipeline, vectors[0], runtime)

    def _vectors(self, pipeline: Pipeline, runtime: QueryRuntime, context):
        """Run ``pipeline``'s pass over its vectors on ``context``: the
        contexts it ran on and the :func:`~repro.engines.compound.sliced`
        merge scheme, or ``None`` where it runs whole."""
        if isinstance(pipeline.sink, BuildSink):
            # Hash-table builds must observe every row at once.
            return None
        # A vector decodes, and is charged for, the rows it reads.
        scope = runtime.load_source(pipeline, lazy_capable=self.lazy_capable(pipeline))
        if not scope:
            # No column to cut into vectors (an unfiltered count(*)): one
            # launch (loading again moves nothing).
            return None
        launched, scheme = sliced(pipeline)
        bounds = slice_bounds(runtime.source_rows(pipeline), self.vector_rows)
        segments = [
            Segment(launched, stop - start, f".vector{i}") for i, (start, stop) in enumerate(bounds)
        ]
        contexts = run_compound(
            segments, runtime, self.mode, scope, context,
            occupancy_rows=runtime.device.profile.threads_resident,
        )
        return contexts, scheme
