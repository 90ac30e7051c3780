"""Partial-result merging shared by every partitioned execution path.

Three execution models in this repo split one pipeline's input into
pieces and re-reduce the per-piece outputs: the out-of-core block
streamer (:class:`repro.macro.batch.BatchExecutor`) and the
vector-at-a-time engine (both as segments of one pass of
:func:`repro.engines.compound.run_compound`, merged by
:func:`repro.engines.compound.merge_slices`), and the scale-out
multi-device executor.  They all share :func:`merge_partials`
so the merge semantics — and their empty-partial edge cases — live in
exactly one place.

Two subtleties this module owns:

* **Empty partials must not poison min/max/avg.** A piece where no row
  survived the filters emits the single-tuple placeholder ``[0.0]``
  (see ``repro.engines.runtime._reduce_spec``), which is
  indistinguishable from a real aggregate of 0.  Callers that know the
  per-piece qualifying-row counts pass them via ``counts`` (the
  in-process slicer, :func:`repro.engines.compound.merge_slices`,
  reads each segment's ``ctx.aggregations[s].inputs`` — free and
  exact); the scale-out path runs arbitrary engines and instead
  rewrites the pipeline with :func:`rewrite_for_partials`, which
  injects a hidden ``count(*)`` so the counts travel inside the
  partials themselves.  The hidden count
  changes a single-tuple kernel's charges, so the two channels coexist:
  moving the in-process slicers onto the scheme would drift their
  simulated clock.
* **AVG does not merge from plain partials** (an average of averages is
  wrong under skew).  Every slicer therefore runs AVG sinks on the
  :func:`rewrite_for_partials` pipeline, whose :class:`PartialScheme`
  decomposes AVG into hidden SUM and COUNT partials that recombine
  exactly; handed plain AVG partials without a scheme, the merge
  refuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import PlanError
from ..plan.logical import AggSpec, aggregate_dtype
from ..plan.physical import AggregateSink, MaterializeSink, Pipeline, Sink
from ..plan.logical import PlanSchema
from ..primitives.segmented import factorize, grouped_reduce
from ..storage.dtypes import DType

#: How each aggregate op combines across partials (AVG is absent on
#: purpose: it only merges via a :class:`PartialScheme` decomposition).
MERGE_OPS = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}

#: Hidden column carrying the per-partial qualifying-row count.
PARTIAL_ROWS = "__partial_rows__"


def _sum_name(name: str) -> str:
    return f"__partial_sum__{name}"


def _count_name(name: str) -> str:
    return f"__partial_count__{name}"


@dataclass(frozen=True)
class PartialScheme:
    """How a rewritten pipeline smuggles merge metadata in its partials.

    ``rows_name`` is the hidden single-tuple ``count(*)`` output (None
    for grouped sinks, where empty pieces simply contribute zero
    groups); ``avg_parts`` maps each original AVG output to its hidden
    ``(sum, count)`` decomposition.
    """

    rows_name: str | None = None
    avg_parts: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def hidden_names(self) -> set[str]:
        names = set()
        if self.rows_name is not None:
            names.add(self.rows_name)
        for sum_name, count_name in self.avg_parts.values():
            names.add(sum_name)
            names.add(count_name)
        return names


def rewrite_for_partials(pipeline: Pipeline) -> tuple[Pipeline, PartialScheme]:
    """A clone of ``pipeline`` whose partials are always mergeable.

    For aggregate sinks this (a) replaces each AVG spec by hidden SUM
    and COUNT specs, and (b) for single-tuple sinks appends a hidden
    ``count(*)`` so the merge can tell a real 0 from the empty-piece
    placeholder.  Materialize sinks pass through unchanged.  The clone
    shares stages with the original (both are read-only at execution
    time); its sink and output schema are fresh objects.  It is derived
    once per pipeline object (:meth:`Pipeline.derive`), so a cached
    plan's rewrite keeps the kernels compiled for it.
    """
    if not isinstance(pipeline.sink, AggregateSink):
        return pipeline, PartialScheme()
    return pipeline.derive("partials", lambda: _rewrite_aggregate(pipeline))


def _rewrite_aggregate(pipeline: Pipeline) -> tuple[Pipeline, PartialScheme]:
    sink = pipeline.sink
    scope_dtypes = pipeline.scope_schema.dtypes
    specs: list[AggSpec] = []
    avg_parts: dict[str, tuple[str, str]] = {}
    schema = (
        pipeline.output_schema.copy()
        if pipeline.output_schema is not None
        else PlanSchema({}, {})
    )
    for spec in sink.aggregates:
        if spec.op != "avg":
            specs.append(spec)
            continue
        sum_name, count_name = _sum_name(spec.name), _count_name(spec.name)
        avg_parts[spec.name] = (sum_name, count_name)
        sum_spec = AggSpec("sum", spec.expr, sum_name)
        specs.append(sum_spec)
        specs.append(AggSpec("count", None, count_name))
        schema.dtypes[sum_name] = aggregate_dtype(sum_spec, scope_dtypes)
        schema.dtypes[count_name] = DType.INT64
    rows_name = None
    if not sink.group_keys:
        rows_name = PARTIAL_ROWS
        specs.append(AggSpec("count", None, rows_name))
        schema.dtypes[rows_name] = DType.INT64
    scheme = PartialScheme(rows_name=rows_name, avg_parts=avg_parts)
    rewritten = replace(
        pipeline,
        sink=AggregateSink(group_keys=list(sink.group_keys), aggregates=specs),
        output_schema=schema,
    )
    return rewritten, scheme


def merge_partials(
    sink: Sink,
    schema: PlanSchema | None,
    partials: list[dict[str, np.ndarray]],
    counts: list[int] | None = None,
    scheme: PartialScheme | None = None,
    context: str = "partitions",
) -> dict[str, np.ndarray]:
    """Re-reduce per-piece pipeline outputs into one output dict.

    Parameters
    ----------
    sink:
        The *original* sink (its spec list names the outputs to
        produce).  Materialize outputs concatenate in piece order;
        aggregate outputs re-reduce per :data:`MERGE_OPS`.
    schema:
        When given, merged aggregate columns are cast to these dtypes.
    counts:
        Per-piece qualifying-row counts, used to mask empty-piece
        min/max placeholders (single-tuple sinks only).
    scheme:
        The :class:`PartialScheme` of a pipeline rewritten by
        :func:`rewrite_for_partials`; enables AVG merging and supplies
        row counts from the hidden ``count(*)`` when ``counts`` is not
        given.
    context:
        Word for error messages: ``"blocks"``, ``"vectors"``, or
        ``"partitions"``.
    """
    if isinstance(sink, MaterializeSink):
        return {
            name: (
                np.concatenate([partial[name] for partial in partials])
                if partials
                else np.zeros(0)
            )
            for name in sink.outputs
        }
    if not isinstance(sink, AggregateSink):
        raise PlanError(
            f"cannot merge partials across {context} for sink "
            f"{type(sink).__name__} (materialize and aggregate only)"
        )
    if scheme is None:
        scheme = PartialScheme()
    for spec in sink.aggregates:
        if spec.op not in MERGE_OPS and spec.name not in scheme.avg_parts:
            raise PlanError(
                f"aggregate {spec.op!r} cannot be merged across {context} "
                "from plain partials (run the slices on rewrite_for_partials "
                "and pass its scheme)"
            )
    if sink.group_keys:
        merged = _merge_grouped(sink, partials, scheme, schema)
    else:
        merged = _merge_single(sink, partials, counts, scheme)
    if schema is not None:
        for name, dtype in schema.dtypes.items():
            if name in merged:
                merged[name] = np.asarray(merged[name]).astype(dtype.numpy_dtype)
    return merged


def _partial_rows(
    partials: list[dict[str, np.ndarray]],
    counts: list[int] | None,
    scheme: PartialScheme,
) -> list[int] | None:
    """Qualifying rows per piece, from whichever channel is available."""
    if counts is not None:
        return counts
    if scheme.rows_name is not None:
        return [int(np.asarray(partial[scheme.rows_name]).sum()) for partial in partials]
    return None


def _merge_single(
    sink: AggregateSink,
    partials: list[dict[str, np.ndarray]],
    counts: list[int] | None,
    scheme: PartialScheme,
) -> dict[str, np.ndarray]:
    rows = _partial_rows(partials, counts, scheme)
    merged: dict[str, np.ndarray] = {}
    for spec in sink.aggregates:
        if spec.name in scheme.avg_parts:
            sum_name, count_name = scheme.avg_parts[spec.name]
            total = sum(float(np.asarray(p[sum_name]).sum()) for p in partials)
            n = sum(int(np.asarray(p[count_name]).sum()) for p in partials)
            merged[spec.name] = np.array([total / n if n else 0.0])
            continue
        op = MERGE_OPS[spec.op]
        arrays = [partial[spec.name] for partial in partials]
        if op in ("min", "max") and rows is not None:
            # Pieces where no row qualified emit the empty-selection
            # placeholder 0, which must not participate in the merge.
            arrays = [array for array, n in zip(arrays, rows) if n]
            if not arrays:
                merged[spec.name] = np.array([0.0])
                continue
        stacked = np.concatenate(arrays) if arrays else np.zeros(0)
        value = getattr(np, op)(stacked) if len(stacked) else 0
        merged[spec.name] = np.asarray([value])
    return merged


def _merge_grouped(
    sink: AggregateSink,
    partials: list[dict[str, np.ndarray]],
    scheme: PartialScheme,
    schema: PlanSchema | None,
) -> dict[str, np.ndarray]:
    key_names = [name for name, _ in sink.group_keys]
    if not partials:
        # Every piece was empty: zero groups, empty output columns.
        empty: dict[str, np.ndarray] = {}
        for name in key_names + [spec.name for spec in sink.aggregates]:
            dtype = (
                schema.dtypes[name].numpy_dtype
                if schema is not None and name in schema.dtypes
                else np.float64
            )
            empty[name] = np.zeros(0, dtype=dtype)
        return empty
    stacked_keys = [
        np.concatenate([partial[name] for partial in partials]) for name in key_names
    ]
    codes, uniques = factorize(stacked_keys)
    merged = {name: unique for name, unique in zip(key_names, uniques)}
    groups = len(uniques[0]) if uniques else 0

    def stack(name: str) -> np.ndarray:
        return np.concatenate([partial[name] for partial in partials])

    for spec in sink.aggregates:
        if spec.name in scheme.avg_parts:
            sum_name, count_name = scheme.avg_parts[spec.name]
            sums = grouped_reduce(codes, groups, stack(sum_name), "sum")
            ns = grouped_reduce(codes, groups, stack(count_name), "sum")
            merged[spec.name] = np.asarray(sums, dtype=np.float64) / np.maximum(ns, 1)
            continue
        merged[spec.name] = grouped_reduce(
            codes, groups, stack(spec.name), MERGE_OPS[spec.op]
        )
    return merged
