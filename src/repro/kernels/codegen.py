"""Kernel source generation for fusion operators.

This is HorseQC's code generator (Sections 4.3 and 5.2), retargeted
from OpenCL to vectorized Python: relational primitives are instanced
into a code frame at designated positions.  Two kernel shapes exist:

* ``multipass`` — the multi-pass model's one kernel per pipeline: the
  cardinality-affecting primitives, then an epilogue chosen by the
  context's phase.  The count context (no sink, every row) ends by
  writing the selection flags (phase 1, Figure 8 left); the write
  context starts on the flagged rows, re-executes the primitives for
  them and performs the aligned writes (phase 3, Figure 8 right).  The
  engine still launches the two phases as ``count_<p>`` and
  ``write_<p>``; they share one code object, compiled once;
* ``compound`` — everything in one kernel with the prefix sum inlined
  between the cardinality part and the write part (Figure 12).

Each primitive is one statement: a ``ctx.filter_stage`` /
``ctx.map_stage`` / ``ctx.probe_stage`` call (plus a probe residual's
``ctx.apply_filter``) and one sink call, whose arguments carry every
constant — stage index, table id, join kind, payload names and
defaults, costs, the columns to load — while the
:class:`~repro.kernels.context.KernelContext` sequences the simulator
bookkeeping around it.  Python's ``compile`` cost grows with the
statement count, so this keeps cold codegen small, and the source still
determines everything the kernel does (it is the cache key).

Generated source is kept on the :class:`CompiledKernel` for inspection
(compare the paper's Appendix E listing).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import CompilationError
from ..expressions.codegen import literal_source, to_source
from ..hardware.traffic import Profile
from ..plan.physical import (
    AggregateSink,
    BuildSink,
    FilterStage,
    MapStage,
    MaterializeSink,
    Pipeline,
    ProbeStage,
)


@dataclass
class CompiledKernel:
    """A generated kernel: its source and the compiled entry point."""

    name: str
    kind: str  # "multipass" or "compound"
    source: str
    entry: object  # callable(ctx)

    def __call__(self, ctx):
        return self.entry(ctx)


@dataclass
class KernelCacheStats:
    """A snapshot of the process-wide compiled-kernel cache."""

    hits: int
    misses: int
    evictions: int
    size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Compiled kernels are pure functions of their source text, so the
#: source is the cache key: two pipelines with the same structure (same
#: stages, expressions, constants, and sink) generate byte-identical
#: source and share one compiled entry across executions, sessions, and
#: server workers.  Bounded LRU; guarded by a lock so concurrent
#: serving workers can compile safely.
#:
#: A pipeline *object* that has been through the cache once remembers
#: its kernels (``Pipeline.kernels``), so a cached plan's next execution
#: is a lookup by identity and builds no source text.  That is the same
#: cache seen from the plan's side, not a second one: it counts the
#: same hit, refreshes the same LRU entry and is dropped by the same
#: :func:`clear_kernel_cache` (which starts a new epoch).
KERNEL_CACHE_CAPACITY = 1024
_cache_lock = threading.Lock()
_kernel_cache: "OrderedDict[str, CompiledKernel]" = OrderedDict()
_cache_epoch = 0
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0


def kernel_cache_stats() -> KernelCacheStats:
    """Process-wide cache counters (see :class:`KernelCacheStats`)."""
    with _cache_lock:
        return KernelCacheStats(
            hits=_cache_hits,
            misses=_cache_misses,
            evictions=_cache_evictions,
            size=len(_kernel_cache),
        )


def clear_kernel_cache() -> None:
    """Drop all cached kernels and reset the counters (tests/benchmarks)."""
    global _cache_epoch, _cache_hits, _cache_misses, _cache_evictions
    with _cache_lock:
        _kernel_cache.clear()
        _cache_epoch += 1
        _cache_hits = _cache_misses = _cache_evictions = 0


def _record_probe(hit: bool) -> None:
    global _cache_hits, _cache_misses
    if hit:
        _cache_hits += 1
    else:
        _cache_misses += 1


def _kernel(pipeline: Pipeline, kind: str, emit, log: Profile | None) -> CompiledKernel:
    """The ``kind`` kernel of ``pipeline``: the one this pipeline object
    resolved since the cache was last cleared, else ``emit(pipeline)``'s
    lines through the source-keyed cache.  The lookup is logged on
    ``log``, the record of the query it is for (if any)."""
    epoch = _cache_epoch  # read before compiling: a clear meanwhile wins
    known = pipeline.kernels.get(kind)
    if known is None or known[0] != epoch:
        kernel = _compile(f"{kind}_{pipeline.name}", kind, emit(pipeline), log)
        pipeline.kernels[kind] = (epoch, kernel)
        return kernel
    kernel = known[1]
    with _cache_lock:
        _record_probe(True)
        if kernel.source in _kernel_cache:
            _kernel_cache.move_to_end(kernel.source)
    if log is not None:
        log.lookup(kernel.name, kind, hit=True)
    return kernel


def _compile(name: str, kind: str, lines: list[str], log: Profile | None) -> CompiledKernel:
    """Compile ``lines`` (one statement or comment each) as the body of
    ``name``, or take the cached kernel of the same source."""
    global _cache_evictions
    source = "\n".join([f"def {name}(ctx):"] + [f"    {line}" for line in lines]) + "\n"
    with _cache_lock:
        cached = _kernel_cache.get(source)
        _record_probe(cached is not None)
        if cached is not None:
            _kernel_cache.move_to_end(source)
            if log is not None:
                log.lookup(name, kind, hit=True)
            return cached
    started = time.perf_counter()
    namespace: dict = {"np": np}
    try:
        exec(compile(source, filename=f"<generated {name}>", mode="exec"), namespace)
    except SyntaxError as error:  # pragma: no cover - codegen bug guard
        raise CompilationError(f"generated kernel failed to compile: {error}\n{source}")
    kernel = CompiledKernel(name=name, kind=kind, source=source, entry=namespace[name])
    if log is not None:
        log.lookup(
            name, kind, hit=False, compile_ms=(time.perf_counter() - started) * 1e3,
            statements=sum(not line.lstrip().startswith("#") for line in lines),
        )
    with _cache_lock:
        _kernel_cache[source] = kernel
        while len(_kernel_cache) > KERNEL_CACHE_CAPACITY:
            _kernel_cache.popitem(last=False)
            _cache_evictions += 1
    return kernel


def _names(names) -> str:
    """A list literal of column names, sorted for sets."""
    if isinstance(names, (set, frozenset)):
        names = sorted(names)
    return "[" + ", ".join(repr(name) for name in names) + "]"


def _emit_stages(lines: list[str], pipeline: Pipeline) -> None:
    """Emit the relational primitives of the pipeline, in order: one
    statement each, carrying every constant the context needs."""
    for index, stage in enumerate(pipeline.stages):
        if isinstance(stage, FilterStage):
            # One filter_stage call per selection: the context decides at
            # RUNTIME whether to load + evaluate (classic) or to scan the
            # compressed wire image per conjunct (compression="lazy") —
            # generated source must stay identical either way so the
            # process-wide kernel cache stays policy-agnostic.
            lines.append(f"# select (stage {index})")
            lines.append(
                f"mask = ctx.filter_stage(mask, {index}, "
                f"lambda scope: {to_source(stage.predicate)}, "
                f"cost={stage.predicate.size()}, "
                f"columns={_names(stage.predicate.columns())})"
            )
        elif isinstance(stage, MapStage):
            lines.append(f"# map {stage.name} (stage {index})")
            lines.append(
                f"ctx.map_stage({stage.name!r}, {to_source(stage.expr)}, "
                f"{stage.expr.size()}, {_names(stage.expr.columns())})"
            )
        elif isinstance(stage, ProbeStage):
            lines.append(f"# join probe {stage.table_id} (stage {index})")
            key_columns: set[str] = set()
            for key in stage.probe_keys:
                key_columns |= key.columns()
            keys = ", ".join(to_source(key) for key in stage.probe_keys)
            key_cost = sum(key.size() for key in stage.probe_keys)
            defaults = ", ".join(
                f"{name!r}: {literal_source(stage.payload_defaults[name])}"
                for name in stage.payload
                if stage.payload_defaults.get(name) is not None
            )
            lines.append(
                f"mask = ctx.probe_stage(mask, {index}, {stage.table_id!r}, [{keys}], "
                f"{_names(key_columns)}, {key_cost}, {stage.kind!r}, "
                f"{_names(stage.payload)}"
                + (f", defaults={{{defaults}}})" if defaults else ")")
            )
            if stage.residual is not None:
                lines.append(
                    f"mask = ctx.apply_filter(mask, {to_source(stage.residual)}, "
                    f"cost={stage.residual.size()}, "
                    f"columns={_names(stage.residual.columns())})"
                )
        else:  # pragma: no cover - exhaustive over stage types
            raise CompilationError(f"unknown stage {type(stage).__name__}")


def sink_input_columns(sink) -> set[str]:
    columns: set[str] = set()
    if isinstance(sink, MaterializeSink):
        columns.update(sink.outputs)
    elif isinstance(sink, BuildSink):
        for key in sink.keys:
            columns |= key.columns()
        columns.update(sink.payload)
    elif isinstance(sink, AggregateSink):
        for _, expr in sink.group_keys:
            columns |= expr.columns()
        for spec in sink.aggregates:
            if spec.expr is not None:
                columns |= spec.expr.columns()
    return columns


def _emit_compound_sink(lines: list[str], pipeline: Pipeline) -> None:
    sink = pipeline.sink
    if isinstance(sink, MaterializeSink):
        lines.append("# prefix sum (local resolution, global propagation)")
        lines.append("positions = ctx.positions(mask)")
        lines.append("# project / aligned write")
        lines.append(
            f"ctx.touch({_names(sink_input_columns(sink))}, count=positions.total)"
        )
        for name in sink.outputs:
            lines.append(f"ctx.store({name!r}, scope[{name!r}], mask, positions)")
    elif isinstance(sink, BuildSink):
        lines.append("# pipelined hash-table build (atomic CAS inserts)")
        keys = ", ".join(to_source(key) for key in sink.keys)
        lines.append(f"ctx.sink_build(mask, [{keys}], {_names(sink_input_columns(sink))})")
    elif isinstance(sink, AggregateSink):
        lines.append("# pipelined aggregation")
        lines.append(f"ctx.sink_aggregate(mask, {_names(sink_input_columns(sink))})")
    else:  # pragma: no cover
        raise CompilationError(f"unknown sink {type(sink).__name__}")


def generate_compound_kernel(pipeline: Pipeline, log: Profile | None = None) -> CompiledKernel:
    """One kernel for the whole fusion operator (Section 5.2)."""
    return _kernel(pipeline, "compound", _compound_lines, log)


def _compound_lines(pipeline: Pipeline) -> list[str]:
    lines = [
        f"# compound kernel for {pipeline.describe()}",
        "scope = ctx.scope",
        "mask = ctx.full_mask()",
    ]
    _emit_stages(lines, pipeline)
    _emit_compound_sink(lines, pipeline)
    return lines


def generate_count_kernel(pipeline: Pipeline, log: Profile | None = None) -> CompiledKernel:
    """Multi-pass phase 1's kernel: the pipeline's one multi-pass
    kernel, which a count context (no sink) runs to its flag write."""
    return _kernel(pipeline, "multipass", _multipass_lines, log)


def generate_write_kernel(pipeline: Pipeline, log: Profile | None = None) -> CompiledKernel:
    """Multi-pass phase 3's kernel: the same object as phase 1's, which
    a write context runs over the flagged threads to its aligned writes
    (or the materialized sink inputs)."""
    return _kernel(pipeline, "multipass", _multipass_lines, log)


def _multipass_lines(pipeline: Pipeline) -> list[str]:
    lines = [
        f"# multi-pass kernel for {pipeline.describe()}",
        "scope = ctx.scope",
        "# count: every thread; write: the threads the count flagged",
        "mask = ctx.full_mask() if ctx.sink is None else ctx.initial_mask()",
    ]
    _emit_stages(lines, pipeline)
    lines.append("if ctx.sink is None:")
    lines.append("    # write selection flags for the prefix sum")
    lines.append("    return ctx.finish_count(mask)")
    sink = pipeline.sink
    if isinstance(sink, MaterializeSink):
        lines.append("positions = ctx.installed_positions()")
        lines.append(
            f"ctx.touch({_names(sink_input_columns(sink))}, count=positions.total)"
        )
        for name in sink.outputs:
            lines.append(f"ctx.store({name!r}, scope[{name!r}], mask, positions)")
    elif isinstance(sink, BuildSink):
        keys = ", ".join(to_source(key) for key in sink.keys)
        lines.append(
            f"ctx.materialize_for_build(mask, [{keys}], {_names(sink_input_columns(sink))})"
        )
    elif isinstance(sink, AggregateSink):
        lines.append(
            f"ctx.materialize_for_aggregate(mask, {_names(sink_input_columns(sink))})"
        )
    else:  # pragma: no cover
        raise CompilationError(f"unknown sink {type(sink).__name__}")
    return lines
