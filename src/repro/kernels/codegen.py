"""Kernel source generation for fusion operators.

This is HorseQC's code generator (Sections 4.3 and 5.2), retargeted
from OpenCL to vectorized Python: relational primitives are instanced
into a code frame at designated positions.  Three kernel shapes exist:

* ``count``    — all cardinality-affecting primitives, ending by
  writing the selection flags (multi-pass phase 1, Figure 8 left);
* ``write``    — re-executes the primitives for flagged threads and
  performs the aligned writes (multi-pass phase 3, Figure 8 right);
* ``compound`` — everything in one kernel with the prefix sum inlined
  between the cardinality part and the write part (Figure 12).

Generated source is kept on the :class:`CompiledKernel` for inspection
(compare the paper's Appendix E listing).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import CompilationError
from ..expressions.codegen import to_source
from ..telemetry.trace import active_tracer
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
    kind: str  # "count", "write", or "compound"
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
#: Per-thread hit/miss deltas: a query executes on one worker thread,
#: so the serving layer can meter compile reuse per query.
_thread_stats = threading.local()


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


def begin_thread_compile_stats() -> None:
    """Zero the calling thread's compile counters (one query starts)."""
    _thread_stats.hits = 0
    _thread_stats.misses = 0
    _thread_stats.compile_ms = 0.0


def thread_compile_stats() -> tuple[int, int, float]:
    """The calling thread's ``(hits, misses, compile_wall_ms)`` since
    the last :func:`begin_thread_compile_stats`."""
    return (
        getattr(_thread_stats, "hits", 0),
        getattr(_thread_stats, "misses", 0),
        getattr(_thread_stats, "compile_ms", 0.0),
    )


def _record_probe(hit: bool) -> None:
    global _cache_hits, _cache_misses
    if hit:
        _cache_hits += 1
        _thread_stats.hits = getattr(_thread_stats, "hits", 0) + 1
    else:
        _cache_misses += 1
        _thread_stats.misses = getattr(_thread_stats, "misses", 0) + 1


def _kernel(pipeline: Pipeline, kind: str, emit) -> CompiledKernel:
    """The ``kind`` kernel of ``pipeline``: the one this pipeline object
    resolved since the cache was last cleared, else ``emit(pipeline)``'s
    lines through the source-keyed cache."""
    epoch = _cache_epoch  # read before compiling: a clear meanwhile wins
    known = pipeline.kernels.get(kind)
    if known is None or known[0] != epoch:
        kernel = _compile(f"{kind}_{pipeline.name}", kind, emit(pipeline))
        pipeline.kernels[kind] = (epoch, kernel)
        return kernel
    kernel = known[1]
    with _cache_lock:
        _record_probe(True)
        if kernel.source in _kernel_cache:
            _kernel_cache.move_to_end(kernel.source)
    active_tracer().event(
        f"compile {kernel.name}", "compile", cache_hit=True, kind=kind
    )
    return kernel


def _compile(name: str, kind: str, lines: list[str]) -> CompiledKernel:
    global _cache_evictions
    source = "\n".join([f"def {name}(ctx):"] + [f"    {line}" for line in lines]) + "\n"
    tracer = active_tracer()
    with _cache_lock:
        cached = _kernel_cache.get(source)
        _record_probe(cached is not None)
        if cached is not None:
            _kernel_cache.move_to_end(source)
            tracer.event(f"compile {name}", "compile", cache_hit=True, kind=kind)
            return cached
    started = time.perf_counter()
    namespace: dict = {}
    try:
        exec(compile(source, filename=f"<generated {name}>", mode="exec"), namespace)
    except SyntaxError as error:  # pragma: no cover - codegen bug guard
        raise CompilationError(f"generated kernel failed to compile: {error}\n{source}")
    kernel = CompiledKernel(name=name, kind=kind, source=source, entry=namespace[name])
    compile_ms = (time.perf_counter() - started) * 1e3
    tracer.event(
        f"compile {name}", "compile", cache_hit=False, kind=kind, compile_ms=compile_ms
    )
    _thread_stats.compile_ms = (
        getattr(_thread_stats, "compile_ms", 0.0) + compile_ms
    )
    with _cache_lock:
        _kernel_cache[source] = kernel
        while len(_kernel_cache) > KERNEL_CACHE_CAPACITY:
            _kernel_cache.popitem(last=False)
            _cache_evictions += 1
    return kernel


def _touch_line(expr_columns: set[str], count: str | None = None) -> str:
    columns = ", ".join(repr(column) for column in sorted(expr_columns))
    if count is None:
        return f"ctx.touch([{columns}])"
    return f"ctx.touch([{columns}], count={count})"


def _emit_stages(lines: list[str], pipeline: Pipeline) -> None:
    """Emit the relational primitives of the pipeline, in order."""
    for index, stage in enumerate(pipeline.stages):
        if isinstance(stage, FilterStage):
            # One filter_stage call per selection: the context decides at
            # RUNTIME whether to load + evaluate (classic) or to scan the
            # compressed wire image per conjunct (compression="lazy") —
            # generated source must stay identical either way so the
            # process-wide kernel cache stays policy-agnostic.
            lines.append(f"# select (stage {index})")
            columns = ", ".join(
                repr(column) for column in sorted(stage.predicate.columns())
            )
            lines.append(
                f"mask = ctx.filter_stage(mask, {index}, "
                f"lambda scope: {to_source(stage.predicate)}, "
                f"cost={stage.predicate.size()}, columns=[{columns}])"
            )
        elif isinstance(stage, MapStage):
            lines.append(f"# map {stage.name} (stage {index})")
            lines.append(_touch_line(stage.expr.columns()))
            lines.append(f"scope[{stage.name!r}] = {to_source(stage.expr)}")
            lines.append(f"ctx.compute({stage.expr.size()})")
            lines.append(f"ctx.mark_loaded([{stage.name!r}])")
        elif isinstance(stage, ProbeStage):
            lines.append(f"# join probe {stage.table_id} (stage {index})")
            key_columns: set[str] = set()
            for key in stage.probe_keys:
                key_columns |= key.columns()
            lines.append(_touch_line(key_columns))
            keys = ", ".join(to_source(key) for key in stage.probe_keys)
            key_cost = sum(key.size() for key in stage.probe_keys)
            lines.append(
                f"rows_{index} = ctx.probe({stage.table_id!r}, [{keys}], mask, "
                f"key_cost={key_cost})"
            )
            lines.append(
                f"mask = ctx.apply_probe(mask, rows_{index}, kind={stage.kind!r})"
            )
            for name in stage.payload:
                default = stage.payload_defaults.get(name)
                if default is None:
                    lines.append(
                        f"scope[{name!r}] = ctx.payload({stage.table_id!r}, "
                        f"rows_{index}, {name!r})"
                    )
                else:
                    lines.append(
                        f"scope[{name!r}] = ctx.payload({stage.table_id!r}, "
                        f"rows_{index}, {name!r}, default={default!r})"
                    )
            if stage.payload:
                payloads = ", ".join(repr(name) for name in stage.payload)
                lines.append(f"ctx.mark_loaded([{payloads}])")
            if stage.residual is not None:
                lines.append(_touch_line(stage.residual.columns()))
                lines.append(f"residual_{index} = {to_source(stage.residual)}")
                lines.append(
                    f"mask = ctx.apply_filter(mask, residual_{index}, "
                    f"cost={stage.residual.size()})"
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
        lines.append(_touch_line(sink_input_columns(sink), count="positions.total"))
        for name in sink.outputs:
            lines.append(f"ctx.store({name!r}, scope[{name!r}], mask, positions)")
    elif isinstance(sink, BuildSink):
        lines.append("# pipelined hash-table build (atomic CAS inserts)")
        lines.append(_touch_line(sink_input_columns(sink)))
        keys = ", ".join(to_source(key) for key in sink.keys)
        lines.append(f"ctx.sink_build(mask, [{keys}])")
    elif isinstance(sink, AggregateSink):
        lines.append("# pipelined aggregation")
        lines.append(_touch_line(sink_input_columns(sink)))
        lines.append("ctx.sink_aggregate(mask)")
    else:  # pragma: no cover
        raise CompilationError(f"unknown sink {type(sink).__name__}")


def generate_compound_kernel(pipeline: Pipeline) -> CompiledKernel:
    """One kernel for the whole fusion operator (Section 5.2)."""
    return _kernel(pipeline, "compound", _compound_lines)


def _compound_lines(pipeline: Pipeline) -> list[str]:
    lines = [
        f"# compound kernel for {pipeline.describe()}",
        "np = ctx.np",
        "scope = ctx.scope",
        "mask = ctx.full_mask()",
    ]
    _emit_stages(lines, pipeline)
    _emit_compound_sink(lines, pipeline)
    return lines


def generate_count_kernel(pipeline: Pipeline) -> CompiledKernel:
    """Multi-pass phase 1: cardinality primitives + flag write."""
    return _kernel(pipeline, "count", _count_lines)


def _count_lines(pipeline: Pipeline) -> list[str]:
    lines = [
        f"# count kernel for {pipeline.describe()}",
        "np = ctx.np",
        "scope = ctx.scope",
        "mask = ctx.full_mask()",
    ]
    _emit_stages(lines, pipeline)
    lines.append("# write selection flags for the prefix sum")
    lines.append("ctx.finish_count(mask)")
    return lines


def generate_write_kernel(pipeline: Pipeline) -> CompiledKernel:
    """Multi-pass phase 3: re-execute primitives for flagged threads,
    then perform the aligned writes (or materialize sink inputs)."""
    return _kernel(pipeline, "write", _write_lines)


def _write_lines(pipeline: Pipeline) -> list[str]:
    lines = [
        f"# write kernel for {pipeline.describe()}",
        "np = ctx.np",
        "scope = ctx.scope",
        "mask = ctx.initial_mask()",
    ]
    _emit_stages(lines, pipeline)
    sink = pipeline.sink
    if isinstance(sink, MaterializeSink):
        lines.append("positions = ctx.installed_positions()")
        lines.append(_touch_line(sink_input_columns(sink), count="positions.total"))
        for name in sink.outputs:
            lines.append(f"ctx.store({name!r}, scope[{name!r}], mask, positions)")
    elif isinstance(sink, BuildSink):
        lines.append(_touch_line(sink_input_columns(sink)))
        keys = ", ".join(to_source(key) for key in sink.keys)
        lines.append(f"ctx.materialize_for_build(mask, [{keys}])")
    elif isinstance(sink, AggregateSink):
        lines.append(_touch_line(sink_input_columns(sink)))
        lines.append("ctx.materialize_for_aggregate(mask)")
    else:  # pragma: no cover
        raise CompilationError(f"unknown sink {type(sink).__name__}")
    return lines
