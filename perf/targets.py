"""Which functions a traced run wraps, and the metric each feeds.

One row per public function at a module boundary of ``src/repro``:
``(metric, module, class or None, attribute)``.  The span's layer is
the metric's prefix (a ``src/repro`` package name); its self time sums
into ``<metric>_ms``.  Spans inside ``src/repro`` itself are a later
issue — everything here is installed from the outside by
:func:`install`.
"""

from __future__ import annotations

import importlib

from perf.spans import SpanTracer

TARGETS = (
    # sql / plan
    ("sql.plan_sql", "repro.sql.translate", None, "plan_sql"),
    ("plan.extract_pipelines", "repro.plan.pipelines", None, "extract_pipelines"),
    # kernels
    ("kernels.codegen", "repro.kernels.codegen", None, "generate_compound_kernel"),
    ("kernels.codegen", "repro.kernels.codegen", None, "generate_count_kernel"),
    ("kernels.codegen", "repro.kernels.codegen", None, "generate_write_kernel"),
    ("kernels.body", "repro.kernels.codegen", "CompiledKernel", "__call__"),
    ("kernels.ctx_filter", "repro.kernels.context", "KernelContext", "filter_stage"),
    ("kernels.ctx_filter", "repro.kernels.context", "KernelContext", "apply_filter"),
    ("kernels.ctx_probe", "repro.kernels.context", "KernelContext", "probe"),
    ("kernels.ctx_probe", "repro.kernels.context", "KernelContext", "apply_probe"),
    ("kernels.ctx_payload", "repro.kernels.context", "KernelContext", "payload"),
    ("kernels.ctx_positions", "repro.kernels.context", "KernelContext", "positions"),
    ("kernels.ctx_sink", "repro.kernels.context", "KernelContext", "sink_aggregate"),
    ("kernels.ctx_sink", "repro.kernels.context", "KernelContext", "sink_build"),
    ("kernels.ctx_sink", "repro.kernels.context", "KernelContext", "store"),
    ("kernels.ctx_sink", "repro.kernels.context", "KernelContext", "finish_count"),
    ("kernels.ctx_sink", "repro.kernels.context", "KernelContext", "materialize_for_aggregate"),
    ("kernels.ctx_sink", "repro.kernels.context", "KernelContext", "materialize_for_build"),
    ("kernels.ctx_touch", "repro.kernels.context", "KernelContext", "touch"),
    ("kernels.ctx_touch", "repro.kernels.context", "KernelContext", "compute"),
    ("kernels.ctx_touch", "repro.kernels.context", "KernelContext", "mark_loaded"),
    # engines
    ("engines.execute", "repro.engines.base", "Engine", "execute"),
    ("engines.execute_pipeline", "repro.engines.base", "Engine", "execute_pipeline"),
    ("engines.load_source", "repro.engines.runtime", "QueryRuntime", "load_source"),
    ("engines.aggregate_rows", "repro.engines.runtime", "QueryRuntime", "aggregate_rows"),
    ("engines.finalize", "repro.engines.runtime", "QueryRuntime", "finalize"),
    # primitives
    ("primitives.hash_build", "repro.primitives.hashtable", "JoinHashTable", "build"),
    ("primitives.hash_build", "repro.primitives.hashtable", "JoinHashTable", "build_pipelined"),
    ("primitives.hash_probe", "repro.primitives.hashtable", "JoinHashTable", "probe"),
    ("primitives.hash_key_columns", "repro.primitives.hashtable", None, "hash_key_columns"),
    ("primitives.prefix", "repro.primitives.prefix", None, "lrgp_positions"),
    ("primitives.prefix", "repro.primitives.prefix", None, "atomic_positions"),
    ("primitives.prefix", "repro.primitives.prefix", None, "device_scan"),
    ("primitives.grouped_reduce", "repro.primitives.segmented", None, "factorize"),
    ("primitives.grouped_reduce", "repro.primitives.segmented", None, "grouped_reduce"),
    ("primitives.grouped_reduce", "repro.primitives.segmented", None, "atomic_hash_aggregate"),
    ("primitives.grouped_reduce", "repro.primitives.segmented", None, "segmented_hash_aggregate"),
    ("primitives.sort", "repro.primitives.sortlib", None, "device_radix_sort"),
    ("primitives.sort", "repro.primitives.sortlib", None, "device_segmented_reduce"),
    # hardware
    ("hardware.launch", "repro.hardware.device", "VirtualCoprocessor", "launch"),
    ("hardware.transfer", "repro.hardware.device", "VirtualCoprocessor", "transfer_to_device"),
    ("hardware.transfer", "repro.hardware.device", "VirtualCoprocessor", "transfer_to_host"),
    ("hardware.transfer", "repro.hardware.device", "VirtualCoprocessor", "record_stream_transfer"),
    ("hardware.costmodel", "repro.hardware.costmodel", "KernelCostModel", "breakdown"),
    ("hardware.alloc", "repro.hardware.device", "VirtualCoprocessor", "allocate"),
    ("hardware.alloc", "repro.hardware.device", "VirtualCoprocessor", "allocate_empty"),
    ("hardware.alloc", "repro.hardware.device", "VirtualCoprocessor", "free"),
    ("hardware.alloc", "repro.hardware.device", "VirtualCoprocessor", "release_transient"),
    # compression
    ("compression.choose", "repro.compression.policy", "CompressionPolicy", "choose"),
    ("compression.encode", "repro.compression.policy", "CompressionPolicy", "encoded"),
    ("compression.encode", "repro.compression.policy", "CompressionPolicy", "encode_slice"),
    ("compression.encode", "repro.compression.policy", "CompressionPolicy", "encode_array"),
    ("compression.decode", "repro.compression.codecs", None, "decode"),
    ("compression.lazy_scan", "repro.compression.lazy", None, "plan_scan"),
    ("compression.lazy_scan", "repro.engines.runtime", "QueryRuntime", "record_scan"),
    ("compression.lazy_scan", "repro.engines.runtime", "QueryRuntime", "lazy_gather"),
    # placement / macro / scaleout
    ("placement.acquire", "repro.placement.pool", "BufferPool", "acquire"),
    ("macro.batch_execute", "repro.macro.batch", "BatchExecutor", "execute"),
    ("scaleout.partition", "repro.scaleout.partition", None, "build_partitions"),
    ("scaleout.assign", "repro.scaleout.scheduler", None, "assign_pieces"),
    ("scaleout.execute", "repro.scaleout.executor", "ScaleOutExecutor", "execute"),
    ("scaleout.merge", "repro.scaleout.merge", None, "merge_partials"),
    # optimizer / serving
    ("optimizer.advise", "repro.optimizer.advisor", "Advisor", "advise"),
    ("optimizer.estimate", "repro.optimizer.cost", "CostEstimator", "estimate"),
    ("optimizer.stats", "repro.optimizer.stats", "StatisticsCatalog", "table_stats"),
    ("serving.plan_cache_lookup", "repro.serving.plan_cache", "PlanCache", "lookup"),
)


def _count_pipelines(counts, args, kwargs, result):
    counts["plan.pipelines"] += len(result.pipelines)


def _count_probe_keys(counts, args, kwargs, result):
    # JoinHashTable.probe(self, meter, probe_arrays, ...)
    arrays = kwargs["probe_arrays"] if "probe_arrays" in kwargs else args[2]
    counts["primitives.hash_probe_keys"] += len(arrays[0])


def _count_blocks(counts, args, kwargs, result):
    counts["macro.blocks"] += result.num_blocks
    counts["macro.sim_stream_ms"] += result.stream_ms


#: Counts recorded where the work happens, keyed by ``(class, attr)``.
COUNTERS = {
    (None, "extract_pipelines"): _count_pipelines,
    ("JoinHashTable", "probe"): _count_probe_keys,
    ("BatchExecutor", "execute"): _count_blocks,
}


def install(tracer: SpanTracer) -> None:
    """Wrap every target; the span name is ``Class.attr`` or ``attr``."""
    for metric, module_name, class_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        layer = metric.split(".", 1)[0]
        count = COUNTERS.get((class_name, attr))
        if class_name is None:
            tracer.patch_function(module, attr, layer, attr, count)
        else:
            tracer.patch_method(
                getattr(module, class_name), attr, layer, f"{class_name}.{attr}", count
            )


#: Metric stems whose call count is a metric of its own.
CALL_COUNTS = {
    "sql.plan_sql": "sql.plan_sql_calls",
    "primitives.hash_probe": "primitives.hash_probe_calls",
    "hardware.launch": "hardware.launches",
}

#: Span name -> metric stem, for summing self time into ``<stem>_ms``.
METRIC_OF = {
    (attr if class_name is None else f"{class_name}.{attr}"): metric
    for metric, _module, class_name, attr in TARGETS
}
