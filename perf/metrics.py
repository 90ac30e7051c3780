"""The metric registry: every name the harness prints, with unit and clock.

Two clocks (see ``perf/README.md``):

* ``host`` — measured on this machine during this run (wall-clock time,
  cache hit rates, resident memory); varies run to run.
* ``sim``  — derived from the simulator's own accounting (modeled
  milliseconds, bytes per memory level, launches); repeats exactly for
  one seed, so two commits compare exactly.

``BENCHMARK.json`` carries the names, units, directions and bounds the
driver checks; this module adds what that file has no key for (clock,
layer, definition) and ``test_perf.py`` keeps the two in step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ENGINES = ("resolution", "multipass", "operator-at-a-time")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str  # "host" or "sim"
    better: str  # "higher" or "lower"
    what: str
    #: End-to-end only: relative worsening that counts as a regression.
    bound: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _e2e(name, unit, clock, better, bound, what):
    return Metric(name, unit, clock, better, what, bound)


#: Host times are divided by the machine factor of their own time window
#: (``perf.harness.Machine``): this 2-core box drifts by up to ~25% for
#: minutes at a time, and an interleaved calibration kernel tracks it.
#: Bounds are set from measured spreads, not wishes (perf/README.md,
#: "Noise"): the driver's runs each use another seed, which alone moves
#: the pooled latency percentiles by several percent, so the host
#: metrics get the widest bound the contract allows.  ``sim_ms_total``
#: repeats exactly for one seed; its bound covers the seed-to-seed
#: spread of the generated data (0.7% on link-bound workloads, 4% on
#: the warm, kernel-bound serving workload).
END_TO_END = (
    _e2e("setup_s", "s", "host", "lower", 0.25,
         "database generation + reference build + session/server open + "
         "warm-up pass; median of the set-ups in one run, at reference machine speed"),
    _e2e("host_queries_per_s", "1/s", "host", "higher", 0.25,
         "items per round / median round wall, at reference machine speed"),
    _e2e("host_query_ms_p50", "ms", "host", "lower", 0.25,
         "median per-item latency, all timed samples pooled, at reference machine speed"),
    _e2e("host_query_ms_p90", "ms", "host", "lower", 0.25,
         "90th percentile of the same samples (>= 200 samples; p95 rode on the "
         "threaded workloads' tail and spread by up to 36% between runs)"),
    _e2e("sim_ms_total", "ms", "sim", "lower", 0.15,
         "sum over the warm accounting pass of ExecutionResult.total_ms "
         "(scaleout.makespan_ms for scale-out results)"),
    _e2e("peak_rss_mb", "MB", "host", "lower", 0.25,
         "ru_maxrss of the workload's process"),
)


def _m(name, unit, clock, better, what):
    return Metric(name, unit, clock, better, what)


def _host_ms(name, what):
    return _m(name, "ms", "host", "lower", f"self time per round: {what}")


PER_LAYER = (
    # sql / plan -------------------------------------------------------
    _host_ms("sql.plan_sql_ms", "plan_sql (lex, parse, translate)"),
    _m("sql.plan_sql_calls", "count", "host", "lower", "plan_sql calls per round"),
    _host_ms("plan.extract_pipelines_ms", "extract_pipelines"),
    _m("plan.pipelines", "count", "host", "lower", "pipelines extracted per round"),
    # kernels ----------------------------------------------------------
    _host_ms("kernels.codegen_ms", "generate_compound|count|write_kernel (incl. compile on a miss)"),
    _m("kernels.compile_misses", "count", "host", "lower", "kernel-cache misses per round"),
    _m("kernels.compile_hit_rate", "share", "host", "higher", "kernel-cache hits / lookups over the traced rounds"),
    _host_ms("kernels.body_ms", "generated kernel entry (inline numpy expression work)"),
    _host_ms("kernels.ctx_filter_ms", "KernelContext.filter_stage|apply_filter"),
    _host_ms("kernels.ctx_probe_ms", "KernelContext.probe|apply_probe"),
    _host_ms("kernels.ctx_payload_ms", "KernelContext.payload"),
    _host_ms("kernels.ctx_positions_ms", "KernelContext.positions"),
    _host_ms("kernels.ctx_sink_ms", "KernelContext.sink_aggregate|sink_build|store|materialize_*"),
    _host_ms("kernels.ctx_touch_ms", "KernelContext.touch|compute|mark_loaded (pure accounting)"),
    # engines ----------------------------------------------------------
    _host_ms("engines.execute_ms", "Engine.execute"),
    _host_ms("engines.execute_pipeline_ms", "<Engine>.execute_pipeline"),
    _host_ms("engines.load_source_ms", "QueryRuntime.load_source"),
    _host_ms("engines.aggregate_rows_ms", "QueryRuntime.aggregate_rows"),
    _host_ms("engines.finalize_ms", "QueryRuntime.finalize"),
    *(
        _m(f"engines.host_ms.{engine}", "ms", "host", "lower",
           f"item wall per round of the items pinned to {engine}")
        for engine in ENGINES
    ),
    *(
        _m(f"engines.sim_ms.{engine}", "ms", "sim", "lower",
           f"simulated ms per pass of the items pinned to {engine}")
        for engine in ENGINES
    ),
    # primitives -------------------------------------------------------
    _host_ms("primitives.hash_build_ms", "JoinHashTable.build|build_pipelined"),
    _host_ms("primitives.hash_probe_ms", "JoinHashTable.probe"),
    _m("primitives.hash_probe_calls", "count", "host", "lower", "JoinHashTable.probe calls per round"),
    _m("primitives.hash_probe_keys", "count", "host", "lower", "probe-side rows per round"),
    _host_ms("primitives.hash_key_columns_ms", "hash_key_columns"),
    _host_ms("primitives.prefix_ms", "lrgp_positions|atomic_positions|device_scan"),
    _host_ms("primitives.grouped_reduce_ms", "factorize|grouped_reduce|*_hash_aggregate"),
    _host_ms("primitives.sort_ms", "device_radix_sort|device_segmented_reduce"),
    # hardware, host clock ---------------------------------------------
    _host_ms("hardware.launch_ms", "VirtualCoprocessor.launch"),
    _m("hardware.launches", "count", "host", "lower", "VirtualCoprocessor.launch calls per round"),
    _host_ms("hardware.transfer_ms", "transfer_to_device|transfer_to_host|record_stream_transfer"),
    _host_ms("hardware.costmodel_ms", "KernelCostModel.breakdown"),
    _host_ms("hardware.alloc_ms", "VirtualCoprocessor.allocate|allocate_empty|free|release_transient"),
    # hardware, simulated clock (per warm accounting pass) -------------
    _m("hardware.sim_h2d_ms", "ms", "sim", "lower", "modeled host->device link time"),
    _m("hardware.sim_d2h_ms", "ms", "sim", "lower", "modeled device->host link time"),
    _m("hardware.sim_kernel_ms", "ms", "sim", "lower", "modeled kernel time"),
    _m("hardware.sim_launch_overhead_ms", "ms", "sim", "lower", "kernel launches x per-launch overhead (inside sim_kernel_ms)"),
    _m("hardware.sim_first_pass_ms", "ms", "sim", "lower", "lower bound: input+output streamed through global memory once"),
    _m("hardware.h2d_bytes", "bytes", "sim", "lower", "bytes crossing the link host->device"),
    _m("hardware.d2h_bytes", "bytes", "sim", "lower", "bytes crossing the link device->host"),
    _m("hardware.global_bytes", "bytes", "sim", "lower", "device global-memory traffic"),
    _m("hardware.onchip_bytes", "bytes", "sim", "lower", "on-chip memory traffic"),
    _m("hardware.atomics", "count", "sim", "lower", "atomic operations"),
    _m("hardware.kernel_launches", "count", "sim", "lower", "simulated kernel launches"),
    _m("hardware.peak_alloc_bytes", "bytes", "sim", "lower", "largest per-query device allocation peak (single-device Session items only)"),
    # compression ------------------------------------------------------
    _host_ms("compression.choose_ms", "CompressionPolicy.choose"),
    _host_ms("compression.encode_ms", "CompressionPolicy.encoded|encode_slice|encode_array"),
    _host_ms("compression.decode_ms", "host-side codecs.decode"),
    _host_ms("compression.lazy_scan_ms", "plan_scan, QueryRuntime.record_scan|lazy_gather"),
    _m("compression.columns_encoded", "count", "sim", "higher", "transfers shipped in a non-passthrough codec"),
    _m("compression.wire_ratio", "ratio", "sim", "higher", "raw bytes / wire bytes over all link transfers"),
    _m("compression.decode_kernel_sim_ms", "ms", "sim", "lower", "modeled decode-kernel time"),
    _m("compression.sim_ms_vs_off", "ratio", "sim", "lower", "sim_ms_total / the same queries with compression off (<= 1 for a safe policy)"),
    # placement --------------------------------------------------------
    _host_ms("placement.acquire_ms", "BufferPool.acquire"),
    _m("placement.hit_rate", "share", "sim", "higher", "base-column loads served from device-resident buffers"),
    _m("placement.pcie_saved_bytes", "bytes", "sim", "higher", "link bytes the residency hits avoided"),
    _m("placement.evictions", "count", "sim", "lower", "pool evictions during the warm accounting pass"),
    _m("placement.out_of_core_queries", "count", "sim", "lower", "queries that ran on the streaming out-of-core path"),
    _m("placement.resident_bytes", "bytes", "sim", "lower", "pool-resident bytes after the warm accounting pass"),
    # macro ------------------------------------------------------------
    _host_ms("macro.batch_execute_ms", "BatchExecutor.execute"),
    _m("macro.blocks", "count", "sim", "lower", "streamed blocks per round"),
    _m("macro.sim_stream_ms", "ms", "sim", "lower", "modeled streaming-phase time per round"),
    # scaleout ---------------------------------------------------------
    _host_ms("scaleout.partition_ms", "build_partitions"),
    _host_ms("scaleout.assign_ms", "assign_pieces"),
    _host_ms("scaleout.execute_ms", "ScaleOutExecutor.execute (scatter + waiting for device threads)"),
    _host_ms("scaleout.merge_ms", "merge_partials"),
    _m("scaleout.morsels", "count", "sim", "lower", "morsels executed"),
    _m("scaleout.sim_makespan_ms", "ms", "sim", "lower", "sum of per-query fleet makespans"),
    _m("scaleout.sim_serial_ms", "ms", "sim", "lower", "sum of all device busy time"),
    _m("scaleout.imbalance", "ratio", "sim", "lower", "mean makespan / mean device busy time"),
    _m("scaleout.speedup_vs_1dev", "ratio", "sim", "higher", "one-device sim ms / fleet makespan, same queries"),
    _m("scaleout.host_slowdown_vs_1dev", "ratio", "host", "lower", "fleet host ms / one-device host ms, same queries"),
    # optimizer --------------------------------------------------------
    _host_ms("optimizer.advise_ms", "Advisor.advise"),
    _host_ms("optimizer.estimate_ms", "CostEstimator.estimate"),
    _host_ms("optimizer.stats_ms", "StatisticsCatalog.table_stats"),
    _m("optimizer.candidates", "count", "sim", "lower", "mean feasible candidates ranked per query"),
    _m("optimizer.fallbacks", "count", "sim", "lower", "out-of-memory safety-net fallbacks"),
    _m("optimizer.regret_geomean", "ratio", "sim", "lower", "auto sim ms / best pinned engine under the same residency, compression and warmth"),
    _m("optimizer.time_error_median", "share", "sim", "lower", "median |predicted - observed| / observed sim ms"),
    _m("optimizer.bytes_error_median", "share", "sim", "lower", "median relative link-byte prediction error"),
    # serving ----------------------------------------------------------
    _host_ms("serving.plan_cache_lookup_ms", "PlanCache.lookup"),
    _m("serving.plan_cache_hit_rate", "share", "host", "higher", "timed queries whose plan came from the cache"),
    _m("serving.queue_wait_ms_p50", "ms", "host", "lower", "median admission-queue wait"),
    _m("serving.queue_wait_ms_p95", "ms", "host", "lower", "95th percentile admission-queue wait"),
    _m("serving.worker_busy_share", "share", "host", "higher", "sum of execute_ms / (workers x timed wall)"),
    _m("serving.lifecycle_ms", "ms", "host", "lower", "median client latency - queue wait - execute_ms"),
    # telemetry --------------------------------------------------------
    _m("telemetry.enabled_overhead_share", "share", "host", "lower", "round wall with tracing + event log + flight recorder / plain round - 1"),
    _m("telemetry.spans_per_query", "count", "host", "lower", "repro.telemetry spans per query when enabled"),
    # workloads / storage ----------------------------------------------
    _m("workloads.generate_s", "s", "host", "lower", "database generation time (inside setup_s)"),
    _m("storage.database_bytes", "bytes", "sim", "lower", "host-resident database size"),
    # harness ----------------------------------------------------------
    _m("harness.samples", "count", "host", "higher", "latency samples in the untraced rounds of this run"),
    _m("harness.trace_overhead_share", "share", "host", "lower", "traced / untraced median round wall - 1"),
    _m("harness.unattributed_ms", "ms", "host", "lower", "item wall per round outside every wrapped function"),
    _m("harness.calibration_ms", "ms", "host", "lower", "median of the fixed calibration kernel run between rounds: if it moves the machine changed, not the code"),
)

BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """Percentile that refuses to extrapolate: at least ``min_beyond``
    samples must lie beyond the reported point (p95 needs 200 samples,
    p50 needs 20).  Neighbouring ranks are interpolated linearly, so a
    percentile that falls between two clusters of items reads the
    middle of the gap instead of jumping from one edge to the other."""
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0 or count * (1.0 - q) + 1e-9 < min_beyond:
        raise ValueError(
            f"p{q * 100:g} needs {math.ceil(min_beyond / (1.0 - q))} "
            f"samples, got {count}"
        )
    position = q * (count - 1)
    below = math.floor(position)
    above = min(below + 1, count - 1)
    return ordered[below] + (position - below) * (ordered[above] - ordered[below])


def benchmark_manifest(workloads) -> dict:
    """The content of ``BENCHMARK.json`` (``workloads`` are
    ``(name, why)`` pairs)."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": 10,
        "workloads": [{"name": name, "why": why} for name, why in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
