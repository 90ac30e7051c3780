"""EXPLAIN ANALYZE: run a query and render the per-pipeline accounting.

This is the human-readable face of the span tracer: the query executes
with tracing enabled, and the per-pipeline spans (rows in/out, kernels
launched, per-level byte volumes, PCIe bytes, simulated vs host
milliseconds) render as a table via
:func:`repro.analysis.report.format_table`, followed by the
compile/cache, placement, and host post-processing outcomes.

The per-pipeline global-memory bytes are sliced exactly from the
device profile, so the table's GLOBAL column always sums to
``Profile.bytes_at(MemoryLevel.GLOBAL)`` — the paper's Figure 9/13
movement numbers stay auditable from this surface.
"""

from __future__ import annotations

from .trace import tracing

__all__ = ["explain_analyze", "render_explain_analyze"]

_COLUMNS = [
    "pipeline", "shape", "rows in", "rows out", "kernels",
    "global KB", "onchip KB", "PCIe KB", "sim ms", "host ms",
]


def explain_analyze(session, query, engine=None, seed: int = 42) -> str:
    """Execute ``query`` on ``session`` with tracing on and render the
    EXPLAIN ANALYZE report."""
    with tracing():
        result = session.execute(query, engine=engine, seed=seed)
    return render_explain_analyze(result)


def render_explain_analyze(result) -> str:
    """Render an executed (traced) :class:`ExecutionResult`."""
    # Imported lazily: analysis pulls in the engine layer, which itself
    # imports repro.telemetry for the tracing hooks.
    from ..analysis.report import format_table

    trace = result.trace
    if trace is None:
        raise ValueError(
            "EXPLAIN ANALYZE needs a traced execution; run the query "
            "with repro.telemetry.tracing() enabled"
        )
    pipelines = trace.spans("pipeline")
    # An optimizer's pick shows its estimate beside the actual (a
    # fleet's fact morsels, which it prices as one pipeline, show none).
    optimizer = getattr(result, "optimizer", None)
    priced = optimizer.estimate.pipelines if optimizer else []
    if getattr(result, "scaleout", None) is not None:
        priced = priced[:-1]
    estimated = {f"pipeline[{index}]": pipe for index, pipe in enumerate(priced)}
    rows = []
    for index, span in enumerate(pipelines):
        attrs = span.attrs
        estimate = []
        if optimizer is not None:
            pipe, actual = estimated.get(span.name), attrs.get("kernel_ms", 0.0)
            estimate = ["", "", ""] if pipe is None else [
                pipe.result_rows,
                round(pipe.kernel_ms, 4),
                f"{abs(pipe.kernel_ms - actual) / actual:.1%}" if actual else "",
            ]
        rows.append(
            [
                f"[{index}]",
                # A build served from the buffer pool keeps its row: it
                # launched nothing, its table is the rows out.
                attrs.get("shape", span.name)
                + ("  [resident]" if attrs.get("resident") else ""),
                attrs.get("rows_in", 0),
                attrs.get("rows_out", 0),
                attrs.get("kernels", 0),
                round(attrs.get("global_bytes", 0) / 1e3, 1),
                round(attrs.get("onchip_bytes", 0) / 1e3, 1),
                round(attrs.get("pcie_bytes", 0) / 1e3, 1),
                round(attrs.get("sim_ms", 0.0), 4),
                round(span.duration_us / 1e3, 3),
                *estimate,
            ]
        )
    title = (
        f"EXPLAIN ANALYZE  ({result.engine} on {result.device_name}; "
        f"{result.table.num_rows} result rows)"
    )
    # ``est ms`` / ``error`` are the pipeline's kernels, est vs actual.
    columns = _COLUMNS + (["est rows", "est ms", "error"] if optimizer else [])
    parts = [
        format_table(columns, rows, title=title, float_format="{:.4g}"),
        _totals(result, pipelines),
    ]
    footer = _footer_lines(result, trace)
    if footer:
        parts.append("\n".join(footer))
    return "\n\n".join(parts)


def _totals(result, pipelines) -> str:
    from ..hardware.traffic import MemoryLevel

    pipeline_global = sum(span.attrs.get("global_bytes", 0) for span in pipelines)
    total_global = result.profile.bytes_at(MemoryLevel.GLOBAL)
    line = (
        f"totals: global {total_global / 1e3:.1f} KB  "
        f"onchip {result.onchip_bytes / 1e3:.1f} KB  "
        f"pcie in/out {result.input_bytes / 1e3:.1f}/"
        f"{result.output_bytes / 1e3:.1f} KB  "
        f"kernels {len(result.profile.kernels)}  "
        f"simulated {result.total_ms:.4f} ms "
        f"(kernels {result.kernel_ms:.4f} + transfers {result.transfer_ms:.4f})"
    )
    if pipelines and pipeline_global != total_global:
        # Kernels launched outside the pipeline loop would break the
        # reconciliation the docs promise; surface it rather than hide it.
        line += (
            f"\nWARNING: pipeline global bytes ({pipeline_global}) != "
            f"profile global bytes ({total_global})"
        )
    return line


def _footer_lines(result, trace) -> list[str]:
    lines = []
    compiles = trace.spans("compile")
    if compiles:
        hits = sum(1 for span in compiles if span.attrs.get("cache_hit"))
        lines.append(
            f"kernel cache: {hits}/{len(compiles)} hits"
        )
    serving = result.serving
    # None for a bare ``Engine.execute`` result, which
    # ``render_explain_analyze`` also accepts; every Session / Server
    # execution carries its serving stats.
    if serving is not None:
        lines.append(
            f"plan cache: {'hit' if serving.plan_cache_hit else 'miss'}  "
            f"(plan {serving.plan_ms:.3f} ms, compile {serving.compile_ms:.3f} ms "
            f"⊂ execute {serving.execute_ms:.3f} ms)"
        )
    placement = result.placement
    if placement is not None:
        lines.append(
            f"placement: {placement.hits} hits / {placement.misses} misses  "
            f"saved {placement.hit_bytes / 1e3:.1f} KB PCIe  "
            f"resident tables {placement.table_hits}/"
            f"{placement.table_hits + placement.table_misses}"
            + ("  [out-of-core]" if placement.out_of_core else "")
        )
    host_ops = []
    finalize = trace.spans("finalize")
    if finalize:
        host_ops.append(f"finalize {finalize[0].duration_us / 1e3:.3f} ms")
    if host_ops:
        lines.append("host post-processing: " + ", ".join(host_ops))
    compression = result.compression
    if compression is not None:
        lines.append(f"compression: {compression.summary()}")
        for note in compression.scans:
            lines.append(f"  scan {note}")
    optimizer = getattr(result, "optimizer", None)
    if optimizer is not None:
        lines.append("optimizer:")
        lines.extend("  " + line for line in optimizer.render().splitlines())
    return lines
