"""EXPLAIN ANALYZE: run a query and render the per-pipeline accounting.

This is the human-readable face of the query record
(:class:`~repro.hardware.traffic.Profile`): one row per pipeline the
execution ran (rows in/out, kernels launched, per-level byte volumes,
PCIe bytes, simulated vs host milliseconds) and a ``[result]`` row for
``finalize`` — what shipping the result launched and moved; a fused
group of siblings (builds of one wave, a fleet device's morsels) is one
block, its members listed under it —
rendered via :func:`repro.analysis.report.format_table`, followed by the
compile/cache and placement outcomes.  Any
:class:`~repro.engines.base.ExecutionResult` renders, traced or not.

Every row's bytes are sums over the slice of the device log it issued,
so the table's GLOBAL column always sums to
``Profile.bytes_at(MemoryLevel.GLOBAL)`` — the paper's Figure 9/13
movement numbers stay auditable from this surface.
"""

from __future__ import annotations

from ..hardware.traffic import MemoryLevel

__all__ = ["explain_analyze", "render_explain_analyze"]

_COLUMNS = [
    "pipeline", "shape", "rows in", "rows out", "kernels",
    "global KB", "onchip KB", "PCIe KB", "sim ms", "host ms",
]


def explain_analyze(session, query, engine=None, seed: int = 42) -> str:
    """Execute ``query`` on ``session`` and render the EXPLAIN ANALYZE
    report."""
    return render_explain_analyze(session.execute(query, engine=engine, seed=seed))


def render_explain_analyze(result) -> str:
    """Render an executed :class:`ExecutionResult` from its query
    record, ``result.profile``."""
    # Imported lazily: analysis pulls in the engine layer, which itself
    # imports repro.telemetry for the tracing hooks.
    from ..analysis.report import format_table

    records = result.profile.pipelines
    # An optimizer's pick shows its estimate beside the actual: each
    # priced pipeline (a fleet's: each morsel) at its record index.
    optimizer = getattr(result, "optimizer", None)
    pipes = optimizer.estimate.pipelines if optimizer else []
    priced = {pipe.record.index: pipe for pipe in pipes}
    rows = []
    for position, record in enumerate(records):
        if record.fused_into is not None:
            # A fused group is one block, at its first row.
            group = _fused_group(records, position)
            if group is not None:
                rows += _fused_block(position, group, priced if optimizer else None)
            continue
        estimate = []
        if optimizer is not None and record.pipeline is not None:
            estimate = _estimate_cells(priced, record)
        rows.append(
            [
                "[result]" if record.pipeline is None else f"[{position}]",
                # A build served from the buffer pool keeps its row: it
                # launched nothing, its table is the rows out.
                record.shape + ("  [resident]" if record.resident else ""),
                record.rows_in,
                record.rows_out,
                *_entry_cells(record),
                round(record.host_ms, 3),
                *estimate,
            ]
        )
    title = (
        f"EXPLAIN ANALYZE  ({result.engine} on {result.device_name}; "
        f"{result.table.num_rows} result rows)"
    )
    # ``est KB`` / ``est ms`` / ``error``: its kernels' bytes and time, est vs actual.
    columns = _COLUMNS + (["est rows", "est KB", "est ms", "error"] if optimizer else [])
    parts = [
        format_table(columns, rows, title=title, float_format="{:.4g}"),
        _totals(result, records),
    ]
    footer = _footer_lines(result)
    if footer:
        parts.append("\n".join(footer))
    return "\n\n".join(parts)


def _entry_cells(record) -> list:
    """Kernels, bytes per level, link bytes and sim ms of a row."""
    return [
        len(record.kernels),
        round(record.bytes_at(MemoryLevel.GLOBAL) / 1e3, 1),
        round(record.bytes_at(MemoryLevel.ONCHIP) / 1e3, 1),
        round(record.transfer_bytes() / 1e3, 1),
        round(record.total_time_ms, 4),
    ]


def _estimate_cells(priced, record, members=None) -> list:
    """``est rows`` / ``est KB`` / ``est ms`` / ``error`` of a pipeline's
    row (of a fused block: the rows of its ``members``)."""
    pipe = priced.get(record.index)
    actual = record.kernel_time_ms
    return [""] * 4 if pipe is None else [
        sum(priced[member.index].result_rows for member in members or [record]),
        round(pipe.global_bytes / 1e3, 1),
        round(pipe.kernel_ms, 4),
        f"{abs(pipe.kernel_ms - actual) / actual:.1%}" if actual else "",
    ]


def _fused_group(records, position):
    """The rows of the fused group of siblings that starts at
    ``position`` — the run of rows fused into one row, within one
    device's records — or ``None`` when ``position`` is not its first."""
    head = records[position].fused_into

    def same(before, after) -> bool:
        return before.fused_into == after.fused_into == head and after.index > before.index

    if position and same(records[position - 1], records[position]):
        return None
    end = position + 1
    while end < len(records) and same(records[end - 1], records[end]):
        end += 1
    return records[position:end]


def _fused_block(position, group, priced) -> list[list]:
    """A fused group as ONE row — what its first member that ran (the
    row holding the group's launches and packed transfers) issued — above
    one line per member with its cardinalities; ``priced``: the
    optimizer's estimates, if it picked the strategy."""
    holder = next(record for record in group if record.index == group[0].fused_into)
    block = [
        [
            f"[{position}-{position + len(group) - 1}]",
            f"fused {len(group)} {'morsels' if group[0].pipeline.is_final else 'builds'}",
            sum(record.rows_in for record in group),
            sum(record.rows_out for record in group),
            *_entry_cells(holder),
            # The holder's row spans the whole group's run.
            round(holder.host_ms, 3),
            *(_estimate_cells(priced, holder, group) if priced is not None else []),
        ]
    ]
    for offset, record in enumerate(group):
        block.append(
            [
                f"  [{position + offset}]",
                "  " + record.shape + ("  [resident]" if record.resident else ""),
                record.rows_in,
                record.rows_out,
                *[""] * (6 if priced is None else 10),
            ]
        )
    return block


def _totals(result, records) -> str:
    covered_global = sum(record.bytes_at(MemoryLevel.GLOBAL) for record in records)
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
    if covered_global != total_global:
        # Kernels launched outside every row would break the
        # reconciliation the docs promise; surface it rather than hide it.
        line += (
            f"\nWARNING: pipeline global bytes ({covered_global}) != "
            f"profile global bytes ({total_global})"
        )
    return line


def _footer_lines(result) -> list[str]:
    lines = []
    serving = result.serving
    # None for a bare ``Engine.execute`` result, which
    # ``render_explain_analyze`` also accepts; every Session / Server
    # execution carries its serving stats.
    if serving is not None:
        probes = serving.compile_hits + serving.compile_misses
        if probes:
            lines.append(f"kernel cache: {serving.compile_hits}/{probes} hits")
        cache = {None: "bypassed", True: "hit", False: "miss"}[serving.plan_cache_hit]
        lines.append(
            f"plan cache: {cache}  "
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
