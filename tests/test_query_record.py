"""The query record: ``result.profile`` is written once, always, and the
span trace, EXPLAIN ANALYZE and the accounting self-check read it.

* the trace's ``kernel`` / ``transfer`` spans *are* the profile's
  entries (one to one, issue order, equal attributes), synthesized on
  read — executing with tracing on allocates none of them;
* EXPLAIN ANALYZE renders any result, its rows string-equal traced and
  untraced (host-ms column aside), and its GLOBAL column reconciles on
  every engine x {single device, out-of-core, fleet} x {off, auto} —
  the ``[result]`` row carries what ``finalize`` launched;
* on the host track a pipeline's children tile its interval;
* a fused group of sibling builds: every fused launch and its packed
  load lie in its first member's row, and the rows still sum to the
  profile;
* a launch outside ``run_pipelines`` fires ``accounting.mismatch``.
"""

from __future__ import annotations

import re

import pytest

import repro
from repro.engines import ENGINE_FACTORIES, make_engine
from repro.faults import FaultPlan
from repro.hardware import GTX970, MemoryLevel
from repro.telemetry import render_explain_analyze, tracing
from repro.telemetry import trace as trace_module
from repro.workloads import SSB_QUERIES, generate_ssb, ssb_plan

ENGINES = ("resolution", "pipelined", "multipass", "operator-at-a-time", "vector")
#: Materializes three columns: under ``compression="auto"`` the result
#: (and, on a fleet, each morsel's partial) is encoded before its d2h.
MATERIALIZE = (
    "select lo_orderdate, lo_discount, lo_quantity from lineorder "
    "where lo_discount >= 1"
)
KERNEL_ATTRS = (
    "sim_ms", "kind", "elements", "global_bytes", "onchip_bytes", "atomics", "bound_by",
)


@pytest.fixture(scope="module")
def wide_db():
    """Big enough that encoding a result column — and an eighth of one,
    a fleet morsel's partial — pays for its kernel."""
    return generate_ssb(scale_factor=0.05, seed=7)


def _sessions(database, compression="off"):
    """One session per macro model: single device, out-of-core (a device
    the build sides fit on and the fact columns do not), a 4-device
    fleet."""
    rows = database.table("lineorder").num_rows
    small = GTX970.with_overrides(name="small", memory_capacity=max(150_000, rows * 3))
    return {
        "single": repro.connect(database, compression=compression),
        "out-of-core": repro.connect(
            database, device=small, residency=True, compression=compression
        ),
        "fleet": repro.connect(database, devices=4, compression=compression),
    }


def _fault_session(database):
    plan = FaultPlan.generate(seed=101, devices=2, morsels=8)
    return repro.Session(database, engine="resolution", devices=2, fault_plan=plan)


def _pipeline_rows(text: str) -> list[str]:
    """The table rows of an EXPLAIN ANALYZE report — a fused group's
    block row among them — without their host-ms cell (the tenth
    column; an optimizer's estimates follow it)."""
    rows = []
    for line in text.splitlines():
        if re.match(r"^\[(\d+(-\d+)?|result)\]", line):
            cells = re.split(r"\s{2,}", line.replace("  [resident]", " [resident]"))
            rows.append("  ".join(cells[:9] + cells[10:]))
    return rows


def _global_reconciles(result) -> bool:
    rows = sum(row.bytes_at(MemoryLevel.GLOBAL) for row in result.profile.pipelines)
    return rows == result.profile.bytes_at(MemoryLevel.GLOBAL)


# ----------------------------------------------------------------------
# (i) the trace's leaves are the profile's entries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compression", ["off", "auto"])
@pytest.mark.parametrize("engine", ENGINES)
def test_kernel_and_transfer_spans_are_the_profile_entries(ssb_db, engine, compression):
    session = repro.connect(ssb_db, engine=engine, compression=compression)
    with tracing():
        result = session.execute(SSB_QUERIES["q2.1"])
    kernels, transfers = result.trace.spans("kernel"), result.trace.spans("transfer")
    assert [span.name for span in kernels] == [
        f"kernel {trace.name}" for trace in result.profile.kernels
    ]
    for span, trace in zip(kernels, result.profile.kernels):
        assert [span.attrs[key] for key in KERNEL_ATTRS] == [
            trace.time_ms, trace.kind, trace.elements, trace.global_bytes,
            trace.onchip_bytes, trace.meter.atomic_count, trace.bound_by,
        ]
    assert [span.name for span in transfers] == [
        f"transfer {record.label}" for record in result.profile.transfers
    ]
    for span, record in zip(transfers, result.profile.transfers):
        assert (span.attrs["sim_ms"], span.attrs["nbytes"], span.attrs["direction"]) == (
            record.time_ms, record.nbytes, record.direction
        )
        assert span.attrs.get("codec", "") == record.codec
        assert span.attrs.get("raw_nbytes", 0) == (record.raw_nbytes if record.codec else 0)
    # Issue order across the two lists: the leaves in document order are
    # the log in ``seq`` order.
    leaves = [s for s in result.timeline() if s.category in ("kernel", "transfer")]
    assert [span.name.split(" ", 1)[1] for span in leaves] == [
        getattr(entry, "name", None) or entry.label for entry in result.profile.entries
    ]
    assert [entry.seq for entry in result.profile.entries] == list(range(len(leaves)))


def test_fault_armed_fleet_trace_has_every_entry_and_its_stalls(ssb_db):
    with tracing():
        result = _fault_session(ssb_db).execute(SSB_QUERIES["q2.1"])
    assert result.scaleout.recovery.faulted
    moved = [r for r in result.profile.transfers if r.direction != "stall"]
    stalls = [r for r in result.profile.transfers if r.direction == "stall"]
    assert len(result.trace.spans("kernel")) == len(result.profile.kernels)
    assert len(result.trace.spans("transfer")) == len(moved)
    assert sorted(
        span.name for span in result.trace.spans("fault") if span.name.startswith("stall ")
    ) == sorted(f"stall {record.label}" for record in stalls)
    assert result.profile.stalls == len(stalls)
    # Every leaf hangs under the device turn that issued it.
    for device in result.trace.spans("device"):
        assert device.find("kernel"), device.name


# ----------------------------------------------------------------------
# (ii) / (vi) EXPLAIN ANALYZE reads the record: any result renders
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_explain_rows_equal_traced_and_untraced(ssb_db, engine):
    sessions = {
        f"{engine}/{macro}": session for macro, session in _sessions(ssb_db).items()
    }
    sessions["fault-armed fleet"] = _fault_session(ssb_db)
    for key, session in sessions.items():
        alias = None if "fault" in key else engine
        plain = session.execute(SSB_QUERIES["q3.1"], engine=alias)
        with tracing():
            traced = session.execute(SSB_QUERIES["q3.1"], engine=alias)
        assert plain.trace is None and traced.trace is not None, key
        # The pooled out-of-core session is warm the second time: only
        # compare like with like.
        if key.endswith("out-of-core"):
            plain = session.execute(SSB_QUERIES["q3.1"], engine=alias)
        rows = _pipeline_rows(render_explain_analyze(plain))
        assert rows and rows == _pipeline_rows(render_explain_analyze(traced)), key
        # ... and the traced result's pipeline spans say the same.
        spans = traced.trace.spans("pipeline")
        records = [row for row in traced.profile.pipelines if row.pipeline is not None]
        assert [span.name for span in spans] == [row.name for row in records], key
        assert [span.attrs["global_bytes"] for span in spans] == [
            row.bytes_at(MemoryLevel.GLOBAL) for row in records
        ], key


def test_bare_engine_result_renders_explain_analyze(ssb_db, device):
    result = make_engine("resolution").execute(ssb_plan("q2.1", ssb_db), ssb_db, device)
    assert result.trace is None and result.serving is None
    text = render_explain_analyze(result)
    rows = _pipeline_rows(text)
    assert [row.split()[0] for row in rows] == ["[0]", "[1]", "[2]", "[3]", "[result]"]
    assert "WARNING" not in text
    assert [row.name for row in result.profile.pipelines] == [
        "pipeline[0]", "pipeline[1]", "pipeline[2]", "pipeline[3]", "finalize",
    ]


# ----------------------------------------------------------------------
# bugfix: an encoded result reconciles ([result] row)
# ----------------------------------------------------------------------
def test_encoded_result_has_a_result_row_and_no_warning(wide_db):
    """``encode.result.*`` launches in ``finalize``, outside every
    pipeline: half the query's global bytes were in no row."""
    session = repro.connect(wide_db, compression="auto")
    text = session.explain(MATERIALIZE, analyze=True)
    assert "WARNING" not in text
    result = session.execute(MATERIALIZE)
    *_, finalize = result.profile.pipelines
    assert [trace.name for trace in finalize.kernels] == [
        "encode.result.lo_orderdate", "encode.result.lo_discount",
        "encode.result.lo_quantity",
    ]
    assert [record.label for record in finalize.transfers] == ["result"]
    assert finalize.bytes_at(MemoryLevel.GLOBAL) > 0 and _global_reconciles(result)
    row = [line for line in text.splitlines() if line.startswith("[result]")]
    assert len(row) == 1 and row[0].split()[4] == "3"  # kernels


@pytest.mark.parametrize("macro", ["out-of-core", "fleet"])
def test_encoded_partials_reconcile(wide_db, macro):
    session = _sessions(wide_db, "auto")[macro]
    result = session.execute(MATERIALIZE)
    encodes = [trace for trace in result.profile.kernels if trace.kind == "encode"]
    assert encodes, "the query was meant to encode what it ships"
    assert _global_reconciles(result) and result.profile.unaccounted == 0
    assert "WARNING" not in render_explain_analyze(result)
    if macro == "fleet":
        # A device's morsels run as one fused group: its head row
        # covers the packed gather of every member's partial.
        morsels = [row for row in result.profile.pipelines if row.pipeline.is_final]
        assert len(morsels) == result.scaleout.partitions
        for row in morsels:
            if row.fused_into in (None, row.index):
                assert row.transfers[-1].label.startswith("gather.p")
            else:
                assert not (row.kernels or row.transfers)
        assert sum(len(row.kernels_of_kind("encode")) for row in morsels) == len(encodes)


@pytest.mark.parametrize("compression", ["off", "auto"])
@pytest.mark.parametrize("engine", sorted(ENGINE_FACTORIES))
def test_global_column_reconciles_everywhere(ssb_db, engine, compression):
    for macro, session in _sessions(ssb_db, compression).items():
        for name in ("q1.1", "q2.1", "q4.1"):
            result = session.execute(SSB_QUERIES[name], engine=engine)
            assert _global_reconciles(result), (macro, name)
            assert result.profile.unaccounted == 0, (macro, name)


# ----------------------------------------------------------------------
# (iii) the host track shows where the time went
# ----------------------------------------------------------------------
def test_pipeline_children_tile_the_host_interval(ssb_db):
    with tracing():
        result = repro.connect(ssb_db).execute(SSB_QUERIES["q3.1"])
    pipelines = result.trace.spans("pipeline")
    assert pipelines
    for pipeline in pipelines:
        cursor = pipeline.start_us
        for child in pipeline.children:
            assert cursor <= child.start_us <= child.end_us <= pipeline.end_us
            cursor = child.end_us
        # A sibling build fused into another row launches nothing of
        # its own: that row's span holds the group's kernels.
        if pipeline.attrs.get("fused_into", pipeline.name) != pipeline.name:
            continue
        assert any(
            child.category == "kernel" and child.duration_us > 0
            for child in pipeline.children
        )
    # The leaves account for the pipelines' host time, not a sliver of it.
    covered = sum(c.duration_us for p in pipelines for c in p.children)
    assert covered > 0.5 * sum(p.duration_us for p in pipelines)


# ----------------------------------------------------------------------
# (iv) tracing allocates no device span until the trace is read
# ----------------------------------------------------------------------
def test_no_kernel_or_transfer_span_before_the_trace_is_read(ssb_db, monkeypatch):
    made = []

    class CountingSpan(trace_module.Span):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self.category)

    monkeypatch.setattr(trace_module, "Span", CountingSpan)
    session = repro.connect(ssb_db)
    with tracing():
        result = session.execute(SSB_QUERIES["q2.1"])
    assert made and not {"kernel", "transfer", "pipeline", "finalize"} & set(made)
    assert result.trace is not None
    assert not {"kernel", "transfer", "pipeline", "finalize"} & set(made)
    spans = result.timeline()
    assert made.count("kernel") == len(result.profile.kernels)
    assert made.count("transfer") == len(result.profile.transfers)
    assert result.timeline() == spans and len(made) == len(spans)  # woven once


# ----------------------------------------------------------------------
# always-on self-check
# ----------------------------------------------------------------------
def _mismatches(result) -> list:
    return [event for event in result.events() if event.kind == "accounting.mismatch"]


def test_stray_launch_fires_accounting_mismatch(ssb_db, device, monkeypatch):
    from repro.engines.runtime import QueryRuntime

    engine, plan = make_engine("resolution"), ssb_plan("q2.1", ssb_db)
    clean = engine.execute(plan, ssb_db, device)
    assert clean.profile.unaccounted == 0
    assert _mismatches(clean) == []

    init = QueryRuntime.__init__

    def stray(self, device, *args, **kwargs):
        init(self, device, *args, **kwargs)
        # Before the first pipeline: outside every row of the record.
        device.launch("stray", "scan", 1, device.new_meter())

    monkeypatch.setattr(QueryRuntime, "__init__", stray)
    result = engine.execute(plan, ssb_db, device)
    [event] = _mismatches(result)
    assert event.attrs["unaccounted"] == result.profile.unaccounted == 1
    assert event.attrs["entries"] == len(clean.profile.entries) + 1
    assert event.attrs["engine"] == engine.name
    # The same stray on a fleet device is reported per device turn.
    fleet = _mismatches(repro.connect(ssb_db, devices=2).execute(SSB_QUERIES["q2.1"]))
    assert sorted(event.attrs["device"] for event in fleet) == [0, 1]


@pytest.mark.parametrize("engine", ENGINES)
def test_ssb_fires_no_accounting_mismatch(ssb_db, engine):
    session = repro.connect(ssb_db, engine=engine)
    for sql in SSB_QUERIES.values():
        result = session.execute(sql)
        assert result.profile.unaccounted == 0
        assert _mismatches(result) == []
        assert result.events()[-1].kind == "query.executed"  # the record was read


# ----------------------------------------------------------------------
# counted once: every stats field the log knows is its log sum
# ----------------------------------------------------------------------
def _h2d(transfers) -> int:
    # A zero-copy transfer keeps its bytes as ``raw_nbytes``.
    return sum(r.nbytes or r.raw_nbytes for r in transfers if r.direction == "h2d")


def _assert_counted_once(result, key):
    """Each value filled from the query record equals its sum over the
    records, taken here entry by entry."""
    log = result.profile
    moved = [r for r in log.transfers if r.direction != "stall"]
    h2d = _h2d(log.transfers)
    assert result.input_bytes == h2d, key
    compression = result.compression
    if compression is not None:
        assert compression.wire_bytes == sum(r.nbytes for r in moved), key
        assert compression.raw_bytes == sum(r.raw_nbytes or r.nbytes for r in moved), key
        assert compression.decode_kernels == sum(t.kind == "decode" for t in log.kernels), key
        assert compression.encode_kernels == sum(t.kind == "encode" for t in log.kernels), key
    placement = result.placement
    if placement is not None:
        assert placement.table_hits == sum(row.resident for row in log.pipelines), key
    if result.scaleout is not None:
        shares = result.scaleout.shares
        morsels = [
            row for row in log.pipelines
            if row.pipeline is not None and row.pipeline.is_final
        ]
        assert sum(s.input_bytes for s in shares) == h2d, key
        assert sum(s.partition_bytes for s in shares) == sum(
            _h2d(row.transfers) for row in morsels
        ), key
        assert sum(s.broadcast_bytes for s in shares) == h2d - sum(
            s.partition_bytes for s in shares
        ), key
        assert sum(s.gather_bytes for s in shares) == sum(
            r.nbytes for r in moved if r.direction == "d2h"
        ), key
        assert sum(s.kernel_ms for s in shares) == pytest.approx(log.kernel_time_ms), key
        assert sum(s.transfer_ms for s in shares) == pytest.approx(log.transfer_time_ms), key
        assert result.scaleout.serial_ms == pytest.approx(log.total_time_ms), key


@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("devices", [1, 2])
@pytest.mark.parametrize("compression", ["off", "auto"])
@pytest.mark.parametrize("engine", ["resolution", "vector", "operator-at-a-time"])
def test_stats_are_their_log_sums(ssb_db, engine, compression, devices, pool):
    session = repro.connect(
        ssb_db, engine=engine, compression=compression, devices=devices, residency=pool
    )
    for warmth in ("cold", "warm"):
        for name in ("q1.1", "q2.1", "q4.1"):
            result = session.execute(SSB_QUERIES[name])
            _assert_counted_once(result, (name, warmth))
    if pool:
        assert result.placement.table_hits, "the warm star join was meant to hit"


@pytest.mark.parametrize("compression", ["off", "auto"])
def test_out_of_core_stats_are_their_log_sums(ssb_db, compression):
    session = _sessions(ssb_db, compression)["out-of-core"]
    for name in ("q1.1", "q2.1", "q4.1"):
        result = session.execute(SSB_QUERIES[name])
        assert result.placement.out_of_core, name
        _assert_counted_once(result, name)


def test_fault_armed_fleet_stats_are_their_log_sums(ssb_db):
    plan = FaultPlan.generate(seed=5, devices=3, morsels=6)
    session = repro.Session(ssb_db, engine="resolution", devices=3, fault_plan=plan)
    faulted = 0
    for name in sorted(SSB_QUERIES):
        result = session.execute(SSB_QUERIES[name])
        faulted += result.scaleout.recovery.faulted
        _assert_counted_once(result, name)
    assert faulted, "the plan was meant to fire"


@pytest.mark.parametrize("compression", ["off", "auto"])
def test_estimated_loads_are_the_first_reads(ssb_db, compression):
    """An estimate's per-pipeline load, read off the stand-in device's
    log, is one transfer carrying exactly the base columns the pipeline
    is first to read: their raw and their wire bytes."""
    from repro.compression import resolve_compression
    from repro.hardware import PCIE3
    from repro.optimizer.cost import CostEstimator, StrategyChoice
    from repro.plan import extract_pipelines

    policy = resolve_compression(compression)
    estimator = CostEstimator(GTX970, PCIE3, compression=policy)
    strategy = StrategyChoice("resolution", "run-to-finish", 1, "range", "transient")
    for name in sorted(SSB_QUERIES):
        query = extract_pipelines(ssb_plan(name, ssb_db), ssb_db)
        pipes = estimator.estimate(query, ssb_db, strategy).pipelines
        seen = set()
        for pipeline, pipe in zip(query.pipelines, pipes):
            loads = [key for key in pipeline.base_columns() if key not in seen]
            seen.update(loads)
            columns = [ssb_db.table(table).column(base) for table, base in loads]
            wire = 0
            for column in columns:
                encoded = policy.encoded(column) if policy is not None else None
                passthrough = encoded is None or encoded.codec == "passthrough"
                wire += column.nbytes if passthrough else encoded.wire_nbytes
            assert (pipe.first_reads, pipe.input_bytes, pipe.wire_bytes) == (
                set(loads), sum(column.nbytes for column in columns), wire
            ), (name, pipe.name)


# ----------------------------------------------------------------------
# (v) a fused group of sibling builds is one row's entries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["resolution", "multipass"])
def test_fused_group_entries_lie_in_its_first_row(ssb_db, engine):
    """SSB q4.1's four dimension builds run as one fused group: every
    fused launch and the packed load lie in exactly one row — the first
    member's — every other member's row holds none but keeps its rows
    in / out, and the rows still sum to the profile."""
    result = repro.connect(ssb_db, engine=engine).execute(SSB_QUERIES["q4.1"])
    profile = result.profile
    *members, fact, finalize = profile.pipelines
    assert [row.fused_into for row in members] == [0, 0, 0, 0]
    assert fact.fused_into is None and finalize.fused_into is None
    head, *rest = members
    phases = 1 if engine == "resolution" else 6
    assert len(head.kernels) == phases
    assert all(len(trace.name.split("+")) == 4 for trace in head.kernels)
    assert [record.direction for record in head.transfers] == ["h2d"]
    assert all(not row.kernels and not row.transfers for row in rest)
    assert all(row.rows_in > 0 and row.rows_out > 0 for row in members)
    assert profile.unaccounted == 0
    assert not [event for event in result.events() if event.kind == "accounting.mismatch"]
    for level in (MemoryLevel.GLOBAL, MemoryLevel.ONCHIP):
        assert sum(row.bytes_at(level) for row in profile.pipelines) == profile.bytes_at(level)
    assert sum(row.kernel_time_ms for row in profile.pipelines) == pytest.approx(
        profile.kernel_time_ms, rel=1e-12
    )
    assert sum(len(row.kernels) for row in profile.pipelines) == len(profile.kernels)
    assert sum(len(row.transfers) for row in profile.pipelines) == len(profile.transfers)
    # EXPLAIN ANALYZE: one fused block, then a line per member.
    lines = render_explain_analyze(result).splitlines()
    block = next(index for index, line in enumerate(lines) if "fused 4 builds" in line)
    assert lines[block].startswith("[0-3]")
    for offset, row in enumerate(members, 1):
        line = lines[block + offset]
        assert line.startswith(f"  [{offset - 1}]") and row.shape in line
        assert line.split()[-2:] == [str(row.rows_in), str(row.rows_out)]
    assert "WARNING" not in "\n".join(lines)


def test_explain_shows_each_device_turn_and_its_morsels_estimates(ssb_db):
    """A fleet's record is each device turn's rows: the fused builds,
    then the fused morsels — one block each, every morsel listed — and
    under ``engine="auto"`` each block carries the estimate the
    optimizer priced at its record index."""
    session = repro.connect(ssb_db, engine="auto", devices=2)
    result = session.execute(SSB_QUERIES["q2.1"])
    assert result.optimizer.chosen.devices == 2
    lines = render_explain_analyze(result).splitlines()
    blocks = [line.split() for line in lines if " fused " in line]
    assert [block[3] for block in blocks] == ["builds", "morsels"] * 2
    # Rows in .. host ms, then est rows, est KB, est ms and error.
    assert all(len(block) == 16 for block in blocks), blocks
    # Each of the 2 x 2 morsels is listed under its device's block.
    assert sum("__scaleout__lineorder__p" in line for line in lines) == 4
    assert "WARNING" not in "\n".join(lines)
