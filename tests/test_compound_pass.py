"""A compound kernel's pass runs its body once, whatever feeds it.

``repro.engines.compound.run_compound`` takes segments over one scope
— a whole pipeline, the vectors of a vector-at-a-time run, the blocks
of a streamed run, a fleet device's morsels — runs the generated body
once on the host and then issues each segment's launch.  Covered here:
the bodies a query runs (``Profile.bodies``, a count that does not
depend on the box), a one-member ``segments=`` list as the one-segment
case, and a streamed column whose blocks ship in different codecs: each
block reads its own wire images, so the one pass issues exactly what
one body per block issues.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

import repro
import repro.macro.batch as batch
from repro.compression import CompressionPolicy
from repro.compression.codecs import encode
from repro.engines.compound import run_compound
from repro.engines.runtime import QueryRuntime
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.kernels import KernelContext
from repro.kernels.codegen import generate_compound_kernel
from repro.macro.batch import execute_out_of_core
from repro.plan.pipelines import extract_pipelines
from repro.telemetry.recorder import table_checksum
from repro.workloads import SSB_QUERIES, generate_ssb, projection_query, ssb_plan


@pytest.fixture(scope="module")
def ssb_sf003():
    return generate_ssb(0.03)


# ----------------------------------------------------------------------
# bodies run on the host
# ----------------------------------------------------------------------
def _vector_bodies(database) -> tuple[int, int]:
    result = repro.connect(database, engine="vector").execute(SSB_QUERIES["q4.3"])
    return result.profile.bodies, len(result.profile.kernels)


def test_a_vector_run_is_one_body_per_pipeline(ssb_sf003):
    """SSB q4.3's 176 fact vectors are segments of one pass: one body
    per pipeline (five), still one launch per vector."""
    pipelines = len(extract_pipelines(ssb_plan("q4.3", ssb_sf003), ssb_sf003).pipelines)
    first = _vector_bodies(ssb_sf003)
    assert first == (pipelines, 4 + 176) == (5, 180)
    assert _vector_bodies(ssb_sf003) == first


def _streamed_bodies(database) -> tuple[int, int, int]:
    device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
    result = execute_out_of_core(
        ssb_plan("q3.1", database), database, device, block_bytes=128 * 1024
    )
    blocks = sum(record.label.startswith("block") for record in result.profile.transfers)
    final = result.profile.pipelines[-2]
    return blocks, final.bodies, result.profile.bodies


def test_a_streamed_final_pipeline_is_one_body(ssb_sf003):
    """Every block of the streamed fact pipeline is a segment of one
    pass: its row of the query record ran one body."""
    first = _streamed_bodies(ssb_sf003)
    blocks, final, total = first
    assert blocks >= 3
    assert (final, total) == (1, 4)
    assert _streamed_bodies(ssb_sf003) == first


# ----------------------------------------------------------------------
# the one-segment case
# ----------------------------------------------------------------------
def test_one_member_segments_are_the_one_segment_case(ssb_db):
    """``segments=[(pipeline, rows)]`` over a materializing sink is the
    context ``pipeline=`` / ``rows=`` makes: same charges, same rows in
    the same (generator-drawn) order."""
    pipeline = extract_pipelines(projection_query(10), ssb_db).final_pipeline
    runs = []
    for segmented in (False, True):
        runtime = QueryRuntime(VirtualCoprocessor(GTX970), ssb_db)
        scope = runtime.load_source(pipeline)
        rows = runtime.source_rows(pipeline)
        where = (
            {"segments": [(pipeline, rows)]} if segmented else {"pipeline": pipeline, "rows": rows}
        )
        ctx = KernelContext(
            runtime, scope, pipeline.scope_schema, "lrgp_simd", sink=pipeline.sink,
            output_schema=pipeline.output_schema, **where,
        )
        generate_compound_kernel(pipeline)(ctx)
        runs.append((
            ctx.meter.snapshot(),
            {name: values.tobytes() for name, values in ctx.outputs.items()},
        ))
    assert runs[0] == runs[1]
    assert runs[0][1]


# ----------------------------------------------------------------------
# streamed blocks in different codecs
# ----------------------------------------------------------------------
def _middle_blocks_raw(monkeypatch) -> None:
    """Ship every block but a column's first and last raw."""
    encode_slice = CompressionPolicy.encode_slice

    def mixed(policy, column, start, stop):
        if 0 < start and stop < len(column.values):
            return encode(column.values[start:stop], "passthrough")
        return encode_slice(policy, column, start, stop)

    monkeypatch.setattr(CompressionPolicy, "encode_slice", mixed)


def _one_body_per_segment(segments, runtime, mode, scope, *args, **kwargs):
    """The reference: one body per segment, each over its own rows of
    ``scope`` with its wire images registered as the runtime's."""
    contexts, start = [], 0
    for segment in segments:
        if segment.wire is not None:
            runtime.lazy_columns = segment.wire
        rows = {name: values[start:start + segment.rows] for name, values in scope.items()}
        alone = [segment._replace(wire=None)]
        contexts += run_compound(alone, runtime, mode, rows, *args, **kwargs)
        start += segment.rows
    return contexts


def _streamed(database, name: str) -> tuple:
    device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
    device.compression = CompressionPolicy("auto")
    result = execute_out_of_core(
        ssb_plan(name, database), database, device, block_bytes=32 * 1024
    )
    return (
        [(trace.name, trace.elements, trace.meter.snapshot()) for trace in result.profile.kernels],
        [(rec.label, rec.nbytes, rec.raw_nbytes, rec.codec) for rec in result.profile.transfers],
        table_checksum(result.table),
        asdict(result.compression),
        device.peak_allocated,
    )


@pytest.mark.parametrize("name", ("q1.1", "q2.1", "q4.1"))
def test_blocks_read_their_own_wire_images(ssb_db, monkeypatch, name):
    """With the middle block of each column shipped raw and the others
    compressed, the one pass launches, ships and returns what one body
    per block does — the raw block reads raw columns, the others their
    own block's wire images (q1.1's filters scan them compressed)."""
    _middle_blocks_raw(monkeypatch)
    one_pass = _streamed(ssb_db, name)
    with monkeypatch.context() as patch:
        patch.setattr(batch, "run_compound", _one_body_per_segment)
        assert _streamed(ssb_db, name) == one_pass
    launches, transfers, _, stats, _ = one_pass
    assert [codec for label, *_, codec in transfers if label.startswith("block")] == [
        "block", "", "block"
    ]
    assert {"passthrough", "forpack"} <= set(stats["codecs"])
    if name == "q1.1":
        assert stats["compressed_scans"] > 0


# ----------------------------------------------------------------------
# the kernel listing of a morsel group
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ("q1.1", "q2.1"))
def test_a_morsel_lists_its_kernel_before_its_effects(ssb_db, name):
    """A fleet query under compression lists each morsel's compound
    kernel just before the gathers it made, as a morsel run alone does:
    every kernel over a piece follows that piece's own pipeline."""
    result = repro.connect(ssb_db, devices=2, compression="auto").execute(SSB_QUERIES[name])
    owner, checked = None, 0
    for listed in result.kernel_sources:
        if not listed.startswith(("gather.", "compressed_scan.")):
            owner = listed
        elif "__scaleout__" in listed:
            piece = listed.split("__")[-1].split(".")[0]
            assert owner.endswith(f"_{piece}"), (listed, owner)
            checked += 1
    assert checked > 0
