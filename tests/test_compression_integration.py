"""End-to-end tests of compression-aware transfers.

The acceptance bar is *differential*: for every engine, device count,
and macro path, ``compression="auto"`` must return tables with exactly
the same per-column checksums as ``compression="off"`` while strictly
reducing the bytes charged to the simulated link.
"""

import numpy as np
import pytest

from repro.api import connect
from repro.engines import make_engine
from repro.macro.batch import execute_out_of_core
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.compression import CompressionPolicy
from repro.placement import BufferPool
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import table_checksum
from repro.workloads import SSB_QUERIES, generate_ssb, ssb_plan

SCALE_FACTOR = 0.004


@pytest.fixture(scope="module")
def database():
    return generate_ssb(SCALE_FACTOR, seed=7)


def decode_launches(result):
    """Stand-alone decompression kernels of one execution."""
    return [trace for trace in result.profile.kernels if trace.kind == "decode"]


class TestByteIdentity:
    @pytest.mark.parametrize(
        "engine", ["resolution", "multipass", "operator-at-a-time"]
    )
    def test_engines_byte_identical(self, database, engine):
        off = connect(database, engine=engine, compression="off")
        auto = connect(database, engine=engine, compression="auto")
        for name in ("q1.1", "q2.1", "q3.2", "q4.1"):
            plan = ssb_plan(name, database)
            base = off.execute(plan)
            compressed = auto.execute(plan)
            assert table_checksum(compressed.table) == table_checksum(
                base.table
            ), f"{engine}/{name} diverged under compression"
            assert compressed.input_bytes < base.input_bytes
            stats = compressed.compression
            assert stats is not None
            assert len(decode_launches(compressed)) == stats.decode_kernels
            if engine == "operator-at-a-time":
                # The materializing baseline decodes at load.
                assert stats.decode_kernels > 0
                assert stats.deferred_columns == 0
            else:
                # Generated kernels decode in registers: same launches.
                assert stats.decode_kernels == 0
                assert stats.deferred_columns > 0
                assert len(compressed.profile.kernels) == len(base.profile.kernels)

    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_device_counts_byte_identical(self, database, devices):
        plan = ssb_plan("q2.1", database)
        off = connect(
            database, engine="resolution", devices=devices, compression="off"
        )
        auto = connect(
            database, engine="resolution", devices=devices, compression="auto"
        )
        base = off.execute(plan)
        compressed = auto.execute(plan)
        assert table_checksum(compressed.table) == table_checksum(base.table)
        assert compressed.input_bytes < base.input_bytes
        if devices > 1:
            assert compressed.scaleout is not None
            assert compressed.compression is not None

    def test_pinned_codec_session(self, database):
        plan = ssb_plan("q1.1", database)
        base = connect(database, compression="off").execute(plan)
        pinned = connect(database, compression="forpack").execute(plan)
        assert table_checksum(pinned.table) == table_checksum(base.table)
        codecs = set(pinned.compression.codecs)
        assert codecs <= {"forpack", "passthrough"}


class TestWireReduction:
    """[sim] The subsystem's paper-facing claim at SF 0.02, where the
    fact table outweighs per-column framing: the link carries at least
    2x fewer H2D bytes, and the decode that pays for them is charged —
    inside the kernels that read the columns, or, on the materializing
    engine, as decode kernels that are really launched."""

    @pytest.fixture(scope="class")
    def bench_database(self):
        return generate_ssb(0.02, seed=7)

    def test_auto_halves_h2d_bytes_and_charges_decode_kernels(self, bench_database):
        raw = wire = 0
        for engine in ("resolution", "multipass", "operator-at-a-time"):
            off = connect(bench_database, engine=engine, compression="off")
            auto = connect(bench_database, engine=engine, compression="auto")
            for name in ("q1.1", "q2.1", "q3.2", "q4.1"):
                plan = ssb_plan(name, bench_database)
                base, compressed = off.execute(plan), auto.execute(plan)
                assert table_checksum(compressed.table) == table_checksum(
                    base.table
                ), f"{engine}/{name} diverged under compression"
                stats = compressed.compression
                extra = len(compressed.profile.kernels) - len(base.profile.kernels)
                assert extra == stats.decode_kernels + stats.encode_kernels
                if engine == "operator-at-a-time":
                    assert stats.decode_kernels > 0
                else:
                    assert extra == 0
                    # Every value the kernels consumed was decoded in
                    # registers, and charged as instructions there.
                    assert stats.partial_decode_bytes > 0
                    assert sum(
                        trace.meter.instructions
                        for trace in compressed.profile.kernels
                    ) > sum(
                        trace.meter.instructions for trace in base.profile.kernels
                    )
                raw += base.input_bytes
                wire += compressed.input_bytes
        assert raw >= 2.0 * wire

    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_scatter_ships_compressed_partitions(self, bench_database, devices):
        plan = ssb_plan("q4.1", bench_database)
        base, compressed = (
            connect(
                bench_database, engine="resolution", devices=devices,
                compression=mode,
            ).execute(plan)
            for mode in ("off", "auto")
        )
        assert table_checksum(compressed.table) == table_checksum(base.table)
        assert compressed.input_bytes < base.input_bytes


class TestTransferAccounting:
    def test_wire_bytes_on_link_raw_bytes_on_device(self, database):
        """The link is charged wire bytes on every engine, a pipeline's
        columns in one load record.  Raw bytes exist on the device only
        where the engine materializes at load (operator-at-a-time: one
        decode kernel and one raw scratch buffer per compressed column,
        not per record); a compound engine keeps the wire image and
        nothing else."""
        plan = ssb_plan("q1.1", database)
        peaks = {}
        for engine in ("resolution", "operator-at-a-time"):
            session = connect(database, engine=engine, compression="auto")
            result = session.execute(plan)
            peaks[engine] = session.device.peak_allocated
            stats = result.compression
            # Stats cover both directions: H2D input plus the D2H result.
            assert result.input_bytes + result.output_bytes == stats.wire_bytes
            transfers = [
                record for record in result.profile.transfers
                if record.direction == "h2d" and record.codec
                and record.codec != "passthrough"
            ]
            assert transfers, "no compressed transfer records"
            for record in transfers:
                assert record.raw_nbytes > record.nbytes
            sources = " ".join(result.kernel_sources)
            assert len(decode_launches(result)) == stats.decode_kernels
            if engine == "operator-at-a-time":
                # The 8-byte result never pays to encode: every encoded
                # column is a base column, decoded once at load.
                assert stats.decode_kernels == stats.encoded_columns > len(transfers)
                assert "decode." in sources
            else:
                assert stats.decode_kernels == 0
                assert "decode." not in sources and "gather." in sources
        # Wire images only: below the raw footprint the other engine holds.
        assert peaks["resolution"] < stats.raw_bytes < peaks["operator-at-a-time"]

    def test_residency_pools_wire_images(self, database, monkeypatch):
        session = connect(database, residency=True, compression="auto")
        plan = ssb_plan("q1.1", database)
        first = session.execute(plan)
        allocated = []
        allocate = session.device.allocate

        def spy(array, label="", **kwargs):
            allocated.append(label)
            return allocate(array, label=label, **kwargs)

        monkeypatch.setattr(session.device, "allocate", spy)
        second = session.execute(plan)
        # Repeat loads hit the pool: no new link bytes, and the resident
        # wire images are decoded in registers — no decode kernel, no
        # raw scratch.  The date hash table is resident as well (its
        # build does not run), so the warm query allocates nothing.
        assert second.input_bytes == 0
        assert second.compression.decode_kernels == 0
        assert second.compression.deferred_columns > 0
        assert (second.placement.table_hits, second.placement.table_misses) == (1, 0)
        assert allocated == []
        assert [trace.name for trace in second.profile.kernels] == [
            first.profile.kernels[-1].name
        ]
        stats = session.placement_stats()
        assert stats.hits > 0
        # Resident footprint is the compressed one: strictly below the
        # raw bytes the same columns would occupy.
        assert 0 < stats.resident_bytes < first.compression.raw_bytes

    def test_out_of_core_streams_compressed_blocks(self, database):
        plan = ssb_plan("q1.1", database)
        raw_device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
        base = execute_out_of_core(
            plan, database, raw_device, block_bytes=64 * 1024
        )
        device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
        device.compression = CompressionPolicy("auto")
        result = execute_out_of_core(
            plan, database, device, block_bytes=64 * 1024
        )
        assert table_checksum(result.table) == table_checksum(base.table)
        assert result.input_bytes < base.input_bytes
        assert result.compression is not None

    def test_zero_copy_device_skips_compression(self, database):
        # Integrated devices (interconnect=None) never pay the link, so
        # the policy must be inert there.
        from repro.hardware import get_profile

        device = VirtualCoprocessor(get_profile("cpu"), interconnect=None)
        device.compression = CompressionPolicy("auto")
        engine = make_engine("cpu")
        result = engine.execute(ssb_plan("q1.1", database), database, device)
        assert result.compression is None


class TestOptimizerIntegration:
    def test_estimates_use_wire_bytes(self, database):
        from repro.optimizer import Advisor
        from repro.plan.pipelines import extract_pipelines

        query = extract_pipelines(ssb_plan("q2.1", database), database)
        plain = Advisor(GTX970, PCIE3).advise(query, database)
        compressed = Advisor(
            GTX970, PCIE3, compression=CompressionPolicy("auto")
        ).advise(query, database)
        assert (
            compressed.estimate.pcie_h2d_bytes
            < plain.estimate.pcie_h2d_bytes
        )
        # Decode kernels cost something: peak and global grow, not shrink.
        assert (
            compressed.estimate.peak_device_bytes
            >= plain.estimate.peak_device_bytes
        )

    def test_auto_session_no_regret(self, database):
        """engine='auto' under compression still returns correct rows
        and its byte predictions reconcile with observed wire bytes."""
        session = connect(database, engine="auto", compression="auto")
        baseline = connect(database, engine="resolution", compression="off")
        for name in ("q1.1", "q3.2"):
            plan = ssb_plan(name, database)
            result = session.execute(plan)
            base = baseline.execute(plan)
            assert table_checksum(result.table) == table_checksum(base.table)
            decision = result.optimizer
            assert decision is not None
            assert decision.observed_pcie_bytes < (
                base.input_bytes + base.output_bytes
            )


class TestObservability:
    def test_metrics_exported(self, database):
        registry = MetricsRegistry()
        session = connect(
            database, compression="auto", metrics=registry
        )
        session.execute(ssb_plan("q1.1", database))
        text = registry.render()
        assert "repro_compression_raw_bytes_total" in text
        assert "repro_compression_wire_bytes_total" in text
        assert "repro_compression_saved_bytes_total" in text
        assert "repro_compression_ratio" in text
        assert "repro_compression_decode_kernels_total" in text
        assert 'repro_compression_columns_total{codec=' in text

    def test_server_compression(self, database):
        from repro.serving import Server

        queries = [SSB_QUERIES[name] for name in ("q1.1", "q2.1")]
        with Server(
            database, workers=2, compression="auto", queue_size=8
        ) as server:
            results = server.execute_many(queries)
            text = server.metrics_text()
        assert all(result.compression is not None for result in results)
        assert "repro_compression_wire_bytes_total" in text

    def test_trace_records_codec(self, database):
        from repro.telemetry import tracing

        session = connect(database, compression="auto")
        with tracing():
            result = session.execute(ssb_plan("q1.1", database))
        spans = result.timeline()
        attrs = [
            span.attrs for span in spans
            if span.attrs.get("codec") not in (None, "", "passthrough")
        ]
        assert attrs, "no transfer span carries a codec attribute"
        assert all(
            span["raw_nbytes"] >= span.get("nbytes", 0) for span in attrs
        )
