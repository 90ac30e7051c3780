"""Differential suite for late materialization: kernels read wire
images (``compression="lazy"`` is the older name of what ``"auto"``
now does; the suite keeps spelling it, so the alias stays exercised).

The acceptance bar mirrors the compressed-transfer suite but is
stricter: executing predicates *directly on the wire images* (RLE run
values, dictionary-code LUTs, FOR/cascade min-max block skipping) and
decoding everything else in registers must return tables byte-identical
to ``compression="off"`` — across engines, pinned codecs, device
counts, and the value edges codecs decline on (NaN, -0.0, extreme
int64) — while never moving more device global-memory bytes than
``"off"`` does.
"""

import numpy as np
import pytest

from repro.api import connect
from repro.compression import CompressionPolicy
from repro.compression.lazy import (
    LAZY_BLOCK,
    flatten_conjuncts,
    interval_analyzer,
)
from repro.expressions.expr import col
from repro.hardware.traffic import MemoryLevel
from repro.plan.builder import PlanBuilder
from repro.storage import Column, Database, Table
from repro.telemetry.recorder import table_checksum
from repro.workloads import generate_ssb, ssb_plan

SCALE_FACTOR = 0.004
QUERIES = ("q1.1", "q2.1", "q3.2", "q4.1")


@pytest.fixture(scope="module")
def database():
    return generate_ssb(SCALE_FACTOR, seed=7)


# ----------------------------------------------------------------------
# byte identity: compressed scan vs decode-then-scan
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize(
        "engine", ["resolution", "multipass", "operator-at-a-time"]
    )
    def test_engines_byte_identical(self, database, engine):
        off = connect(database, engine=engine, compression="off")
        lazy = connect(database, engine=engine, compression="lazy")
        for name in QUERIES:
            plan = ssb_plan(name, database)
            base = off.execute(plan)
            deferred = lazy.execute(plan)
            assert table_checksum(deferred.table) == table_checksum(
                base.table
            ), f"{engine}/{name} diverged under lazy materialization"
            assert deferred.compression is not None

    def test_pipelined_engines_scan_compressed(self, database):
        """The compound/multipass code paths actually take the lazy
        path: conjuncts evaluate on wire images, decodes are deferred."""
        for engine in ("resolution", "multipass"):
            session = connect(database, engine=engine, compression="lazy")
            result = session.execute(ssb_plan("q1.1", database))
            stats = result.compression
            assert stats.compressed_scans > 0, f"{engine}: no compressed scans"
            assert stats.deferred_columns > 0
            assert stats.scans, "no scan notes recorded"

    def test_vectorized_engine_stays_eager(self, database):
        """operator-at-a-time materializes full columns by design: it
        decodes at load, one kernel per compressed column, and scans
        nothing compressed.  The vector engine does not stay eager any
        more — a vector is charged for the rows it reads, and decodes
        them in registers like any other compound kernel."""
        plan = ssb_plan("q1.1", database)
        eager = connect(
            database, engine="operator-at-a-time", compression="lazy"
        ).execute(plan).compression
        assert eager.compressed_scans == eager.deferred_columns == 0
        assert eager.decode_kernels == eager.encoded_columns > 0
        vector = connect(database, engine="vector", compression="lazy").execute(plan)
        assert vector.compression.decode_kernels == 0
        assert vector.compression.deferred_columns == eager.encoded_columns
        assert not [
            trace for trace in vector.profile.kernels if trace.kind == "decode"
        ]

    @pytest.mark.parametrize(
        "codec", ["rle", "forpack", "delta", "dictionary", "cascade"]
    )
    def test_pinned_codec_byte_identical(self, database, codec):
        """Every codec a kernel reads in place — the ones with a scan
        strategy and delta, an ordered scan — stays byte-identical when
        pinned."""
        base = connect(database, compression="off")
        lazy = connect(database, compression=CompressionPolicy(codec))
        for name in ("q1.1", "q2.1"):
            plan = ssb_plan(name, database)
            assert table_checksum(lazy.execute(plan).table) == table_checksum(
                base.execute(plan).table
            ), f"pinned {codec} diverged"

    @pytest.mark.parametrize("devices", [2, 3])
    def test_scaleout_byte_identical(self, database, devices):
        plan = ssb_plan("q2.1", database)
        base = connect(
            database, engine="resolution", devices=devices, compression="off"
        ).execute(plan)
        lazy = connect(
            database, engine="resolution", devices=devices, compression="lazy"
        ).execute(plan)
        assert table_checksum(lazy.table) == table_checksum(base.table)
        assert lazy.scaleout is not None
        # Partials of a few hundred bytes cannot pay for an encode
        # launch: they cross the link raw, and nothing is left for the
        # host to decode (test_fused_decode.py has one that does pay).
        stats = lazy.compression
        assert stats.encode_kernels == stats.host_decode_bytes == 0
        assert lazy.output_bytes == base.output_bytes


# ----------------------------------------------------------------------
# value edges: codecs must decline, never corrupt
# ----------------------------------------------------------------------
def _run_both(db, plan):
    base = connect(db, compression="off").execute(plan)
    lazy = connect(db, compression="lazy").execute(plan)
    assert table_checksum(lazy.table) == table_checksum(base.table)
    return base, lazy


class TestValueEdges:
    def test_nan_and_negative_zero_floats(self):
        # NaN fails every comparison; -0.0 == 0.0.  Repeat runs make
        # the column RLE-compressible so the run-value scan really runs.
        values = np.repeat(
            np.array([np.nan, -0.0, 0.0, 1.5, -2.5, np.inf, -np.inf]), 800
        )
        db = Database(
            {
                "t": Table(
                    {
                        "x": Column.float64(values),
                        "y": Column.int32(np.arange(values.size)),
                    }
                )
            }
        )
        plan = (
            PlanBuilder.scan("t").filter(col("x") <= 0.0).project(["x", "y"]).build()
        )
        base, _ = _run_both(db, plan)
        # Ground truth: NaN excluded; both zeros, -2.5, and -inf pass.
        assert base.table.num_rows == 4 * 800

    def test_extreme_int64_declines_to_passthrough(self):
        # Full-span int64 defeats forpack/delta/cascade references;
        # every codec must decline and the lazy path fall back to the
        # eager evaluation on raw (passthrough) data.
        info = np.iinfo(np.int64)
        rng = np.random.default_rng(5)
        values = rng.integers(info.min, info.max, 4000, dtype=np.int64)
        values[:4] = (info.min, info.max, -1, 0)
        db = Database(
            {
                "t": Table(
                    {
                        "x": Column.int64(values),
                        "y": Column.int32(np.arange(values.size)),
                    }
                )
            }
        )
        plan = PlanBuilder.scan("t").filter(col("x") >= 0).project(["y"]).build()
        base, lazy = _run_both(db, plan)
        assert base.table.num_rows == int((values >= 0).sum())
        assert lazy.compression.compressed_scans == 0

    def test_empty_selection(self, database):
        # A predicate matching nothing: block-skip should prune every
        # block, downstream columns must never materialize a row.
        plan = (
            PlanBuilder.scan("lineorder")
            .filter(col("lo_quantity") > 1_000_000)
            .project(["lo_quantity", "lo_revenue"])
            .build()
        )
        base, lazy = _run_both(database, plan)
        assert base.table.num_rows == 0
        stats = lazy.compression
        if stats.scan_blocks:
            assert stats.scan_blocks_skipped == stats.scan_blocks


# ----------------------------------------------------------------------
# scan planner internals
# ----------------------------------------------------------------------
class TestIntervalAnalyzer:
    def test_comparison(self):
        fn = interval_analyzer(col("x") < 10)
        assert fn(0, 5) == "all"
        assert fn(10, 20) == "none"
        assert fn(5, 15) == "mixed"

    def test_between(self):
        fn = interval_analyzer(col("x").between(3, 7))
        assert fn(3, 7) == "all"
        assert fn(8, 20) == "none"
        assert fn(0, 5) == "mixed"

    def test_inlist(self):
        fn = interval_analyzer(col("x").isin([4]))
        assert fn(4, 4) == "all"
        assert fn(5, 9) == "none"
        assert fn(0, 9) == "mixed"

    def test_negation_flips(self):
        fn = interval_analyzer(~(col("x") < 10))
        assert fn(0, 5) == "none"
        assert fn(10, 20) == "all"

    def test_flatten_conjuncts(self):
        conjuncts = flatten_conjuncts(
            (col("a") < 1) & (col("b") > 2) & (col("c") == 3)
        )
        assert len(conjuncts) == 3
        # Disjunctions are a single opaque conjunct, not splittable.
        assert len(flatten_conjuncts((col("a") < 1) | (col("b") > 2))) == 1


# ----------------------------------------------------------------------
# accounting: deferral must show up in the meters
# ----------------------------------------------------------------------
class TestAccounting:
    def test_global_bytes_reduced_vs_decode_everything(self, database):
        """Decode-everything is what the materializing engine still
        does; a compound engine reading the same wire images moves
        fewer device bytes than its own ``off`` run, the materializing
        one more than its own."""
        plan = ssb_plan("q1.1", database)
        runs = {
            (engine, mode): connect(
                database, engine=engine, compression=mode
            ).execute(plan)
            for engine in ("resolution", "operator-at-a-time")
            for mode in ("off", "lazy")
        }
        fused, plain = runs["resolution", "lazy"], runs["resolution", "off"]
        # Selective q1.1: wire bytes for the predicate columns, pro
        # rata bytes for the survivors of everything downstream.
        assert fused.global_memory_bytes * 1.5 < plain.global_memory_bytes
        assert (
            runs["operator-at-a-time", "lazy"].global_memory_bytes
            > runs["operator-at-a-time", "off"].global_memory_bytes
        )

    def test_selective_family_reduction_and_never_slower(self):
        """[sim] SF 0.02, fused decode against ``off``: the selective
        q1.x family moves >= 3x fewer device global bytes in total on
        the compound engine and >= 1.2x fewer under multipass (whose
        flag / prefix / write passes do not shrink), and no query — the
        join-heavy q3.2 control included — moves more bytes, launches
        more kernels or takes longer end to end."""
        database = generate_ssb(0.02, seed=7)
        for engine, reduction in (("resolution", 3.0), ("multipass", 1.2)):
            plain_global = fused_global = 0
            off = connect(database, engine=engine, compression="off")
            lazy = connect(database, engine=engine, compression="lazy")
            for name in ("q1.1", "q1.2", "q1.3", "q3.2"):
                plan = ssb_plan(name, database)
                base, fused = off.execute(plan), lazy.execute(plan)
                label = f"{engine}/{name}"
                assert table_checksum(fused.table) == table_checksum(
                    base.table
                ), label
                assert fused.global_memory_bytes <= base.global_memory_bytes, label
                assert len(fused.profile.kernels) == len(base.profile.kernels), label
                assert fused.total_ms <= base.total_ms, label
                assert fused.compression.compressed_scans > 0, label
                if name != "q3.2":
                    plain_global += base.global_memory_bytes
                    fused_global += fused.global_memory_bytes
            assert plain_global >= reduction * fused_global, engine

    def test_block_skip_accounting(self, database):
        """A block-skip scan is taken when skipping pays — here every
        block is provably empty — and not when every block is mixed
        (q1.1's uniform discount / quantity predicates), where
        unpacking the same bits is no dearer."""
        assert database.table("lineorder").num_rows > LAZY_BLOCK
        session = connect(database, engine="resolution", compression="lazy")
        empty = (
            PlanBuilder.scan("lineorder")
            .filter(col("lo_quantity") > 1_000_000)
            .project(["lo_quantity", "lo_revenue"])
            .build()
        )
        stats = session.execute(empty).compression
        assert stats.scan_blocks > 0
        assert stats.scan_blocks_skipped == stats.scan_blocks
        assert any("block-skip" in note for note in stats.scans)
        stats = session.execute(ssb_plan("q1.1", database)).compression
        assert stats.scan_blocks == 0
        assert not any("block-skip" in note for note in stats.scans)

    def test_partial_decode_smaller_than_full(self, database):
        result = connect(
            database, engine="resolution", compression="lazy"
        ).execute(ssb_plan("q1.1", database))
        stats = result.compression
        # Register decodes cover the rows each kernel reads: their raw
        # bytes' worth must undercut the raw size of the columns.
        assert stats.partial_decode_bytes > 0
        assert stats.partial_decode_bytes < stats.raw_bytes
        # And none of them was written: the only global writes are the
        # hash-table build's and the delta key's CTA descriptors.
        off = connect(database, engine="resolution", compression="off").execute(
            ssb_plan("q1.1", database)
        )
        descriptors = 8 * -(-database.table("date").num_rows // 256)
        assert result.profile.writes_at(MemoryLevel.GLOBAL) == (
            off.profile.writes_at(MemoryLevel.GLOBAL) + descriptors
        )

    def test_kernel_sources_include_scan(self, database):
        result = connect(
            database, engine="resolution", compression="lazy"
        ).execute(ssb_plan("q1.1", database))
        joined = " ".join(result.kernel_sources)
        assert "compressed_scan" in joined or "scan" in joined


# ----------------------------------------------------------------------
# composition: residency pools + optimizer surface
# ----------------------------------------------------------------------
class TestComposition:
    def test_residency_scans_resident_wire_images(self, database):
        session = connect(database, residency=True, compression="lazy")
        plan = ssb_plan("q1.1", database)
        base = connect(database, compression="off").execute(plan)
        first = session.execute(plan)
        second = session.execute(plan)
        assert table_checksum(first.table) == table_checksum(base.table)
        assert table_checksum(second.table) == table_checksum(base.table)
        # Repeat hits the pool (no link bytes) and reads the resident
        # wire images of the fact columns in place.  The date build —
        # whose ``d_year`` filter was the compressed scan — is served
        # its resident table and does not run, so what is left of the
        # first run's scan notes is exactly the fact pipeline's.
        assert first.compression.compressed_scans > 0
        assert second.input_bytes == 0
        assert (second.placement.table_hits, second.placement.table_misses) == (1, 0)
        fact = [note for note in first.compression.scans if note.startswith("lineorder.")]
        assert fact and second.compression.scans == fact
        assert second.compression.deferred_columns == len(fact)
        assert second.compression.compressed_scans == sum(
            "compressed scan" in note for note in fact
        )
        assert [trace.name for trace in second.profile.kernels] == [
            first.profile.kernels[-1].name
        ]

    def test_explain_shows_scan_decisions(self, database):
        from repro.telemetry import tracing
        from repro.telemetry.explain import render_explain_analyze

        session = connect(database, engine="auto", compression="lazy")
        with tracing():
            result = session.execute(ssb_plan("q1.1", database))
        text = render_explain_analyze(result)
        assert "late materialization:" in text
        assert "compressed scan" in text

    def test_optimizer_estimates_carry_scan_notes(self, database):
        from repro.engines import make_engine
        from repro.engines.estimate import EstimateRuntime
        from repro.hardware import GTX970, PCIE3
        from repro.optimizer import Advisor, CostEstimator
        from repro.plan.pipelines import extract_pipelines

        policy = CompressionPolicy("lazy")
        query = extract_pipelines(ssb_plan("q1.1", database), database)
        advice = Advisor(GTX970, PCIE3, compression=policy).advise(
            query, database
        )
        notes = [
            note
            for pipe in advice.estimate.pipelines
            for note in pipe.scan_notes
        ]
        assert any("compressed scan" in note for note in notes)
        assert any("register decode" in note for note in notes)
        # The fused estimate undercuts the same engine's plain one on
        # global traffic for this selective query.
        plain = Advisor(GTX970, PCIE3).advise(
            query, database, engine=advice.chosen.engine
        )
        assert advice.estimate.global_bytes < plain.estimate.global_bytes
        # It comes out of the kernels execution runs: price the plan as
        # the advisor did and compare launch by launch.  Everything late
        # materialization decides — the column traffic — is within 1 %
        # of execution.  The hash table's slot traffic is priced from
        # the linear-probing expectation, which this 365-key table's own
        # layout undercuts by 5 % (3 % of the query); with the measured
        # layout and cardinalities injected every meter is the executed
        # one (tests/test_estimate_fidelity.py, case "q1.1").
        estimator = CostEstimator(GTX970, PCIE3, compression=policy)
        runtime = EstimateRuntime(
            estimator.cost_model, estimator.interconnect, database, estimator, policy
        )
        engine = make_engine(advice.chosen.engine)
        for pipeline in query.pipelines:
            engine.estimate_pipeline(pipeline, runtime)
        priced = runtime.device.log.kernels
        assert sum(trace.global_bytes for trace in priced) == advice.estimate.global_bytes
        observed = connect(
            database, engine=advice.chosen.engine, compression="lazy"
        ).execute(ssb_plan("q1.1", database))

        def column_bytes(kernels):
            return sum(trace.global_bytes - trace.meter.table_bytes for trace in kernels)

        assert column_bytes(priced) == pytest.approx(
            column_bytes(observed.profile.kernels), rel=0.01
        )

    def test_eager_loads_are_not_priced_for_late_materialization(self, database):
        """A pipeline its engine decodes at load runs ``lazy`` exactly
        as it runs ``auto``; the estimator must price it that way too."""
        from dataclasses import asdict

        from repro.engines import ENGINE_FACTORIES, make_engine
        from repro.hardware import GTX970, PCIE3
        from repro.optimizer.cost import CostEstimator, StrategyChoice
        from repro.plan.pipelines import extract_pipelines

        plan = ssb_plan("q1.1", database)
        query = extract_pipelines(plan, database)
        for name in ENGINE_FACTORIES:
            engine = make_engine(name)
            capable = [engine.lazy_capable(pipe) for pipe in query.pipelines]
            auto, lazy = (
                CostEstimator(
                    GTX970, PCIE3, compression=CompressionPolicy(mode)
                ).estimate(query, database, StrategyChoice(engine=name))
                for mode in ("auto", "lazy")
            )
            for deferred, eager, can in zip(lazy.pipelines, auto.pipelines, capable):
                label = f"{name}/{eager.name}"
                if can:
                    assert deferred.scan_notes, label
                else:
                    assert asdict(deferred) == asdict(eager), label
            if not any(capable):
                assert asdict(lazy) == asdict(auto), name
            # The flag is the engine's own: it scans wire images exactly
            # when it says some pipeline may.
            run = connect(database, engine=name, compression="lazy").execute(plan)
            assert (run.compression.compressed_scans > 0) == any(capable), name
        # Only the materializing engines decode at load.
        assert {
            name
            for name in ENGINE_FACTORIES
            if not make_engine(name).lazy_capable(query.pipelines[-1])
        } == {"operator-at-a-time", "cpu"}
