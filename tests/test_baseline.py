"""The simulated-clock pin: one store, one writer, one exact check.

The matrix is measured once per run (``baseline_matrix``, conftest) and
injected; record / check / CLI plumbing runs on it through a patched
:func:`~repro.telemetry.baseline.measure`.  A few tests re-measure a
small slice: plainly, and with one kernel's traffic one byte off.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.hardware.device import VirtualCoprocessor
from repro.hardware.traffic import MemoryLevel, TrafficMeter
from repro.telemetry import baseline
from repro.telemetry.baseline import (
    DEFAULT_BASELINE_PATH,
    check_baselines,
    load_baselines,
    measure,
    record_baselines,
)

COMMITTED = str(Path(__file__).parent.parent / DEFAULT_BASELINE_PATH)


@pytest.fixture()
def recorded(tmp_path, monkeypatch, baseline_matrix):
    """``(path, store)`` as :func:`record_baselines` writes it, from a
    copy of the injected matrix (tests perturb it)."""
    monkeypatch.setattr(
        baseline, "measure", lambda keys=None, dump=None: copy.deepcopy(baseline_matrix)
    )
    path = str(tmp_path / "perf_baselines.json")
    return path, record_baselines(path=path)


class TestRecord:
    def test_store_shape(self, recorded):
        _, store = recorded
        cases = store["cases"]
        fleet = {case for case in cases if case.startswith("fleet:")}
        streamed = {case for case in cases if case.startswith("stream:")}
        assert store["version"] == 2
        assert (len(cases), len(fleet), len(streamed)) == (448, 12, 26)
        # The 18 cases the store held at SF 0.002 (resolution engine).
        for name in ("ssb:q1.1", "ssb:q2.1", "ssb:q3.2", "ssb:q4.1", "tpch:q1", "tpch:q6"):
            for compression in ("off", "auto"):
                assert f"{name}|resolution|{compression}" in cases
        # Empty results are pinned too.
        assert sum(row["rows"] == 0 for row in cases.values()) == 70
        for case, row in cases.items():
            assert repr(float(row["total_ms"])) == row["total_ms"]
            assert repr(float(row["kernel_ms"])) == row["kernel_ms"]
            assert ("peak_alloc_bytes" in row) == (case not in fleet)
            assert len(row.get("share_busy_ms", [0] * 4)) == 4

    def test_written_file_round_trips(self, recorded):
        path, store = recorded
        assert load_baselines(path) == json.loads(Path(path).read_text()) == store

    def test_load_rejects_garbage(self, tmp_path, recorded):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_baselines(str(tmp_path / "nope.json"))
        path, store = recorded
        mistyped = copy.deepcopy(store)
        mistyped["cases"]["ssb:q1.1|resolution|off"]["launches"] = "3f0633c74dca03e163f7"
        for bad, problem in (
            ({}, "missing 'cases'"),
            (dict(store, version=99), "version 99, expected 2"),
            (mistyped, "has launches = '3f0633c74dca03e163f7'"),
        ):
            Path(path).write_text(json.dumps(bad))
            with pytest.raises(ConfigurationError) as info:
                load_baselines(path)
            assert str(info.value).startswith(f"{path} is not a baseline store")
            assert problem in str(info.value)

    def test_measurement_is_deterministic(self, baseline_matrix):
        keys = [
            "ssb:q1.1|resolution|auto", "edge:left-default|vector|off", "fleet:q2.1|loss",
            "stream:q4.1|auto",
        ]
        assert measure(keys) == {key: baseline_matrix[key] for key in keys}


#: ``compound_pipeline0`` is the first pipeline of a compound engine's
#: plan; the operator-at-a-time and multipass cases never launch it, nor
#: does a pooled fleet's warm turn of q3.1 (its pools serve that build).
MUTATED = "compound_pipeline0"
SLICE = (
    "ssb:q1.1|resolution|off",
    "ssb:q2.1|operator-at-a-time|auto",
    "tpch:q6|multipass|auto",
    "micro:star-join|vector|auto",
    "fleet:q3.1|residency-cold",
    "fleet:q3.1|residency-warm",
    "stream:q2.1|auto",
)


class TestCheck:
    def test_clean_remeasure_passes(self, recorded):
        """A fresh measurement of a slice passes against the recorded
        file (the rest of the rows are the recorded ones)."""
        path, store = recorded
        report = check_baselines(path, current={**store["cases"], **measure(SLICE)})
        assert report.passed, report.render()
        assert not report.missing and not report.unexpected
        assert report.render().startswith("baseline check: PASS (448 cases, ")

    def test_perturbed_fingerprint_fails_with_drift_report(self, recorded):
        _, store = recorded
        case = "ssb:q1.1|resolution|off"
        current = copy.deepcopy(store["cases"])
        pinned = current[case]["launch_digest"]
        current[case]["launch_digest"] = "0" * 20
        report = check_baselines(store, current=current)
        assert not report.passed
        assert report.drifted == {case: {"launch_digest": (pinned, "0" * 20)}}
        rendered = report.render()
        assert "FAIL" in rendered and "1 drifted" in rendered
        assert f"DRIFT    {case} launch_digest: '{pinned}' -> '{'0' * 20}'" in rendered

    def test_byte_metrics_have_zero_tolerance(self, recorded):
        _, store = recorded
        current = copy.deepcopy(store["cases"])
        current["tpch:q6|resolution|auto"]["input_bytes"] += 1
        report = check_baselines(store, current=current)
        assert {case: list(moved) for case, moved in report.drifted.items()} == {
            "tpch:q6|resolution|auto": ["input_bytes"]
        }

    def test_time_has_no_band(self, recorded):
        """A 0.5 % drift of a simulated time fails, and so does one ulp:
        times are exact ``repr`` text compared with ``==``."""
        _, store = recorded
        for case, name in (
            ("ssb:q2.1|resolution|off", "kernel_ms"),
            ("fleet:q3.1|plain", "makespan_ms"),
        ):
            pinned = store["cases"][case][name]
            for moved in (float(pinned) * 1.005, math.nextafter(float(pinned), math.inf)):
                current = copy.deepcopy(store["cases"])
                current[case][name] = repr(moved)
                report = check_baselines(store, current=current)
                assert report.drifted == {case: {name: (pinned, repr(moved))}}

    def test_missing_and_unexpected_queries_fail(self, recorded):
        _, store = recorded
        current = copy.deepcopy(store["cases"])
        current["ssb:q9.9|resolution|off"] = current.pop("ssb:q4.1|resolution|off")
        report = check_baselines(store, current=current)
        assert not report.passed
        assert report.missing == ["ssb:q4.1|resolution|off"]
        assert report.unexpected == ["ssb:q9.9|resolution|off"]
        rendered = report.render()
        assert "MISSING  ssb:q4.1|resolution|off" in rendered
        assert "NEW      ssb:q9.9|resolution|off" in rendered

    def test_one_more_global_byte_fails_exactly_the_cases_that_launch_it(
        self, monkeypatch, tmp_path
    ):
        """A pin that stops covering per-launch traffic fails here."""
        launch = VirtualCoprocessor.launch

        def one_more_byte(self, name, kind, elements, meter, occupancy=1.0):
            if MUTATED in name.split("+"):
                meter, original = TrafficMeter(), meter
                meter.merge(original)
                meter.record_read(MemoryLevel.GLOBAL, 1)
            return launch(self, name, kind, elements, meter, occupancy)

        monkeypatch.setattr(VirtualCoprocessor, "launch", one_more_byte)
        dump = tmp_path / "launches.json"
        pinned = load_baselines(COMMITTED)["cases"]
        report = check_baselines(
            {"cases": {case: pinned[case] for case in SLICE}},
            current=measure(SLICE, dump=str(dump)),
        )
        # A fused launch of sibling builds is named after every member.
        launched = {
            case
            for case, row in json.loads(dump.read_text()).items()
            if any(MUTATED in name.split("+") for name, _, _ in row["launch_list"])
        }
        assert launched and launched != set(SLICE)
        assert set(report.drifted) == launched
        assert all("launch_digest" in report.drifted[case] for case in launched)
        assert f"{sorted(launched)[0]} launch_digest" in report.render()


class TestCommittedBaselines:
    def test_committed_store_matches_main(self, baseline_matrix):
        """The committed store equals this tree's measurement, case for
        case — the gate CI applies with ``repro baseline check``."""
        report = check_baselines(COMMITTED, current=baseline_matrix)
        assert report.passed, report.render()


class TestCli:
    def test_record_then_check(self, tmp_path, capsys, monkeypatch, baseline_matrix):
        dumps = []

        def measured(keys=None, dump=None):
            dumps.append(dump)
            return copy.deepcopy(baseline_matrix)

        monkeypatch.setattr(baseline, "measure", measured)
        path = str(tmp_path / "bl.json")
        assert main(["baseline", "record", "--baseline", path]) == 0
        assert f"recorded 448 cases to {path}" in capsys.readouterr().out
        assert main(["baseline", "check", "--baseline", path, "--dump", "l.json"]) == 0
        assert "PASS (448 cases" in capsys.readouterr().out
        assert dumps == [None, "l.json"]

    def test_check_fails_on_tampered_store(self, recorded, capsys):
        path, store = recorded
        store["cases"]["ssb:q1.1|resolution|off"]["launches"] += 2
        Path(path).write_text(json.dumps(store))
        assert main(["baseline", "check", "--baseline", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "ssb:q1.1|resolution|off launches" in out

    def test_check_missing_store_is_config_error(self, recorded, capsys):
        assert main(["baseline", "check", "--baseline", "/no/such.json"]) == 2
        assert "error:" in capsys.readouterr().err
        path, store = recorded
        mistyped = copy.deepcopy(store)
        mistyped["cases"]["fleet:q2.1|plain"]["rows"] = "3f06"
        for bad in (dict(store, version=99), mistyped):
            Path(path).write_text(json.dumps(bad))
            assert main(["baseline", "check", "--baseline", path]) == 2
            assert f"error: {path} is not a baseline store" in capsys.readouterr().err
