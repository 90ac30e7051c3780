"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "select 1 from t"])
        assert args.workload == "ssb"
        assert args.device == "gtx970"
        assert args.engine == "resolution"

    def test_engine_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "select 1", "--engine", "magic"])


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "GTX970" in out
        assert "146.1" in out

    def test_query(self, capsys):
        code = main(
            [
                "query",
                "select sum(lo_revenue) as r from lineorder",
                "--scale-factor", "0.002",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kernels" in out

    def test_query_row_limit(self, capsys):
        main(
            [
                "query",
                "select d_year, sum(lo_revenue) as r from lineorder, date "
                "where lo_orderdate = d_datekey group by d_year",
                "--scale-factor", "0.002",
                "--limit", "2",
            ]
        )
        out = capsys.readouterr().out
        assert "rows total" in out

    def test_explain(self, capsys):
        code = main(
            ["explain", "select sum(lo_revenue) as r from lineorder",
             "--scale-factor", "0.002"]
        )
        assert code == 0
        assert "aggregate" in capsys.readouterr().out

    def test_bench_ssb(self, capsys):
        code = main(["bench", "q1.1", "--scale-factor", "0.002"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fully pipelined" in out
        assert "PCIe" in out

    def test_bench_tpch(self, capsys):
        code = main(
            ["bench", "q6", "--workload", "tpch", "--scale-factor", "0.002"]
        )
        assert code == 0
        assert "Operator-at-a-time" in capsys.readouterr().out

    def test_bench_on_other_device(self, capsys):
        code = main(
            ["bench", "q1.1", "--device", "a10", "--scale-factor", "0.002"]
        )
        assert code == 0
        assert "a10" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_and_reuse(self, tmp_path, capsys):
        out = str(tmp_path / "db")
        assert main(["generate", out, "--scale-factor", "0.002"]) == 0
        assert "tables" in capsys.readouterr().out
        code = main(
            ["query", "select sum(lo_revenue) as r from lineorder",
             "--data-dir", out]
        )
        assert code == 0

    def test_generate_tpch(self, tmp_path, capsys):
        out = str(tmp_path / "tpch")
        assert main(["generate", out, "--workload", "tpch",
                     "--scale-factor", "0.002"]) == 0
        code = main(
            ["bench", "q6", "--workload", "tpch", "--data-dir", out]
        )
        assert code == 0

    def test_skew_rejected_for_tpch(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", str(tmp_path / "x"), "--workload", "tpch",
                  "--skew", "0.5"])

    def test_generate_skewed_ssb(self, tmp_path, capsys):
        out = str(tmp_path / "skewed")
        assert main(["generate", out, "--skew", "0.4",
                     "--scale-factor", "0.002"]) == 0


class TestExperimentCommand:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "GTX970" in out

    def test_scale_factor_passthrough(self, capsys):
        assert main(["experiment", "fig5", "--scale-factor", "0.003"]) == 0
        assert "SF 0.003" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestErrorExitCodes:
    def test_sql_error_exits_one(self, capsys):
        assert main(["query", "SELEC oops", "--scale-factor", "0.002"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_parse_error_exits_one(self, capsys):
        assert main(["explain", "SELECT FROM", "--scale-factor", "0.002"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_configuration_error_exits_two(self, capsys):
        assert main(["query", "SELECT 1", "--scale-factor", "0.002",
                     "--device", "nonsense9000"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_data_dir_exits_one(self, capsys):
        assert main(["query", "SELECT 1", "--data-dir", "/no/such/dir"]) in (1, 2)
        assert "error:" in capsys.readouterr().err


class TestMetricsCommand:
    """``repro metrics`` serves the 13 SSB queries and writes the
    server's exposition — the ``serve-metrics.txt`` CI uploads."""

    ARGS = ["metrics", "--scale-factor", "0.001", "--passes", "1"]

    def _exposition(self, tmp_path, *flags):
        from repro.telemetry import parse_prometheus_text

        path = tmp_path / "serve-metrics.txt"
        assert main([*self.ARGS, "--out", str(path), *flags]) == 0
        return parse_prometheus_text(path.read_text())

    def test_exposition_counts_the_queries_served(self, tmp_path, capsys):
        series = self._exposition(tmp_path)
        assert series["repro_query_latency_ms_count"][0][1] == 13
        assert "repro_query_latency_ms_count" in capsys.readouterr().out

    def test_devices_flag_serves_through_a_fleet(self, tmp_path):
        series = self._exposition(tmp_path, "--devices", "2")
        assert any(name.startswith("repro_scaleout_") for name in series)

    def test_recorder_flags_write_a_correlated_event_log(self, tmp_path):
        from repro.telemetry.events import load_jsonl

        events = tmp_path / "events.jsonl"
        self._exposition(
            tmp_path, "--recorder", "--events-out", str(events),
            "--postmortem-dir", str(tmp_path / "postmortems"),
        )
        kinds: dict = {}
        for event in load_jsonl(str(events)):
            kinds.setdefault(event.query, set()).add(event.kind)
        assert len(kinds) == 13 and None not in kinds
        assert all(
            {"query.admitted", "query.executed"} <= seen
            for seen in kinds.values()
        )


class TestObservabilityCommands:
    SQL = "SELECT SUM(lo_revenue) AS rev FROM lineorder"

    def test_events_out_and_log_tail(self, tmp_path, capsys):
        events = str(tmp_path / "events.jsonl")
        assert main(["query", self.SQL, "--scale-factor", "0.002",
                     "--events-out", events]) == 0
        capsys.readouterr()
        assert main(["log", events]) == 0
        out = capsys.readouterr().out
        assert "query.planned" in out and "query.executed" in out

    def test_log_filters_and_json(self, tmp_path, capsys):
        events = str(tmp_path / "events.jsonl")
        main(["query", self.SQL, "--scale-factor", "0.002",
              "--events-out", events])
        capsys.readouterr()
        assert main(["log", events, "--kind", "query.executed",
                     "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        import json as _json

        event = _json.loads(lines[0])
        assert event["kind"] == "query.executed"
        assert event["attrs"]["status"] == "ok"

    def test_log_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n")
        assert main(["log", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_log_missing_file_exits_one(self, capsys):
        assert main(["log", "/no/such/events.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_replay_bundle_round_trip(self, tmp_path, capsys):
        """query --postmortem-dir + a forced capture + repro replay:
        the CLI end of the byte-identity acceptance loop."""
        import json as _json
        import os

        from repro.telemetry import FlightRecorder
        from repro.telemetry.recorder import replay_bundle  # noqa: F401

        postmortems = str(tmp_path / "pm")
        recorder = FlightRecorder(
            postmortem_dir=postmortems,
            database_recipe={"workload": "ssb", "scale_factor": 0.002,
                             "seed": 7},
        )
        from repro.api import Session
        from repro.workloads import generate_ssb

        session = Session(
            generate_ssb(0.002, seed=7), engine="resolution",
            recorder=recorder,
        )
        session.execute(self.SQL)
        bundle = recorder.capture(recorder.last(), name="cli-ok")
        assert main(["replay", bundle]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out and "byte-identical" in out
        # Tamper with the recorded checksum: replay must exit 1.
        manifest_path = os.path.join(bundle, "manifest.json")
        manifest = _json.load(open(manifest_path))
        manifest["expected"]["checksum"] = {
            column: "0" * 64
            for column in manifest["expected"]["checksum"]
        }
        with open(manifest_path, "w") as handle:
            _json.dump(manifest, handle)
        assert main(["replay", bundle]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_replay_missing_bundle_exits_two(self, capsys):
        assert main(["replay", "/no/such/bundle"]) == 2
        assert "error:" in capsys.readouterr().err
