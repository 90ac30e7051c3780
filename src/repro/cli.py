"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``devices``
    List the built-in coprocessor profiles (Table 2).
``query``
    Run a SQL query against a generated SSB or TPC-H database on a
    chosen device/engine; prints rows plus the paper's metrics.
``explain``
    Show the fusion-operator (pipeline) decomposition of a query.
``bench``
    Run one named SSB/TPC-H benchmark query under all three micro
    execution models and print the Figure 19/20-style row.
``generate``
    Generate an SSB/TPC-H database once and persist it; ``query``/
    ``explain``/``bench`` accept ``--data-dir`` to reuse it.
``experiment``
    Regenerate one of the paper's tables/figures by name
    (``table1``..``table4``, ``fig5``..``fig27``), or ``all``.
``metrics``
    Run the 13 SSB queries through a server (``--devices`` fleets,
    fault plans and the flight recorder as for ``query``) and print its
    Prometheus text exposition (latency histograms, cache counters).
``log``
    Tail a structured event-log JSONL file (written by
    ``query --events-out`` / ``metrics --events-out``), with
    ``--kind`` / ``--query`` filters.
``baseline``
    Record (``baseline record``) or check (``baseline check``, exact)
    the one committed simulated-clock pin: 448 cases, one row each.
``replay``
    Re-execute a post-mortem bundle's query deterministically and
    verify the outcome byte-for-byte against the recorded checksums.

``query --trace-out trace.json`` records the execution's span tree as
Chrome trace-event JSON (open in Perfetto / ``chrome://tracing``);
``explain --analyze`` runs the query and prints the per-pipeline
rows/bytes/time table.  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import format_table
from .api import ENGINE_FACTORIES, Session
from .errors import ConfigurationError, ReproError
from .engines import CompoundEngine, MultiPassEngine, OperatorAtATimeEngine
from .hardware import list_profiles
from .storage import save_database
from .workloads import SSB_QUERIES, TPCH_PLANS, database_from_recipe, ssb_plan, tpch_plan


def _engine_choices() -> list:
    """Engine aliases plus the adaptive optimizer's ``auto``."""
    return sorted(ENGINE_FACTORIES) + ["auto"]


def _devices_arg(value: str):
    """``--devices`` accepts an integer or ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1 or 'auto', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HorseQC reproduction: pipelined query processing on a simulated coprocessor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list built-in device profiles")

    for name, description in (
        ("query", "run a SQL query and print rows + metrics"),
        ("explain", "show the fusion-operator pipeline decomposition"),
    ):
        cmd = sub.add_parser(name, help=description)
        cmd.add_argument("sql", help="the SQL text (quote it)")
        _add_common(cmd)
        if name == "query":
            cmd.add_argument(
                "--trace-out", default=None, metavar="PATH",
                help="write the execution's span tree as Chrome "
                "trace-event JSON (open in Perfetto)",
            )
            _add_recorder_options(cmd)
        else:
            cmd.add_argument(
                "--analyze", action="store_true",
                help="run the query and show per-pipeline rows, bytes, "
                "and simulated vs host time",
            )

    bench = sub.add_parser(
        "bench", help="run one SSB/TPC-H query under all three micro models"
    )
    bench.add_argument(
        "query",
        help=f"query name: one of {', '.join(sorted(SSB_QUERIES))} (SSB) "
        f"or {', '.join(sorted(TPCH_PLANS))} (TPC-H, --workload tpch)",
    )
    _add_common(bench)

    generate = sub.add_parser(
        "generate", help="generate a database once and persist it to disk"
    )
    generate.add_argument("out", help="output directory")
    generate.add_argument("--workload", choices=("ssb", "tpch"), default="ssb")
    generate.add_argument("--scale-factor", type=float, default=0.01)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--skew", type=float, default=0.0,
        help="Zipf skew for SSB foreign keys (default: 0 = uniform)",
    )

    from .experiments import EXPERIMENTS

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument(
        "name", choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment name (or 'all')",
    )
    experiment.add_argument(
        "--scale-factor", type=float, default=None,
        help="workload scale factor (default: each experiment's default)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run a small SSB workload through a server and print "
        "Prometheus metrics",
    )
    metrics.add_argument(
        "--scale-factor", type=float, default=0.001,
        help="SSB scale factor (default: 0.001)",
    )
    metrics.add_argument(
        "--passes", type=int, default=2,
        help="passes over the 13 SSB queries (default: 2)",
    )
    metrics.add_argument(
        "--workers", type=int, default=2,
        help="server worker threads (default: 2)",
    )
    metrics.add_argument(
        "--device", default="gtx970", help="device profile (default: gtx970)",
    )
    _add_engine_option(metrics)
    _add_fleet_options(metrics)
    _add_fault_options(metrics)
    metrics.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the exposition to a file",
    )
    metrics.add_argument(
        "--recorder", action="store_true",
        help="run the server with the flight recorder on (failures "
        "write post-mortem bundles)",
    )
    _add_recorder_options(metrics)

    log = sub.add_parser(
        "log", help="tail a structured event-log JSONL file"
    )
    log.add_argument("path", help="event-log JSONL file (see --events-out)")
    log.add_argument(
        "-n", "--tail", type=int, default=20, metavar="N",
        help="show the last N events (default: 20; 0 = all)",
    )
    log.add_argument(
        "--kind", default=None,
        help="only events of this kind (e.g. query.executed)",
    )
    log.add_argument(
        "--query", default=None,
        help="only events of this query id (e.g. q-000003)",
    )
    log.add_argument(
        "--json", action="store_true",
        help="print raw JSON lines instead of the aligned view",
    )

    baseline = sub.add_parser(
        "baseline",
        help="record or check the simulated-clock pin (448 cases, exact)",
    )
    baseline.add_argument(
        "action", choices=("record", "check"),
        help="'record' measures and writes the store; 'check' "
        "measures and compares it exactly",
    )
    baseline.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline store (default: benchmarks/baselines/"
        "perf_baselines.json)",
    )
    baseline.add_argument(
        "--dump", default=None, metavar="FILE",
        help="with 'check': also write every case's launches in full to "
        "FILE (diff two commits' dumps when a launch digest drifts)",
    )

    replay = sub.add_parser(
        "replay",
        help="re-execute a post-mortem bundle and verify byte-identity",
    )
    replay.add_argument("bundle", help="bundle directory (see postmortems/)")
    replay.add_argument(
        "--data-dir", default=None,
        help="load a persisted database instead of the bundle's "
        "generator recipe",
    )
    replay.add_argument(
        "--device", default=None,
        help="override the bundle's device profile name",
    )
    return parser


def _add_common(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--workload", choices=("ssb", "tpch"), default="ssb",
        help="which database to generate (default: ssb)",
    )
    cmd.add_argument(
        "--scale-factor", type=float, default=0.01,
        help="workload scale factor (default: 0.01)",
    )
    cmd.add_argument(
        "--device", default="gtx970",
        help="device profile name (default: gtx970)",
    )
    _add_engine_option(cmd)
    cmd.add_argument(
        "--limit", type=int, default=20, help="max rows to print (default: 20)"
    )
    cmd.add_argument(
        "--data-dir", default=None,
        help="load a persisted database (see 'generate') instead of generating",
    )
    cmd.add_argument(
        "--residency", action="store_true",
        help="keep base columns device-resident between queries (buffer "
        "pool with cost-aware eviction and out-of-core fallback)",
    )
    _add_fleet_options(cmd)
    cmd.add_argument(
        "--compression", default="off", metavar="MODE",
        help="wire compression for host<->device transfers: 'auto' "
        "samples a codec per column ('lazy' is an alias), a codec name "
        "(rle, forpack, delta, dictionary, passthrough) pins it, 'off' "
        "disables (default: off)",
    )
    _add_fault_options(cmd)


def _add_engine_option(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--engine", default="resolution", choices=_engine_choices(),
        help="execution engine; 'auto' enables the adaptive "
        "cost-based optimizer (default: resolution)",
    )


def _add_fleet_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--devices", type=_devices_arg, default=1,
        help="simulated device count (per server worker); > 1 "
        "partitions the fact table across a scale-out fleet and merges "
        "partials; 'auto' lets the optimizer pick per query (default: 1)",
    )
    cmd.add_argument(
        "--partitioning", choices=("range", "hash"), default="range",
        help="fact-table partitioning scheme for --devices > 1 "
        "(default: range)",
    )


def _add_fault_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="arm a deterministic fault-injection plan (JSON, see "
        "docs/fault-tolerance.md); queries route through the "
        "scale-out executor's recovery path",
    )
    cmd.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="same-device retries per morsel before redistribution "
        "(default: 2)",
    )
    cmd.add_argument(
        "--backoff-ms", type=float, default=None, metavar="MS",
        help="base of the capped exponential retry backoff "
        "(default: 1.0)",
    )
    cmd.add_argument(
        "--morsel-timeout-ms", type=float, default=None, metavar="MS",
        help="treat a morsel stalled past this simulated delay as "
        "failed (default: no timeout)",
    )


def _add_recorder_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="write the recorded queries' events as JSONL (tail it with "
        "'repro log')",
    )
    cmd.add_argument(
        "--postmortem-dir", default=None, metavar="DIR",
        help="flight-recorder bundle directory (default: postmortems/); "
        "implies the recorder is on",
    )


def _recorder(args, database_recipe: dict):
    """A :class:`~repro.telemetry.FlightRecorder` when any recorder
    flag is set, else None."""
    if not (
        getattr(args, "recorder", False)
        or args.events_out
        or args.postmortem_dir
    ):
        return None
    from .telemetry import FlightRecorder

    return FlightRecorder(
        postmortem_dir=args.postmortem_dir or "postmortems",
        database_recipe=database_recipe,
    )


def _database_recipe(args) -> dict:
    """The database the flags name, as a recipe
    (:func:`~repro.workloads.database_from_recipe`): what the commands
    build, and what flight-recorder bundles record for replay."""
    if getattr(args, "data_dir", None):
        return {"data_dir": args.data_dir}
    if getattr(args, "workload", "ssb") == "tpch":
        return {"workload": "tpch", "scale_factor": args.scale_factor, "seed": 11}
    return {"workload": "ssb", "scale_factor": args.scale_factor, "seed": 7}


def _finish_recorder(recorder, args) -> None:
    """Write ``--events-out`` and surface bundle paths."""
    if recorder is None:
        return
    if args.events_out:
        with open(args.events_out, "w", encoding="utf-8") as handle:
            handle.write(recorder.events_jsonl())
        print(f"wrote event log to {args.events_out}", file=sys.stderr)
    for record in recorder.records(status="failed"):
        bundle = record.strategy.get("bundle")
        if bundle:
            print(f"wrote post-mortem bundle to {bundle}", file=sys.stderr)


def _fault_kwargs(args) -> dict:
    """Build the Session/Server fault keywords from CLI flags
    (:class:`~repro.faults.RetryPolicy` validates the knobs and raises
    :class:`~repro.errors.ConfigurationError` on bad values)."""
    kwargs: dict = {"fault_plan": args.fault_plan, "retry_policy": None}
    overrides = {
        key: value
        for key, value in (
            ("max_retries", args.max_retries),
            ("backoff_base_ms", args.backoff_ms),
            ("morsel_timeout_ms", args.morsel_timeout_ms),
        )
        if value is not None
    }
    if overrides:
        from .faults import RetryPolicy

        kwargs["retry_policy"] = RetryPolicy(**overrides)
    return kwargs


def _cmd_devices(_args) -> int:
    rows = [
        [
            profile.name, profile.kind, profile.architecture,
            profile.compute_units, profile.scratchpad_per_unit // 1024,
            round(profile.global_bandwidth, 1),
            round(profile.memory_capacity / 1e9, 1),
        ]
        for profile in list_profiles()
    ]
    print(
        format_table(
            ["name", "kind", "architecture", "cores", "scratchpad (KB)",
             "bandwidth (GB/s)", "memory (GB)"],
            rows,
            title="Built-in device profiles",
        )
    )
    return 0


def _session(args, database, **overrides) -> Session:
    """The :class:`Session` the common flags (:func:`_add_common`)
    describe; ``overrides`` replace individual keywords."""
    config = dict(
        device=args.device,
        engine=args.engine,
        residency=args.residency,
        devices=args.devices,
        partitioning=args.partitioning,
        compression=args.compression,
        **_fault_kwargs(args),
    )
    config.update(overrides)
    return Session(database, **config)


def _cmd_query(args) -> int:
    recipe = _database_recipe(args)
    recorder = _recorder(args, recipe)
    session = _session(args, database_from_recipe(recipe), recorder=recorder)
    try:
        if args.trace_out:
            from .telemetry import tracing

            with tracing():
                result = session.execute(args.sql)
        else:
            result = session.execute(args.sql)
    finally:
        _finish_recorder(recorder, args)
    for row in result.table.head(args.limit):
        print(row)
    if result.table.num_rows > args.limit:
        print(f"... ({result.table.num_rows} rows total)")
    print()
    print(result.summary())
    if result.optimizer is not None:
        decision = result.optimizer
        print(
            f"optimizer: {decision.describe()}  "
            f"(predicted {decision.predicted_ms:.3f} ms, "
            f"observed {decision.observed_ms:.3f} ms)"
        )
    if result.compression is not None:
        print(f"compression: {result.compression.summary()}")
    if result.scaleout is not None:
        print(f"scaleout: {result.scaleout.summary()}")
        recovery = result.scaleout.recovery
        if recovery is not None and recovery.faulted:
            print(f"recovery: {recovery.summary()}")
    if args.residency:
        stats = session.placement_stats()
        if stats is not None:
            print(f"placement: {stats.summary()}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(result.trace.chrome_json())
        print(
            f"wrote Chrome trace ({len(result.trace.timeline())} spans) "
            f"to {args.trace_out}"
        )
    return 0


def _cmd_explain(args) -> int:
    session = _session(args, database_from_recipe(_database_recipe(args)))
    print(session.explain(args.sql, analyze=args.analyze))
    return 0


def _cmd_bench(args) -> int:
    database = database_from_recipe(_database_recipe(args))
    if args.workload == "tpch":
        plan = tpch_plan(args.query, database)
    else:
        plan = ssb_plan(args.query, database)
    rows = []
    pcie = membound = 0.0
    for label, engine in (
        ("Operator-at-a-time", OperatorAtATimeEngine()),
        ("HorseQC: Multi-pass", MultiPassEngine()),
        ("HorseQC: Fully pipelined", CompoundEngine("lrgp_simd")),
    ):
        result = _session(args, database, engine=engine).execute(plan)
        rows.append(
            [
                label,
                round(result.kernel_ms, 4),
                round(result.global_memory_bytes / 1e6, 2),
                f"{result.kernel_ms / result.pcie_ms * 100:.0f}%",
            ]
        )
        pcie, membound = result.pcie_ms, result.memory_bound_ms
    print(
        format_table(
            ["engine", "kernel (ms)", "GPU global (MB)", "of PCIe time"],
            rows,
            title=(
                f"{args.workload} {args.query} on {args.device} "
                f"(SF {args.scale_factor}; PCIe {pcie:.4f} ms, "
                f"memory bound {membound:.4f} ms)"
            ),
            float_format="{:.4f}",
        )
    )
    return 0


def _cmd_generate(args) -> int:
    recipe = {"workload": args.workload, "scale_factor": args.scale_factor, "seed": args.seed}
    if args.skew:
        if args.workload == "tpch":
            raise SystemExit("--skew is only supported for the SSB workload")
        recipe["skew"] = args.skew
    database = database_from_recipe(recipe)
    catalog = save_database(database, args.out)
    total_rows = sum(database[name].num_rows for name in database.table_names)
    print(
        f"wrote {len(database.table_names)} tables, {total_rows} rows, "
        f"{database.nbytes / 1e6:.1f} MB to {catalog.parent}"
    )
    return 0


def _cmd_experiment(args) -> int:
    import inspect

    from .experiments import EXPERIMENTS

    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        function, title = EXPERIMENTS[name]
        kwargs = {}
        if (
            args.scale_factor is not None
            and "scale_factor" in inspect.signature(function).parameters
        ):
            kwargs["scale_factor"] = args.scale_factor
        print("=" * 78)
        print(f"{name}: {title}")
        print("=" * 78)
        print(function(**kwargs).text())
    return 0


def _cmd_metrics(args) -> int:
    from .serving import Server

    recipe = _database_recipe(args)
    database = database_from_recipe(recipe)
    names = sorted(SSB_QUERIES)
    workload = [SSB_QUERIES[name] for name in names]
    recorder = _recorder(args, recipe)
    try:
        with Server(
            database,
            device=args.device,
            engine=args.engine,
            workers=args.workers,
            queue_size=len(workload) + 1,
            devices=args.devices,
            partitioning=args.partitioning,
            recorder=recorder,
            **_fault_kwargs(args),
        ) as server:
            for _ in range(max(1, args.passes)):
                server.execute_many(workload)
            text = server.metrics_text()
            summary = server.stats().summary()
    finally:
        _finish_recorder(recorder, args)
    print(text)
    print(f"# {summary}".replace("\n", "\n# "), file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _cmd_log(args) -> int:
    from .telemetry.events import load_jsonl

    try:
        events = load_jsonl(args.path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.kind:
        events = [event for event in events if event.kind == args.kind]
    if args.query:
        events = [event for event in events if event.query == args.query]
    if args.tail > 0:
        events = events[-args.tail:]
    for event in events:
        if args.json:
            print(event.to_json())
        else:
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(event.attrs.items())
            )
            print(
                f"{event.seq:>6}  {event.query or '-':<10} "
                f"{event.kind:<22} {attrs}"
            )
    return 0


def _cmd_baseline(args) -> int:
    from .telemetry.baseline import (
        DEFAULT_BASELINE_PATH,
        check_baselines,
        record_baselines,
    )

    path = args.baseline or DEFAULT_BASELINE_PATH
    if args.action == "record":
        store = record_baselines(path=path)
        print(f"recorded {len(store['cases'])} cases to {path}")
        return 0
    report = check_baselines(path, dump=args.dump)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_replay(args) -> int:
    from .telemetry.recorder import replay_bundle

    report = replay_bundle(
        args.bundle, data_dir=args.data_dir, device=args.device
    )
    print(report.render())
    return 0 if report.matched else 1


_COMMANDS = {
    "devices": _cmd_devices,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "bench": _cmd_bench,
    "generate": _cmd_generate,
    "experiment": _cmd_experiment,
    "metrics": _cmd_metrics,
    "log": _cmd_log,
    "baseline": _cmd_baseline,
    "replay": _cmd_replay,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
