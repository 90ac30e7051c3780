"""The benchmark command: ``python3 perf/run.py``.

With ``--workload NAME`` it runs that workload in this process and
prints every metric by name with unit and clock; the last line of
standard output is the JSON object the benchmark driver reads
(``--trace 0``: the end-to-end metrics, ``--trace 1``: the per-layer
metrics).  Without ``--workload`` it runs every workload, each in its
own child process, and can save the run set with ``--out``.

Exit status is non-zero when any result differed from its reference,
any operation failed, or the simulated clock was not deterministic.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf import harness  # noqa: E402
from perf.metrics import BY_NAME  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="record layer spans and print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="SF 0.002, one round, same checks; numbers are not comparable")
    parser.add_argument("--out", help="write the run set as JSON (all-workloads mode)")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite perf/expected/digests.json for this seed")
    return parser.parse_args(argv)


def print_table(outcome: harness.Outcome) -> None:
    kind = "per-layer (traced run)" if outcome.trace else "end-to-end"
    note = "  SMOKE: numbers are not comparable" if outcome.smoke else ""
    print(f"== {outcome.workload}  seed {outcome.seed}  {kind}{note}")
    print(
        f"   rounds {outcome.rounds}  latency samples {outcome.samples}  "
        f"attempted {outcome.attempted}  failed {outcome.failed}  "
        f"failed_share {outcome.failed / max(outcome.attempted, 1):.6f}"
    )
    for name, value in outcome.metrics.items():
        metric = BY_NAME[name]
        print(f"   {name:<38s} {value:>18.6f} {metric.unit:<6s} [{metric.clock}]")
    for label, value in outcome.notes.items():
        print(f"   ({label}: {value:.3f})")
    for problem in outcome.problems:
        print(f"   PROBLEM: {problem}")


def result_line(outcome: harness.Outcome) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": BY_NAME[name].unit}
            for name, value in outcome.metrics.items()
        },
    })


def run_one(args) -> int:
    outcome = harness.Run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        update_expected=args.update_expected,
    ).run()
    print_table(outcome)
    print(result_line(outcome))
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Every workload in its own child process (one load generator at a
    time, so the workloads do not share caches, pools or heap)."""
    run_set = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = run_set["workloads"][name] = {}
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            command += ["--smoke"] if args.smoke else []
            command += ["--update-expected"] if args.update_expected else []
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0:
                status = 1
            if lines and lines[-1].startswith("{"):
                result = json.loads(lines[-1])
                entry["per_layer" if trace else "end_to_end"] = {
                    name: metric["value"] for name, metric in result["metrics"].items()
                }
                entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
                entry["failed"] = entry.get("failed", 0) + result["failed"]
    if args.out:
        Path(args.out).write_text(json.dumps(run_set, indent=1) + "\n")
    verdict = "all outputs correct" if status == 0 else "FAILED: see PROBLEM lines"
    print(f"== {len(WORKLOADS)} workloads, {verdict}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
