"""Compare run sets of two commits (or of one commit with itself).

    python3 perf/run.py --trace --out parent-1.json      # on the parent
    python3 perf/run.py --trace --out change-1.json      # on the change
    ...                                                  # >= 10 pairs, alternating
    python3 perf/compare.py --parent parent-*.json --change change-*.json

For every workload and end-to-end metric it prints both sides' median
and quartiles, the change (positive = worse), the benchmark's bound and
a verdict by the rule of the ``choosing-metrics`` guide:

* ``REGRESSION`` — the change's median is worse by more than the bound;
* ``gain``       — the change wins >= 9/10 of the pairs and the medians
  differ by more than the parent's own interquartile distance;
* ``unresolved`` — the parent's spread is wider than the bound and not
  every run of the change beats every run of the parent;
* ``same``       — otherwise.

Simulated-clock metrics must repeat exactly at one seed: any difference
in ``sim_ms_total`` or an integer ``hardware.*`` count is listed as
``DRIFT``.  ``--write`` saves both sides as one trajectory row.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.accounting import EXACT  # noqa: E402
from perf.metrics import END_TO_END  # noqa: E402


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    low, _mid, high = statistics.quantiles(values, n=4)
    return low, high


def verdict(metric, parent, change) -> tuple[float, str]:
    """(relative worsening of the medians, verdict)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    worse = sign * (change_median - parent_median) / parent_median
    low, high = quartiles(parent)
    spread = high - low
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    if worse > metric.bound:
        return worse, "REGRESSION"
    decided = wins + losses
    if (
        len(pairs) >= 10
        and decided
        and wins >= 0.9 * decided
        and abs(change_median - parent_median) > spread
    ):
        return worse, "gain"
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread / parent_median > metric.bound and not all_better:
        return worse, "unresolved"
    return worse, "same"


def compare(parent_sets, change_sets) -> int:
    status = 0
    for name in parent_sets[0]["workloads"]:
        print(f"== {name}")
        for metric in END_TO_END:
            sides = [
                [s["workloads"][name]["end_to_end"][metric.name] for s in sets]
                for sets in (parent_sets, change_sets)
            ]
            worse, word = verdict(metric, *sides)
            (plow, phigh), (clow, chigh) = quartiles(sides[0]), quartiles(sides[1])
            print(
                f"   {metric.name:<20s} [{metric.clock:<4s}] "
                f"parent {statistics.median(sides[0]):11.4f} [{plow:.4f}, {phigh:.4f}]  "
                f"change {statistics.median(sides[1]):11.4f} [{clow:.4f}, {chigh:.4f}]  "
                f"worse by {worse * 100:+6.2f}% (bound {metric.bound * 100:.0f}%)  {word}"
            )
            if word == "REGRESSION":
                status = 1
        if parent_sets[0]["seed"] != change_sets[0]["seed"]:
            continue
        first = parent_sets[0]["workloads"][name]
        other = change_sets[0]["workloads"][name]
        exact = {"sim_ms_total": (first["end_to_end"], other["end_to_end"])}
        if "per_layer" in first and "per_layer" in other:
            exact.update(
                (key, (first["per_layer"], other["per_layer"]))
                for key in EXACT if key != "sim_ms_total"
            )
        for key, (left, right) in exact.items():
            if left[key] != right[key]:
                print(f"   DRIFT {key}: {left[key]!r} -> {right[key]!r}")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="run sets of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="run sets of the change")
    parser.add_argument("--write", help="save both sides as a trajectory row (BENCH_<n>.json)")
    args = parser.parse_args(argv)
    parent = [json.loads(Path(path).read_text()) for path in args.parent]
    change = [json.loads(Path(path).read_text()) for path in args.change]
    status = compare(parent, change)
    if args.write:
        Path(args.write).write_text(
            json.dumps({"parent": parent, "change": change}, indent=1) + "\n"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
