"""Run one workload in this process and measure it on both clocks.

Run shape (all workloads):

1. **Set-up**, several times from scratch: generate the seeded
   database, build ``cpu`` references, open the session/server, run one
   warm-up pass over every item in canonical order.  ``setup_s`` is the
   median.  The warm-up pass doubles as the *cold* accounting pass.
2. **Warm accounting pass** on the last two set-ups: every item once
   more in canonical order.  Its simulated-clock totals are the
   reported ones; both cold and warm passes must agree bit for bit
   across set-ups (the determinism self-check).
3. **Timed phase** on the last set-up: whole rounds until ``seconds``
   have passed (and at least enough rounds for 200 latency samples);
   each round runs every item once in an order shuffled by the seeded
   RNG, ``gc.collect()`` between rounds, telemetry off.  A calibration
   kernel runs between rounds and every end-to-end host time is divided
   by the machine factor of its own round (see :class:`Machine`).
4. ``--trace`` alternates plain rounds with rounds that have the
   :mod:`perf.spans` wrappers installed, then runs the workload's
   extra comparisons.  End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perf import check, targets
from perf.accounting import Accounting
from perf.metrics import END_TO_END, ENGINES, PER_LAYER, percentile
from perf.spans import ITEM, NAME, PARENT, START, END, THREAD, SpanTracer, self_time_by
from perf.workloads import WORKLOADS, derive_seeds

DEFAULT_SEED = 12
RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: Samples a timed phase must collect: p90 then has twenty beyond it.
MIN_SAMPLES = 200
#: A traced run keeps at most this many traced rounds in memory.
MAX_TRACED_ROUNDS = 4


@dataclass
class Outcome:
    """What one run of one workload produced."""

    workload: str
    seed: int
    trace: bool
    smoke: bool
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    #: Human-readable reasons the run is not correct.
    problems: list[str] = field(default_factory=list)
    samples: int = 0
    rounds: int = 0
    #: Context printed with the table, not part of the result line.
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


@dataclass
class Measured:
    """The harness's view of the untraced rounds, for ``Workload.extras``."""

    item_median_s: dict[str, float]
    sim_ms_total: float
    sim_by_item: dict[str, float]


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 update_expected: bool = False):
        self.workload = WORKLOADS[name](smoke=smoke)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.update_expected = update_expected
        self.expected = check.load_expected()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.state = None
        self.machine = Machine()

    # ------------------------------------------------------------------
    # correctness
    # ------------------------------------------------------------------
    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def verify(self, item, outcome) -> bool:
        """Count one attempt; a raise, a refusal or a result that differs
        from the reference is a failure."""
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.failed += 1
            detail = "".join(traceback.format_exception_only(type(outcome), outcome))
            self.problem(f"{item.name} raised {detail.strip()}")
            return False
        reference = self.state.references[item.ref]
        if not check.columns_match(reference, check.canonical_columns(outcome.table)):
            self.failed += 1
            self.problem(f"{item.name} differs from the cpu reference {item.ref}")
            return False
        return True

    def check_digests(self, state) -> None:
        """Pin the references themselves, for the committed seed."""
        digests: dict[str, dict[str, str]] = defaultdict(dict)
        for ref, columns in state.references.items():
            dataset, query = ref.split("/", 1)
            digests[dataset][query] = check.digest(columns)
        if self.update_expected:
            check.save_expected(self.seed, digests)
            return
        if self.expected["seed"] != self.seed:
            return
        for dataset, queries in digests.items():
            pinned = self.expected["datasets"].get(dataset)
            if pinned is None:
                self.problem(f"no committed digests for {dataset}")
                continue
            for query, value in queries.items():
                if pinned.get(query) != value:
                    self.problem(
                        f"cpu reference {dataset}/{query} drifted from perf/expected"
                    )

    # ------------------------------------------------------------------
    # passes and rounds
    # ------------------------------------------------------------------
    def accounting_pass(self, state) -> Accounting:
        accounting = Accounting()
        workload = self.workload
        for item in state.items:
            workload.before_item(state, item)
            try:
                outcome = workload.execute(state, item)
            except Exception as error:  # counted in failed_share
                outcome = error
            if self.verify(item, outcome):
                accounting.add(item, outcome, workload.peak_alloc(state, item))
        return accounting

    def timed_round(self, order, tracer=None):
        """One round: returns wall seconds, the machine factor of its
        time window and ``(item, seconds, serving stats or None)`` per
        item."""
        workload, state = self.workload, self.state
        workload.begin_round(state)
        gc.collect()
        started = time.perf_counter()
        outcomes = workload.run_round(state, order, tracer)
        wall = time.perf_counter() - started
        factor = self.machine.window()
        # Results are checked and dropped here so that resident memory
        # does not grow with the number of rounds.
        return wall, factor, [
            (item, seconds, outcome.serving if self.verify(item, outcome) else None)
            for item, seconds, outcome in outcomes
        ]

    def shuffled(self, rng) -> list:
        order = list(self.state.items)
        rng.shuffle(order)
        return order

    def plain_rounds(self, deadline: float, minimum: int, rng):
        """Rounds for the end-to-end metrics: every time is divided by
        the machine factor of its round."""
        walls, outcomes = [], []
        self.machine.start()
        while len(walls) < minimum or time.perf_counter() < deadline:
            wall, factor, done = self.timed_round(self.shuffled(rng))
            walls.append(wall / factor)
            outcomes.append(
                [(item, seconds / factor, serving) for item, seconds, serving in done]
            )
        return walls, outcomes

    def paired_rounds(self, deadline: float, minimum: int, rng, tracer):
        """Plain and traced rounds in alternation, so that machine drift
        hits both alike; once ``MAX_TRACED_ROUNDS`` are recorded the
        remaining time goes to plain rounds.  Wrappers are installed for
        the traced rounds only.  Times stay as measured."""
        walls, outcomes, traced_walls, traced = [], [], [], []
        while len(walls) < minimum or time.perf_counter() < deadline:
            wall, _factor, done = self.timed_round(self.shuffled(rng))
            walls.append(wall)
            outcomes.append(done)
            if len(traced_walls) < MAX_TRACED_ROUNDS:
                targets.install(tracer)
                try:
                    wall, _factor, done = self.timed_round(self.shuffled(rng), tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                traced.append(done)
        return walls, outcomes, traced_walls, traced

    # ------------------------------------------------------------------
    def run(self) -> Outcome:
        try:
            return self.measure()
        finally:
            if self.state is not None:
                self.workload.close(self.state)

    def measure(self) -> Outcome:
        workload = self.workload
        _, rng = derive_seeds(self.seed)
        setups = 2 if (self.trace or self.smoke) else 3
        setup_s, cold, warm = [], [], []
        stats_before = stats_after = None
        for index in range(setups):
            if self.state is not None:
                workload.close(self.state)
                self.state = None
                gc.collect()
            self.machine.start()
            started = time.perf_counter()
            state = self.state = workload.setup(self.seed)
            if index == 0:
                self.check_digests(state)
            cold.append(self.accounting_pass(state))
            for item, _seconds, outcome in workload.warm_up(state):
                self.verify(item, outcome)
            raw = time.perf_counter() - started
            setup_s.append(raw / self.machine.window())
            if index >= setups - 2:
                stats_before = workload.placement_stats(state)
                warm.append(self.accounting_pass(state))
                stats_after = workload.placement_stats(state)
        self.self_check(cold, "cold")
        self.self_check(warm, "warm")
        accounting = warm[-1]
        deadline = time.perf_counter() + (0.0 if self.smoke else self.seconds)
        if self.trace:
            tracer = SpanTracer()
            walls, outcomes, traced_walls, traced = self.paired_rounds(
                deadline, 1 if self.smoke else 2, rng, tracer
            )
            metrics = self.layer_metrics(
                accounting, walls, outcomes, stats_before, stats_after,
                tracer, traced_walls, traced,
            )
        else:
            minimum = 1 if self.smoke else math.ceil(MIN_SAMPLES / len(self.state.items))
            walls, outcomes = self.plain_rounds(deadline, minimum, rng)
            metrics = self.end_to_end(accounting, setup_s, walls, outcomes)
        calibration_ms = statistics.median(self.machine.samples_ms)
        notes = {
            "calibration kernel, median ms": calibration_ms,
            "machine factor (calibration / reference)": calibration_ms / Machine.REFERENCE_MS,
        }
        return Outcome(
            workload=workload.name,
            seed=self.seed,
            trace=self.trace,
            smoke=self.smoke,
            metrics=metrics,
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems,
            samples=sum(len(done) for done in outcomes),
            rounds=len(walls),
            notes=notes,
        )

    def self_check(self, passes: list[Accounting], label: str) -> None:
        """Passes from fresh state must agree bit for bit."""
        first = passes[0].exact()
        for other in passes[1:]:
            for name, value in other.exact().items():
                if value != first[name]:
                    print(f"nondeterministic: {name} ({label} pass: {first[name]!r} vs {value!r})")
                    self.problem(f"nondeterministic: {name}")

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def end_to_end(self, accounting, setup_s, walls, outcomes) -> dict[str, float]:
        latencies = [seconds * 1e3 for done in outcomes for _item, seconds, _s in done]
        beyond = 0 if self.smoke else 10
        metrics = {
            "setup_s": statistics.median(setup_s),
            "host_queries_per_s": len(self.state.items) / statistics.median(walls),
            "host_query_ms_p50": percentile(latencies, 0.50, beyond),
            "host_query_ms_p90": percentile(latencies, 0.90, beyond),
            "sim_ms_total": accounting.totals["sim_ms_total"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        assert set(metrics) == {metric.name for metric in END_TO_END}
        return metrics

    def layer_metrics(self, accounting, walls, outcomes, stats_before, stats_after,
                      tracer, traced_walls, traced) -> dict[str, float]:
        workload, state = self.workload, self.state
        metrics = {metric.name: 0.0 for metric in PER_LAYER}
        metrics.update(
            (name, value) for name, value in accounting.metrics().items() if name in metrics
        )
        if stats_after is not None:
            metrics["placement.evictions"] = stats_after.evictions - stats_before.evictions
            metrics["placement.resident_bytes"] = stats_after.resident_bytes
        metrics["workloads.generate_s"] = state.generate_s
        metrics["storage.database_bytes"] = state.database_bytes
        metrics["harness.calibration_ms"] = statistics.median(self.machine.samples_ms)

        # Untraced rounds: per-engine host time, serving lifecycle.
        rounds = len(walls)
        by_item: dict[str, list[float]] = defaultdict(list)
        for done in outcomes:
            for item, seconds, _outcome in done:
                by_item[item.name].append(seconds)
                if item.engine in ENGINES:
                    metrics[f"engines.host_ms.{item.engine}"] += seconds * 1e3 / rounds
        metrics["harness.samples"] = sum(len(done) for done in outcomes)
        metrics.update(workload.round_metrics(outcomes, walls))

        # Traced rounds.
        traced_rounds = len(traced_walls)
        hits = tracer.counts.pop("kernels.compile_hits", 0.0)
        lookups = hits + tracer.counts["kernels.compile_misses"]
        metrics["kernels.compile_hit_rate"] = hits / lookups if lookups else 0.0
        metrics["harness.trace_overhead_share"] = statistics.median(
            traced_wall / wall for traced_wall, wall in zip(traced_walls, walls)
        ) - 1.0
        own = self_time_by(tracer.spans, lambda span: span[NAME])
        calls: dict[str, int] = defaultdict(int)
        for span in tracer.spans:
            calls[span[NAME]] += 1
        for name, nanoseconds in own.items():
            stem = targets.METRIC_OF[name]
            metrics[f"{stem}_ms"] += nanoseconds / 1e6 / traced_rounds
            if stem in targets.CALL_COUNTS:
                metrics[targets.CALL_COUNTS[stem]] += calls[name] / traced_rounds
        for name, value in tracer.counts.items():
            metrics[name] = value / traced_rounds
        item_wall_ns = sum(
            seconds for done in traced for _item, seconds, _o in done
        ) * 1e9
        metrics["harness.unattributed_ms"] = (
            (item_wall_ns - attributed_ns(tracer.spans)) / 1e6 / traced_rounds
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write(
            RESULTS_DIR / f"trace-{workload.name}.jsonl",
            workload=workload.name,
            seed=self.seed,
            traced_rounds=traced_rounds,
            smoke=self.smoke,
        )

        measured = Measured(
            item_median_s={name: statistics.median(v) for name, v in by_item.items()},
            sim_ms_total=accounting.totals["sim_ms_total"],
            sim_by_item=accounting.sim_by_item,
        )
        metrics.update(workload.extras(state, measured))
        assert set(metrics) == {metric.name for metric in PER_LAYER}, (
            set(metrics) ^ {metric.name for metric in PER_LAYER}
        )
        return metrics


def attributed_ns(spans) -> int:
    """Item wall time covered by wrapped functions: the root spans.
    Sequential workloads count the client thread's roots only (device
    threads run inside them); with several items in flight no span
    carries an item, and the worker threads' roots are the coverage."""
    roots = [span for span in spans if span[PARENT] is None]
    client = threading.current_thread().name
    main = [span for span in roots if span[ITEM] is not None and span[THREAD] == client]
    chosen = main if main else roots
    return sum(span[END] - span[START] for span in chosen)


class Machine:
    """A fixed calibration kernel, run between rounds.

    This box drifts: the same process runs up to ~25% slower for minutes
    at a time.  The kernel mixes the kinds of work the simulator does —
    a cache-resident numpy sort / gather / scan, a random gather over an
    array larger than the caches, and a pure-Python dict loop — and,
    interleaved with the rounds, tracks that drift (perf/README.md,
    "Machine factor").  ``factor`` is its time relative to
    ``REFERENCE_MS``; dividing a measured time by the factor of its own
    time window expresses it at the speed of a machine on which the
    kernel takes exactly ``REFERENCE_MS``.
    """

    REFERENCE_MS = 40.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random(100_000)
        self.small_index = rng.integers(0, len(self.small), len(self.small))
        self.large = rng.random(1_000_000)
        self.large_index = rng.integers(0, len(self.large), 500_000, dtype=np.int32)
        self.samples_ms: list[float] = []
        self.last = 1.0

    def factor(self) -> float:
        started = time.perf_counter()
        for _ in range(2):
            order = np.argsort(self.small, kind="stable")
            float(self.small[self.small_index][order].cumsum()[-1])
            float(self.large[self.large_index].sum())
            float(self.large[self.large_index[::-1]].sum())
        table: dict[int, int] = {}
        for number in range(60_000):
            table[number & 1023] = table.get(number & 1023, 0) + number
        self.samples_ms.append((time.perf_counter() - started) * 1e3)
        return self.samples_ms[-1] / self.REFERENCE_MS

    def start(self) -> None:
        """Open a time window now."""
        self.last = self.factor()

    def window(self) -> float:
        """Close the open window and open the next one: the window's
        factor is the mean of the calibrations at its two ends, so
        back-to-back rounds cost one calibration each."""
        before = self.last
        self.last = self.factor()
        return (before + self.last) / 2
