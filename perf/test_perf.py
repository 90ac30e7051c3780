"""Tests of the benchmark harness itself.

Run with ``python -m pytest perf -q`` (outside ``testpaths``, so the
repository's tier-1 suite is unchanged).
"""

import json
import threading

import numpy as np
import pytest

import repro
from repro.primitives.hashtable import JoinHashTable
from repro.sql.translate import plan_sql
from repro.storage.table import rows_approx_equal

from perf import ROOT, check, targets
from perf.metrics import BY_NAME, PER_LAYER, benchmark_manifest, percentile
from perf.spans import END, ID, PARENT, START, THREAD, SpanTracer, function_aliases, self_times
from perf.workloads import SMOKE_SF, WORKLOADS, derive_seeds


def span(ident, parent, start, end):
    return [ident, parent, None, "layer", f"f{ident}", "MainThread", start, end]


# -- spans -------------------------------------------------------------
def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        span(0, None, 0, 100),  # root
        span(1, 0, 10, 40),  # child with its own child
        span(2, 1, 15, 25),
        span(3, 0, 50, 70),  # sibling of 1
    ]
    own = self_times(spans)
    assert own == {0: 100 - 30 - 20, 1: 30 - 10, 2: 10, 3: 20}
    assert sum(own.values()) == 100  # self times partition the root


def test_tracer_nests_spans_and_keeps_thread_local_stacks():
    tracer = SpanTracer()

    def leaf():
        return threading.current_thread().name

    traced_leaf = tracer.wrap(leaf, "layer", "leaf")
    outer = tracer.wrap(lambda: traced_leaf(), "layer", "outer")
    outer()
    worker = threading.Thread(target=traced_leaf, name="device-7")
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    by_name = {s[4]: s for s in tracer.spans[:2]}
    assert by_name["leaf"][PARENT] == by_name["outer"][ID]
    assert by_name["outer"][PARENT] is None
    assert by_name["outer"][START] <= by_name["leaf"][START] <= by_name["leaf"][END]
    # Opened on a thread with an empty stack: a root tagged with the thread.
    assert tracer.spans[2][PARENT] is None and tracer.spans[2][THREAD] == "device-7"


def test_count_callback_sees_arguments_and_result():
    tracer = SpanTracer()

    def count(counts, args, kwargs, result):
        counts["rows"] += result + args[0]

    assert tracer.wrap(lambda x: x + 1, "layer", "f", count)(4) == 5
    assert tracer.counts["rows"] == 9


def test_aliases_cover_re_exported_functions():
    owners = {module.__name__ for module, _attr in function_aliases(plan_sql)}
    assert {"repro.sql.translate", "repro.api"} <= owners


def test_install_wraps_and_uninstall_restores_identity():
    import repro.api
    from repro.engines import CompoundEngine, Engine, MultiPassEngine

    before = {
        "alias": repro.api.plan_sql,
        "classmethod": vars(JoinHashTable)["build"],
        "method": vars(JoinHashTable)["probe"],
        "override": vars(CompoundEngine)["execute_pipeline"],
        "override2": vars(MultiPassEngine)["execute_pipeline"],
        "base": vars(Engine)["execute"],
    }

    def current():
        return {
            "alias": repro.api.plan_sql,
            "classmethod": vars(JoinHashTable)["build"],
            "method": vars(JoinHashTable)["probe"],
            "override": vars(CompoundEngine)["execute_pipeline"],
            "override2": vars(MultiPassEngine)["execute_pipeline"],
            "base": vars(Engine)["execute"],
        }

    tracer = SpanTracer()
    targets.install(tracer)
    try:
        during = current()
        assert all(during[key] is not before[key] for key in before)
        assert isinstance(during["classmethod"], classmethod)
        database = repro.generate_ssb(0.001, seed=1)
        tracer.item = "probe"
        repro.connect(database).execute(repro.workloads.SSB_QUERIES["q3.1"])
    finally:
        tracer.uninstall()
    after = current()
    assert all(after[key] is before[key] for key in before)
    names = {s[4] for s in tracer.spans}
    assert {"plan_sql", "JoinHashTable.probe", "Engine.execute"} <= names
    assert tracer.counts["primitives.hash_probe_keys"] > 0
    assert all(s[2] == "probe" for s in tracer.spans)


def test_every_target_feeds_a_declared_metric():
    declared = {metric.name for metric in PER_LAYER}
    for stem in set(targets.METRIC_OF.values()):
        assert f"{stem}_ms" in declared
    assert set(targets.CALL_COUNTS.values()) <= declared


# -- metrics -----------------------------------------------------------
def test_percentile_refuses_to_extrapolate():
    with pytest.raises(ValueError):
        percentile(range(199), 0.95)
    assert percentile(range(1, 201), 0.95) == pytest.approx(190.05)
    assert percentile(range(1, 21), 0.50) == 10.5  # the middle of the gap
    with pytest.raises(ValueError):
        percentile(range(19), 0.50)
    assert percentile([3.0], 0.95, min_beyond=0) == 3.0  # smoke mode


def test_benchmark_json_matches_the_registry():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == benchmark_manifest(
        (name, workload.why) for name, workload in WORKLOADS.items()
    )
    assert len(BY_NAME) == len(manifest["end_to_end"]) + len(manifest["per_layer"])


def test_readme_names_every_metric_and_workload():
    readme = (ROOT / "perf" / "README.md").read_text()
    for name in list(BY_NAME) + list(WORKLOADS):
        assert f"`{name}`" in readme, name


# -- correctness gate --------------------------------------------------
def table(**columns):
    built = {}
    for name, values in columns.items():
        if isinstance(values[0], str):
            built[name] = repro.Column.from_strings(values)
        elif isinstance(values[0], float):
            built[name] = repro.Column.float64(values)
        else:
            built[name] = repro.Column.int64(values)
    return repro.Table(built)


@pytest.mark.parametrize(
    "other, same",
    [
        (dict(k=["b", "a", "c"], n=[2, 1, 3], v=[2.0, 1.0, 3.0]), True),  # row order
        (dict(k=["a", "b", "c"], n=[1, 2, 3], v=[1.00001, 2.0, 3.0]), True),  # float noise
        (dict(k=["a", "b", "c"], n=[1, 2, 3], v=[1.5, 2.0, 3.0]), False),
        (dict(k=["a", "b", "x"], n=[1, 2, 3], v=[1.0, 2.0, 3.0]), False),
        (dict(k=["a", "b"], n=[1, 2], v=[1.0, 2.0]), False),  # row count
    ],
)
def test_comparison_agrees_with_rows_approx_equal(other, same):
    left = table(k=["a", "b", "c"], n=[1, 2, 3], v=[1.0, 2.0, 3.0])
    right = table(**other)
    ours = check.columns_match(check.canonical_columns(left), check.canonical_columns(right))
    theirs = rows_approx_equal(
        left.sorted_rows(), right.sorted_rows(), check.REL_TOL, check.ABS_TOL
    )
    assert ours == theirs == same


def test_digest_ignores_summation_noise_but_not_values():
    base = [np.array([1, 2]), np.array([10.0, 1234.5678])]
    noisy = [np.array([1, 2]), np.array([10.0, 1234.5678 * (1 + 1e-12)])]
    wrong = [np.array([1, 2]), np.array([10.0, 1240.0])]
    assert check.digest(base) == check.digest(noisy) != check.digest(wrong)


def test_committed_digests_cover_full_and_smoke_datasets():
    expected = check.load_expected()
    from perf.harness import DEFAULT_SEED

    assert expected["seed"] == DEFAULT_SEED
    for workload in WORKLOADS.values():
        for smoke in (False, True):
            assert workload(smoke=smoke).dataset in expected["datasets"]
    assert "tpch@0.001" in expected["datasets"]


# -- workloads ---------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_item_lists_and_shuffles_repeat_for_one_seed(name):
    workload = WORKLOADS[name](smoke=True)
    assert workload.scale_factor <= max(SMOKE_SF, workload.smoke_scale_factor)
    listings = []
    for _ in range(2):
        state = workload.setup(seed=5)
        try:
            _, rng = derive_seeds(5)
            order = list(state.items)
            rng.shuffle(order)
            listings.append(
                ([item.name for item in state.items], [item.name for item in order],
                 state.data_seed, sorted(state.references))
            )
        finally:
            workload.close(state)
    assert listings[0] == listings[1]
    names = listings[0][0]
    assert len(names) == len(set(names))
    assert derive_seeds(6)[0] != listings[0][2]


def test_smoke_run_checks_outputs_and_reports_every_metric():
    from perf.harness import Run

    outcome = Run("partitioned_execution", 5, 0.0, trace=True, smoke=True).run()
    assert outcome.correct, outcome.problems
    assert set(outcome.metrics) == {metric.name for metric in PER_LAYER}
    assert outcome.metrics["placement.out_of_core_queries"] == 13
    assert outcome.metrics["scaleout.morsels"] > 0
    assert outcome.metrics["macro.blocks"] > 0
