"""A query is counted where it finishes: the metrics fold.

``observe_result`` turns one finished ``ExecutionResult`` into its
Prometheus samples; ``Session._execute`` calls it once per completed
query, and a :class:`~repro.serving.Server` hands its registry to its
worker sessions.  These tests hold the exposition to three promises:

* **pinned** — ``metrics_pinned.json`` holds the counter and gauge
  samples and histogram ``_count`` s a 1-worker server exposed over the
  13 SSB queries (twice) *before* the fold existed, when every
  component kept running totals beside its results and the server
  copied them into its registry at scrape time.  Every value is still
  exposed and equal, except the optimizer series that counted scrapes
  (:data:`FIXED`);
* **parity** — a ``Session`` with a registry exposes what a 1-worker
  ``Server`` exposes for the same traffic, failures and help texts
  included; only the families no session can know differ;
* **zero shares** — a fleet device that ran no morsel still has a
  sample of 0.

``python tests/test_metrics_fold.py --write`` regenerates the pinned
file (only on purpose: a change that means to move an exported value).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.errors import SqlError
from repro.faults import FaultPlan, FaultSpec
from repro.kernels.codegen import clear_kernel_cache
from repro.serving import PlanCache, Server
from repro.storage import Column, Database, Table
from repro.telemetry.metrics import (
    MetricsRegistry,
    observe_result,
    parse_prometheus_text,
)
from repro.workloads import SSB_QUERIES, generate_ssb

PINNED_PATH = Path(__file__).parent / "metrics_pinned.json"
QUERIES = [SSB_QUERIES[name] for name in sorted(SSB_QUERIES)]
#: One 1-worker server per configuration, 13 SSB queries twice.
CONFIGS = {
    "faults": lambda: {
        "devices": 2,
        "fault_plan": FaultPlan.generate(seed=5, devices=2, morsels=6),
    },
    # Losses, retries and redistribution (seed 5 fires stragglers only).
    "device-loss": lambda: {
        "devices": 3,
        "fault_plan": FaultPlan(
            specs=(
                FaultSpec(kind="device-loss", device=0, morsel=0),
                FaultSpec(kind="oom", morsel=4),
            )
        ),
    },
    "auto": lambda: {"devices": 2, "engine": "auto"},
    "compression": lambda: {"compression": "auto"},
}
#: Series the parent counted per scrape, not per query.
FIXED = (
    "repro_optimizer_strategies_total",
    "repro_optimizer_advise_ms_count",
    "repro_optimizer_prediction_error_count",
)
#: Families only a server knows: admission, queue, workers, cache
#: sizes and the buffer-pool snapshot.
SERVER_ONLY = (
    "repro_queries_submitted_total",
    "repro_queue_",
    "repro_workers",
    "repro_plan_cache_size",
    "repro_kernel_cache_size",
    "repro_placement_",
)
FAILING = "select no_such_column from lineorder"


def samples(text: str, drop_label: str | None = None) -> dict:
    """``'name{labels}' -> value`` for every counter and gauge sample
    and every histogram ``_count`` of an exposition (sums and buckets
    are host wall clock), without the process-wide kernel-cache size."""
    kinds = dict(
        line.split()[2:4] for line in text.splitlines() if line.startswith("# TYPE")
    )
    out = {}
    for name, series in parse_prometheus_text(text).items():
        family = name.removesuffix("_count")
        scalar = kinds.get(name) in ("counter", "gauge")
        count = family != name and kinds.get(family) == "histogram"
        if name == "repro_kernel_cache_size" or not (scalar or count):
            continue
        for labels, value in series:
            labels = {k: v for k, v in labels.items() if k != drop_label}
            key = name + json.dumps(labels, sort_keys=True)
            out[key] = value
    return out


def helps(text: str) -> dict:
    return {
        line.split()[2]: line.split(None, 3)[3]
        for line in text.splitlines()
        if line.startswith("# HELP")
    }


def serve(database, config: dict) -> str:
    """The exposition of a fresh 1-worker server after two passes."""
    clear_kernel_cache()
    with Server(
        database, workers=1, queue_size=len(QUERIES) + 1, plan_cache=PlanCache(), **config
    ) as server:
        for _ in range(2):
            server.execute_many(QUERIES)
        return server.metrics_text()


def observe_all(database) -> dict:
    return {
        name: samples(serve(database, config()))
        for name, config in sorted(CONFIGS.items())
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_samples_unchanged(name, ssb_db, pinned):
    now = samples(serve(ssb_db, CONFIGS[name]()))
    for key, value in pinned[name].items():
        if key.startswith(FIXED):
            continue
        assert key in now, key
        assert now[key] == value, key
    # What the fix changes: one optimizer sample per query served.
    strategies = [v for k, v in now.items() if k.startswith(FIXED[0])]
    if name == "auto":
        assert sum(strategies) == 2 * len(QUERIES)
        for family in FIXED[1:]:
            assert now[family + '{"worker": "0"}'] == 2 * len(QUERIES)
    else:
        assert not strategies
    # Auto queries that ran on a fleet now show in its families too.
    extra = {key.split("{")[0] for key in set(now) - set(pinned[name])}
    allowed = ("repro_scaleout_", "repro_faults_") if name == "auto" else ()
    assert all(family.startswith(allowed) for family in extra), extra


PARITY = {
    "bare": {},
    "devices2-compression": {"devices": 2, "compression": "auto"},
    "auto": {"engine": "auto"},
}


def _per_query(text: str) -> dict:
    return {
        key: value
        for key, value in samples(text, drop_label="worker").items()
        if not key.startswith(SERVER_ONLY)
        and key != 'repro_queries_total{"status": "cancelled"}'
    }


@pytest.mark.parametrize("route", sorted(PARITY))
def test_session_exports_what_a_server_exports(route, ssb_db):
    clear_kernel_cache()
    registry = MetricsRegistry()
    session = Session(
        ssb_db, residency=True, metrics=registry, plan_cache=PlanCache(), **PARITY[route]
    )
    for sql in QUERIES:
        session.execute(sql)
    with pytest.raises(SqlError):
        session.execute(FAILING)
    direct = registry.render()

    clear_kernel_cache()
    with Server(ssb_db, workers=1, plan_cache=PlanCache(), **PARITY[route]) as server:
        server.execute_many(QUERIES)
        assert isinstance(server.submit(FAILING).exception(), SqlError)
        served = server.metrics_text()

    mine, theirs = _per_query(direct), _per_query(served)
    assert mine == theirs
    assert mine['repro_queries_total{"status": "failed"}'] == 1
    assert mine['repro_queries_total{"status": "completed"}'] == len(QUERIES)
    assert mine['repro_query_latency_ms_count{}'] == len(QUERIES)
    for family in ("repro_plan_cache_lookups_total", "repro_kernel_cache_lookups_total"):
        assert any(key.startswith(family) for key in mine), family
    shared = helps(direct)
    for family, text in helps(served).items():
        if family in shared:
            assert shared[family] == text, family


def test_idle_devices_get_a_zero_sample():
    """Two rows over four devices: most devices run no morsel, and
    each still exports a zero for every per-device counter."""
    values = np.arange(2, dtype=np.int64)
    database = Database({"t": Table({"v": Column.int64(values)})})
    result = Session(database, devices=4).execute("select sum(v) as total from t")
    assert len(result.scaleout.shares) < 4
    registry = MetricsRegistry()
    observe_result(registry, result)
    parsed = parse_prometheus_text(registry.render())
    for family in (
        "repro_scaleout_device_morsels_total",
        "repro_scaleout_device_busy_ms_total",
        "repro_scaleout_device_pcie_bytes_total",
    ):
        by_device = {labels["device"]: value for labels, value in parsed[family]}
        assert sorted(by_device) == ["0", "1", "2", "3"], family
        assert min(by_device.values()) == 0, family


if __name__ == "__main__":
    if "--write" in sys.argv:
        database = generate_ssb(scale_factor=0.004, seed=7)
        PINNED_PATH.write_text(
            json.dumps(observe_all(database), indent=0, sort_keys=True) + "\n"
        )
        print(f"wrote {PINNED_PATH}")
    else:
        sys.exit(__doc__)
