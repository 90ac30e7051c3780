"""Unit tests for the fault-injection layer: plans, specs, the retry
policy, checksums, the injector, and the device liveness primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeviceLostError,
    DeviceMemoryError,
    MorselTimeoutError,
)
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    partial_checksum,
)
from repro.faults.injector import _corrupt


# ----------------------------------------------------------------------
# FaultSpec validation & matching
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "meteor-strike", "device": 0},
        {"kind": "oom", "device": 0, "op": "teardown"},
        {"kind": "oom", "op": "build"},  # build op needs a device
        {"kind": "oom", "device": 0, "morsel": 1, "op": "build"},
        {"kind": "oom"},  # fully wildcarded morsel op
        {"kind": "corruption", "device": 0, "op": "build"},
        {"kind": "oom", "device": 0, "times": 0},
        {"kind": "oom", "device": 0, "times": True},
        {"kind": "oom", "device": 0, "delay_ms": -1.0},
        {"kind": "straggler", "device": 0},  # needs positive delay
    ],
)
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        FaultSpec(**kwargs)


def test_spec_matching():
    spec = FaultSpec(kind="oom", device=1, morsel=3)
    assert spec.matches("morsel", 1, 3)
    assert not spec.matches("morsel", 1, 4)
    assert not spec.matches("morsel", 0, 3)
    assert not spec.matches("build", 1, None)
    wildcard_device = FaultSpec(kind="oom", morsel=3)
    assert wildcard_device.matches("morsel", 0, 3)
    assert wildcard_device.matches("morsel", 7, 3)
    build = FaultSpec(kind="device-loss", device=2, op="build")
    assert build.matches("build", 2, None)
    assert not build.matches("morsel", 2, 0)


# ----------------------------------------------------------------------
# FaultPlan serialization & generation
# ----------------------------------------------------------------------
def test_plan_json_round_trip(tmp_path):
    plan = FaultPlan(
        specs=(
            FaultSpec(kind="device-loss", device=1, op="build"),
            FaultSpec(kind="straggler", morsel=2, delay_ms=4.5, times=2),
            FaultSpec(kind="corruption", device=0, morsel=1),
        ),
        seed=99,
        note="round trip",
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json(), encoding="utf-8")
    assert FaultPlan.load(str(path)) == plan
    assert plan.max_firings == 4
    assert plan.lost_devices == {1}
    assert "3 faults" in plan.summary()


def test_plan_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigurationError):
        FaultPlan.from_json("{not json")
    with pytest.raises(ConfigurationError):
        FaultPlan.from_dict({"specs": "nope"})
    with pytest.raises(ConfigurationError):
        FaultSpec.from_dict({"kind": "oom", "device": 0, "sneaky": 1})
    with pytest.raises(ConfigurationError):
        FaultSpec.from_dict({"device": 0})  # missing kind
    with pytest.raises(ConfigurationError):
        FaultPlan(specs=("not a spec",))
    with pytest.raises(ConfigurationError):
        FaultPlan.load(str(tmp_path / "missing.json"))


def test_generate_is_deterministic_and_leaves_a_survivor():
    for seed in range(60):
        devices = 2 + seed % 3
        plan = FaultPlan.generate(seed, devices=devices, morsels=devices * 2)
        again = FaultPlan.generate(seed, devices=devices, morsels=devices * 2)
        assert plan == again
        assert len(plan.lost_devices) < devices, f"seed {seed} kills the fleet"
        for spec in plan.specs:
            assert spec.kind in FAULT_KINDS
            if spec.morsel is not None:
                assert 0 <= spec.morsel < devices * 2
    with pytest.raises(ConfigurationError):
        FaultPlan.generate(1, devices=0, morsels=4)
    with pytest.raises(ConfigurationError):
        FaultPlan.generate(1, devices=2, morsels=0)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_validation():
    for kwargs in (
        {"max_retries": -1},
        {"max_retries": 1.5},
        {"max_retries": True},
        {"backoff_base_ms": -0.1},
        {"backoff_base_ms": 10.0, "backoff_cap_ms": 5.0},
        {"morsel_timeout_ms": 0.0},
        {"morsel_timeout_ms": -2.0},
    ):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


def test_retry_policy_backoff_caps():
    policy = RetryPolicy(max_retries=5, backoff_base_ms=1.0, backoff_cap_ms=4.0)
    assert policy.max_attempts == 6
    assert [policy.backoff_ms(n) for n in range(1, 6)] == [1.0, 2.0, 4.0, 4.0, 4.0]
    with pytest.raises(ValueError):
        policy.backoff_ms(0)


# ----------------------------------------------------------------------
# checksums
# ----------------------------------------------------------------------
def test_partial_checksum_detects_corruption():
    partial = {
        "a": np.arange(10, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 10),
    }
    reference = partial_checksum(partial)
    # Insertion order must not matter (names are sorted).
    assert partial_checksum(dict(reversed(list(partial.items())))) == reference
    corrupted = _corrupt(partial)
    assert partial_checksum(corrupted) != reference
    # The original is untouched (corruption happens on a copy).
    assert partial_checksum(partial) == reference


# ----------------------------------------------------------------------
# device liveness primitives
# ----------------------------------------------------------------------
def test_device_loss_blocks_work_but_not_cleanup(device):
    buffer = device.allocate(np.zeros(1024, np.uint8), label="x")
    device.mark_lost("test")
    assert not device.alive
    with pytest.raises(DeviceLostError):
        device.allocate(np.zeros(64, np.uint8), label="y")
    # Cleanup still works on a dead device (recovery frees state).
    device.free(buffer)
    assert device.allocated_bytes == 0
    device.revive()
    assert device.alive
    device.allocate(np.zeros(64, np.uint8), label="z")


def test_device_stall_charges_time_not_bytes(device):
    busy_before = device.log.total_time_ms
    device.stall(5.0, label="test-stall")
    assert device.log.total_time_ms == pytest.approx(busy_before + 5.0)
    assert device.log.transfer_bytes("h2d") == 0
    assert device.log.transfer_bytes("d2h") == 0
    with pytest.raises(ValueError):
        device.stall(-1.0)


def test_transient_snapshot_keeps_protected_buffers(device):
    keep = device.allocate(np.zeros(512, np.uint8), label="build")
    snapshot = device.transient_snapshot()
    device.allocate(np.zeros(2048, np.uint8), label="attempt")
    device.release_transient(keep=snapshot)
    assert device.allocated_bytes == 512
    device.free(keep)


# ----------------------------------------------------------------------
# injector semantics
# ----------------------------------------------------------------------
def test_injector_budget_and_determinism(device):
    plan = FaultPlan(specs=(FaultSpec(kind="oom", device=0, morsel=1, times=2),))
    injector = FaultInjector(plan)
    for _ in range(2):
        with pytest.raises(DeviceMemoryError):
            injector.before_morsel(0, 1, device)
    # Budget burned out: the third attempt is clean.
    injector.before_morsel(0, 1, device)
    # Non-matching events never fire.
    injector.before_morsel(0, 2, device)
    injector.before_morsel(1, 1, device)
    assert injector.counts() == {"oom": 2}
    assert injector.fired_count() == 2
    assert injector.fired_matching(0, 0, 1)
    assert not injector.fired_matching(2, 0, 1)
    assert not injector.fired_matching(0, 1, 1)


def test_injector_straggler_and_timeout(device):
    plan = FaultPlan(
        specs=(FaultSpec(kind="straggler", device=0, morsel=0, delay_ms=9.0),)
    )
    slow = FaultInjector(plan, RetryPolicy(morsel_timeout_ms=5.0))
    with pytest.raises(MorselTimeoutError):
        slow.before_morsel(0, 0, device)
    assert device.log.total_time_ms == pytest.approx(9.0)
    # Below the timeout (or with none set) a straggler only stalls.
    lenient = FaultInjector(plan)
    lenient.before_morsel(0, 0, device)  # budget fresh in a new injector
    assert device.log.total_time_ms == pytest.approx(18.0)


def test_injector_device_loss_marks_dead(device):
    plan = FaultPlan(specs=(FaultSpec(kind="device-loss", device=0, morsel=0),))
    injector = FaultInjector(plan)
    injector.before_morsel(0, 0, device)  # does not raise: loss lands later
    assert not device.alive
    assert injector.counts() == {"device-loss": 1}


def test_injector_deliver_corrupts_matching_partial_only(device):
    plan = FaultPlan(specs=(FaultSpec(kind="corruption", morsel=3),))
    injector = FaultInjector(plan)
    partial = {"v": np.arange(5, dtype=np.int32)}
    reference = partial_checksum(partial)
    untouched = injector.deliver(0, 2, partial, device)
    assert partial_checksum(untouched) == reference
    corrupted = injector.deliver(1, 3, partial, device)
    assert partial_checksum(corrupted) != reference
    # Budget consumed: a retry of the same morsel delivers cleanly.
    clean = injector.deliver(1, 3, partial, device)
    assert partial_checksum(clean) == reference
    # The firing is on the query record, where it happened.
    assert [phase[2] for phase in device.log.phases] == ["fault corruption p3"]
    # Corruption specs never fire at the pre-execution hook.
    injector2 = FaultInjector(plan)
    injector2.before_morsel(0, 3, object())
    assert injector2.fired_count() == 0
