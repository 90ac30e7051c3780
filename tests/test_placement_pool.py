"""Buffer-pool unit tests: hits, eviction order, pins, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

import repro

from repro.errors import DeviceMemoryError
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.placement import BufferPool
from repro.storage import Column, Database, Table
from repro.workloads import generate_ssb


def _column(n: int) -> Column:
    return Column.int32(np.arange(n))


def _device(capacity: int) -> VirtualCoprocessor:
    profile = GTX970.with_overrides(name="small", memory_capacity=capacity)
    return VirtualCoprocessor(profile, interconnect=PCIE3)


FP = (1, 0)  # (catalog serial, mutation version)


class TestAcquire:
    def test_miss_transfers_then_hit_skips_pcie(self):
        device = _device(1 << 20)
        pool = BufferPool(device)
        column = _column(100)

        # A miss allocates a pooled buffer; the runtime ships a
        # pipeline's misses together, so the pool itself moves nothing.
        entry, hit = pool.acquire("t", "a", column, FP)
        assert not hit
        assert device.pooled_bytes == column.nbytes
        assert device.log.transfers == []
        pool.release([entry])

        entry2, hit2 = pool.acquire("t", "a", column, FP)
        assert hit2
        assert entry2 is entry
        # Nothing new was allocated (or charged) for the hit.
        assert device.pooled_bytes == column.nbytes
        assert device.log.transfers == []
        pool.release([entry2])

        stats = pool.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_bytes == column.nbytes
        assert stats.hit_rate == 0.5

    def test_resident_bytes_accounting(self):
        device = _device(1 << 20)
        pool = BufferPool(device)
        a, b = _column(100), _column(300)
        pool.release([pool.acquire("t", "a", a, FP)[0]])
        pool.release([pool.acquire("t", "b", b, FP)[0]])
        assert pool.resident_bytes == a.nbytes + b.nbytes
        assert device.pooled_bytes == pool.resident_bytes
        assert device.resident_bytes == pool.resident_bytes
        assert len(pool) == 2

    def test_release_transient_keeps_pooled_buffers(self):
        device = _device(1 << 20)
        pool = BufferPool(device)
        pool.release([pool.acquire("t", "a", _column(100), FP)[0]])
        device.allocate(np.zeros(64, dtype=np.int64), label="scratch")
        assert device.allocated_bytes > device.pooled_bytes
        device.release_transient()
        assert device.allocated_bytes == device.pooled_bytes
        assert len(pool) == 1


class TestEviction:
    def test_cost_policy_evicts_cheapest_retransfer_first(self):
        # Capacity fits the small + large column but not a third one.
        small, large = _column(64), _column(512)
        extra = _column(512)
        capacity = small.nbytes + large.nbytes + extra.nbytes // 2
        device = _device(capacity)
        pool = BufferPool(device)
        pool.release([pool.acquire("t", "small", small, FP)[0]])
        pool.release([pool.acquire("t", "large", large, FP)[0]])

        # Needs extra.nbytes; evicting the small (cheap-to-restore)
        # column is not enough, but the policy tries it first.
        entry, hit = pool.acquire("t", "extra", extra, FP)
        assert not hit
        assert (FP[0], "t", "small") not in pool
        stats = pool.stats()
        assert stats.evictions >= 1

    def test_lru_tiebreak_on_equal_cost(self):
        a, b, c = _column(256), _column(256), _column(256)
        device = _device(2 * a.nbytes + a.nbytes // 2)
        pool = BufferPool(device)
        pool.release([pool.acquire("t", "a", a, FP)[0]])
        pool.release([pool.acquire("t", "b", b, FP)[0]])
        # Same bytes => same re-transfer cost; the older entry (a) goes.
        pool.release([pool.acquire("t", "c", c, FP)[0]])
        assert (FP[0], "t", "a") not in pool
        assert (FP[0], "t", "b") in pool
        assert (FP[0], "t", "c") in pool

    def test_recent_touch_protects_entry_under_lru_tiebreak(self):
        a, b, c = _column(256), _column(256), _column(256)
        device = _device(2 * a.nbytes + a.nbytes // 2)
        pool = BufferPool(device)
        pool.release([pool.acquire("t", "a", a, FP)[0]])
        pool.release([pool.acquire("t", "b", b, FP)[0]])
        # Touch a again: now b is the least recently used.
        pool.release([pool.acquire("t", "a", a, FP)[0]])
        pool.release([pool.acquire("t", "c", c, FP)[0]])
        assert (FP[0], "t", "a") in pool
        assert (FP[0], "t", "b") not in pool

    def test_pinned_buffers_are_never_evicted(self):
        a = _column(256)
        device = _device(a.nbytes + 64)
        pool = BufferPool(device)
        entry, _ = pool.acquire("t", "a", a, FP)  # stays pinned
        with pytest.raises(DeviceMemoryError):
            device.allocate(np.zeros(256, dtype=np.int32), label="big")
        # The pinned column survived the pressure.
        assert (FP[0], "t", "a") in pool
        assert not entry.buffer.freed
        pool.release([entry])
        # Unpinned, the same allocation now succeeds by evicting it.
        device.allocate(np.zeros(256, dtype=np.int32), label="big")
        assert (FP[0], "t", "a") not in pool

    def test_clear_drops_unpinned_entries(self):
        device = _device(1 << 20)
        pool = BufferPool(device)
        pinned, _ = pool.acquire("t", "a", _column(64), FP)
        pool.release([pool.acquire("t", "b", _column(64), FP)[0]])
        pool.clear()
        assert len(pool) == 1  # only the pinned entry remains
        pool.release([pinned])


class TestInvalidation:
    def test_database_mutation_invalidates_resident_columns(self):
        table = Table({"a": _column(128)})
        database = Database({"t": table})
        device = _device(1 << 20)
        pool = BufferPool(device)

        column = database.table("t").column("a")
        entry, hit = pool.acquire("t", "a", column, database.fingerprint())
        assert not hit
        pool.release([entry])

        database.replace("t", Table({"a": _column(128)}))
        fresh = database.table("t").column("a")
        entry2, hit2 = pool.acquire("t", "a", fresh, database.fingerprint())
        assert not hit2  # stale entry was dropped, not served
        pool.release([entry2])
        stats = pool.stats()
        assert stats.invalidations == 1
        assert (stats.misses, stats.transferred_bytes) == (2, 2 * fresh.nbytes)
        assert device.pooled_bytes == fresh.nbytes

    def test_reset_all_clears_pool_bookkeeping(self):
        device = _device(1 << 20)
        pool = BufferPool(device)
        pool.release([pool.acquire("t", "a", _column(128), FP)[0]])
        device.reset_all()
        assert len(pool) == 0
        assert device.pooled_bytes == 0
        assert device.allocated_bytes == 0




def test_a_zero_copy_pool_holds_raw_columns():
    """A zero-copy device crosses no link, so its loads compress nothing
    whatever the session's policy: its pool holds, and its first query
    loads, the raw columns a run without a pool loads."""
    database = generate_ssb(0.002, seed=7)
    sql = "select sum(lo_revenue) as r from lineorder where lo_discount >= 2"

    def loaded(residency):
        return repro.connect(
            database, engine="cpu", device=repro.XEON_E5, compression="auto",
            residency=residency,
        ).execute(sql).input_bytes

    assert loaded(True) == loaded(False) == 96_000
