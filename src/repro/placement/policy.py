"""Eviction policies for the device buffer pool.

The pool evicts when an allocation (a new resident column, a hash
table, per-query scratch) would exceed device capacity.  Victims are
always *unpinned* residents — base columns and built hash tables in
one candidate list; buffers acquired by an in-flight query are never
candidates.

The default policy is cost-aware: the price of evicting an entry is
what it costs to have it back.  For a column that is its modeled
host->device transfer time (bytes x the link's per-byte cost, plus
setup latency); for a hash table, the modeled time its build pipeline
took (kernels plus whatever it had to transfer).  Entries that are
cheap to restore go first; ties — including every column on a
zero-copy device, where re-transfer is free — break least recently
used first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import ResidentEntry

#: A policy orders eviction candidates, cheapest-to-evict first.
PolicyFn = Callable[[Iterable["ResidentEntry"]], List["ResidentEntry"]]


def cost_aware_lru(candidates: Iterable["ResidentEntry"]) -> List["ResidentEntry"]:
    """Evict the entry with the lowest restore cost first; break ties
    (equal cost, e.g. equal size or a zero-copy link) by least recently
    used."""
    return sorted(candidates, key=lambda entry: (entry.restore_cost, entry.last_used))


def lru(candidates: Iterable["ResidentEntry"]) -> List["ResidentEntry"]:
    """Plain least-recently-used ordering (cost-blind baseline)."""
    return sorted(candidates, key=lambda entry: entry.last_used)


#: Policy aliases accepted by :class:`~repro.placement.BufferPool`.
POLICIES: dict[str, PolicyFn] = {
    "cost": cost_aware_lru,
    "lru": lru,
}


def resolve_policy(policy: "str | PolicyFn") -> PolicyFn:
    """Resolve a policy alias or pass a callable through."""
    if callable(policy):
        return policy
    try:
        return POLICIES[policy]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(
            f"unknown eviction policy {policy!r}; known policies: {known}"
        ) from None
