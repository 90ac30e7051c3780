"""Decode in registers: generated kernels read the wire image.

A compressed base column crosses the link as its wire image and *stays*
that way in device memory.  The kernel that reads it decodes in
registers, the way the paper elides every other inter-operator
materialization: a compressed column costs the wire bytes of the rows
read, no raw write, no extra launch.  :func:`register_decode` is the
one definition of that charge — :class:`~repro.kernels.context.KernelContext`
records it (through ``QueryRuntime.lazy_gather``) and the optimizer's
:class:`~repro.optimizer.cost.CostEstimator` prices it, with observed
and estimated rows respectively.

A single-column predicate conjunct can do better than unpack-and-test.
Three compressed-scan strategies exist, and :func:`plan_scan` returns
one only when it reads no more global bytes *and* issues no more
instructions than unpacking the same rows would:

* ``rle-runs``   — evaluate the predicate once per *run* instead of
  once per row.
* ``dict-lookup`` — pre-evaluate the predicate over the (tiny) code
  domain into an on-chip lookup table; the scan degenerates to one
  table probe per packed code.
* ``block-skip`` — for frame-of-reference packed blocks, test the
  per-block ``[min, max]`` interval against the predicate first and
  unpack only *mixed* blocks; blocks that are provably all-true or
  all-false never leave the wire image.

Every strategy computes **exactly** the flags the decoded predicate
would: runs/codes/blocks are genuine alternate representations of the
same bytes (the codec round-trip contract), so results stay
byte-identical on every engine, device count, and codec.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..expressions.eval import evaluate
from ..expressions.expr import Between, ColumnRef, Comparison, Expr, InList, Literal, Not
from ..hardware.traffic import MemoryLevel, TrafficMeter
from ..primitives.prefix import charge_lookback_scan
from .codecs import EncodedColumn, _from_storage, _from_u64

#: Rows per skippable block (matches the cascade codec's block size so
#: cascade blocks are independently decodable at exactly this grain).
LAZY_BLOCK = 4096

#: Modeled per-block metadata shipped with packed codecs for skipping:
#: min + max (8 bytes each) — the price of being able to skip at all.
BLOCK_META_BYTES = 16

#: Largest dictionary/code domain we will materialize as an on-chip LUT.
MAX_LUT_DOMAIN = 1 << 20


@dataclass
class LazyColumn:
    """One wire-resident column (or streamed block of one): what the
    device holds, plus the values it decodes to."""

    label: str
    encoded: EncodedColumn
    #: Frozen ground-truth array (the decoded values; computation is
    #: free in the simulation — only *charging* is modeled).
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.encoded.length

    @property
    def codec(self) -> str:
        return self.encoded.codec

    @property
    def itemsize(self) -> int:
        return np.dtype(self.encoded.dtype).itemsize

    @property
    def packed_nbytes(self) -> int:
        """Wire payload bytes (parts only, header excluded)."""
        return sum(part.nbytes for part in self.encoded.parts.values())

    def decode(self, rows: int, meter: TrafficMeter, span: int | None = None) -> str:
        """Charge ``meter`` the :func:`register_decode` of ``rows`` of
        this column's values; returns the EXPLAIN line of that read."""
        before = meter.reads[MemoryLevel.GLOBAL]
        register_decode(self.encoded, rows, span, meter)
        read_bytes = meter.reads[MemoryLevel.GLOBAL] - before
        return (
            f"{self.label}: register decode ({self.codec}) {rows} rows "
            f"~{read_bytes / 1e3:.1f}KB of {self.encoded.raw_nbytes / 1e3:.1f}KB raw"
        )

    def block_extents(self):
        """Per-LAZY_BLOCK ``(mins, maxs)`` of the integer storage values
        (the modeled block metadata): a property of the encoding, so it
        is cached there and shared by estimation and every execution."""
        cached = self.encoded.__dict__.get("_extents")
        if cached is None:
            stored = self.values
            if stored.dtype == np.bool_:
                stored = stored.view(np.uint8)
            if stored.dtype.kind not in "iu" or len(stored) == 0:
                cached = (None, None)
            else:
                starts = np.arange(0, len(stored), LAZY_BLOCK)
                cached = (
                    np.minimum.reduceat(stored, starts),
                    np.maximum.reduceat(stored, starts),
                )
            self.encoded.__dict__["_extents"] = cached
        return cached


# ----------------------------------------------------------------------
# the register decode
# ----------------------------------------------------------------------
def register_decode(
    encoded: EncodedColumn,
    rows: int,
    span: int | None = None,
    meter: TrafficMeter | None = None,
) -> TrafficMeter:
    """What it costs the kernel that reads ``rows`` values of a
    wire-resident column to decode them in registers, charged to
    ``meter`` (a fresh one by default) and returned.

    ``forpack``, ``dictionary``, ``boolpack`` and ``cascade`` are
    position-local and ``rle`` is run-local: a thread reads the packed
    bits (blocks, runs) of its own row, so the wire image — header and
    per-block metadata included — is read pro rata to the rows read.
    ``delta`` is an *ordered* prefix sum over the packed differences:
    every CTA of the kernel's ``span`` of rows (the whole column unless
    the kernel covers a slice of it) scans its differences on chip and
    propagates one aggregate, whatever the rows still alive, charged as
    :func:`~repro.primitives.prefix.charge_lookback_scan` charges it —
    whose 8-byte CTA descriptors are the only global write a register
    decode ever records.  Decoded values never leave registers.
    """
    cost = TrafficMeter() if meter is None else meter
    n = encoded.length
    rows = min(int(rows), n)
    if rows <= 0:
        return cost
    if encoded.codec == "delta":
        span = n if span is None else min(int(span), n)
        cost.record_read(MemoryLevel.GLOBAL, _pro_rata(encoded, span))
        charge_lookback_scan(
            cost, span, item_bytes=np.dtype(encoded.dtype).itemsize
        )
    else:
        cost.record_read(MemoryLevel.GLOBAL, _pro_rata(encoded, rows))
    cost.record_instructions(2 * rows)
    return cost


def _pro_rata(encoded: EncodedColumn, rows: int) -> int:
    """Wire bytes behind ``rows`` of the column's rows (rounded up)."""
    return -(-encoded.wire_nbytes * rows // encoded.length)


# ----------------------------------------------------------------------
# predicate analysis
# ----------------------------------------------------------------------
def flatten_conjuncts(expr: Expr) -> list[Expr]:
    """Split a top-level AND into its conjuncts (one element otherwise)."""
    from ..expressions.expr import BooleanOp

    if isinstance(expr, BooleanOp) and expr.op == "and":
        flat: list[Expr] = []
        for operand in expr.operands:
            flat.extend(flatten_conjuncts(operand))
        return flat
    return [expr]


def _literal_number(expr: Expr):
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float, np.number)):
        return int(expr.value) if isinstance(expr.value, bool) else expr.value
    return None


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def interval_analyzer(expr: Expr):
    """Return ``fn(lo, hi) -> 'all' | 'none' | 'mixed'`` deciding the
    predicate over a value interval, or ``None`` if the shape is not
    interval-sound (then every block is treated as mixed).

    Only integer intervals are analyzed — float min/max skipping is
    NaN-unsound, so float columns never take the block-skip strategy.
    """
    if isinstance(expr, Not):
        inner = interval_analyzer(expr.operand)
        if inner is None:
            return None
        flip = {"all": "none", "none": "all", "mixed": "mixed"}
        return lambda lo, hi: flip[inner(lo, hi)]
    if isinstance(expr, Comparison):
        op, left, right = expr.op, expr.left, expr.right
        if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
            left, right, op = right, left, _FLIPPED.get(op)
        value = _literal_number(right)
        if not isinstance(left, ColumnRef) or value is None or op is None:
            return None

        def test(lo, hi, op=op, value=value):
            if op == "==":
                if value < lo or value > hi:
                    return "none"
                return "all" if lo == hi == value else "mixed"
            if op == "!=":
                if value < lo or value > hi:
                    return "all"
                return "none" if lo == hi == value else "mixed"
            compare = {
                "<": lambda x: x < value,
                "<=": lambda x: x <= value,
                ">": lambda x: x > value,
                ">=": lambda x: x >= value,
            }[op]
            low, high = compare(lo), compare(hi)
            if low and high:
                return "all"
            if not low and not high:
                return "none"
            return "mixed"

        return test
    if isinstance(expr, Between):
        if not isinstance(expr.operand, ColumnRef):
            return None
        low = _literal_number(expr.low)
        high = _literal_number(expr.high)
        if low is None or high is None:
            return None

        def test(lo, hi, low=low, high=high):
            if lo >= low and hi <= high:
                return "all"
            if hi < low or lo > high:
                return "none"
            return "mixed"

        return test
    if isinstance(expr, InList):
        if not isinstance(expr.operand, ColumnRef):
            return None
        options = [_literal_number(option) for option in expr.options]
        if any(option is None for option in options):
            return None
        chosen = set(options)

        def test(lo, hi, chosen=chosen):
            inside = [option for option in chosen if lo <= option <= hi]
            if not inside:
                return "none"
            span = hi - lo + 1
            if span <= len(chosen) and all(v in chosen for v in range(lo, hi + 1)):
                return "all"
            return "mixed"

        return test
    return None


# ----------------------------------------------------------------------
# compressed-scan strategies
# ----------------------------------------------------------------------
@dataclass
class ScanPlan:
    """One predicate conjunct executed directly on a wire image."""

    strategy: str
    column: str
    codec: str
    #: Modeled GLOBAL bytes the fused scan reads from the wire image.
    read_bytes: int
    #: Modeled instruction count of the fused scan.
    instructions: int
    #: On-chip traffic (LUT probes for dict-lookup).
    onchip_bytes: int = 0
    blocks: int = 0
    blocks_skipped: int = 0
    detail: str = ""
    #: GLOBAL bytes unpacking the same rows in registers would read.
    unpack_bytes: int = 0
    #: Computes the exact selection flags over the column's rows
    #: (byte-identical to the decoded evaluation).  Execution calls it;
    #: the estimator prices the plan and never does.
    compute_flags: Callable[[], np.ndarray] = field(default=None, repr=False)

    @property
    def flags(self) -> np.ndarray:
        return self.compute_flags()

    def charge(self, meter: TrafficMeter) -> None:
        meter.record_read(MemoryLevel.GLOBAL, self.read_bytes)
        if self.onchip_bytes:
            meter.record_read(MemoryLevel.ONCHIP, self.onchip_bytes)
        meter.record_instructions(self.instructions)

    def note(self, label: str) -> str:
        return (
            f"{label}: compressed scan ({self.strategy}, {self.codec}) "
            f"{self.detail} ~{self.read_bytes / 1e3:.1f}KB vs unpack "
            f"{self.unpack_bytes / 1e3:.1f}KB"
        )


def _scan_rle(state: LazyColumn, conjunct: Expr, name: str) -> ScanPlan:
    run_values = state.encoded.parts["values"]
    lengths = state.encoded.parts["lengths"]
    runs = len(run_values)

    def flags() -> np.ndarray:
        typed = _from_storage(run_values, state.encoded.dtype)
        run_flags = np.asarray(evaluate(conjunct, {name: typed}), dtype=bool)
        return np.repeat(run_flags, lengths.astype(np.int64))

    return ScanPlan(
        strategy="rle-runs",
        column=name,
        codec=state.codec,
        read_bytes=run_values.nbytes + lengths.nbytes,
        instructions=conjunct.size() * runs + state.n,
        detail=f"({runs} runs)",
        compute_flags=flags,
    )


def _scan_dictionary(state: LazyColumn, conjunct: Expr, name: str) -> ScanPlan | None:
    width = int(state.encoded.meta.get("width", 0))
    domain = 1 << width
    if domain > MAX_LUT_DOMAIN:
        return None

    def flags() -> np.ndarray:
        codes = np.arange(domain, dtype=np.uint64)
        lut = np.asarray(
            evaluate(conjunct, {name: _from_u64(codes, state.encoded.dtype)}),
            dtype=bool,
        )
        return lut[state.values.astype(np.int64, copy=False)]

    return ScanPlan(
        strategy="dict-lookup",
        column=name,
        codec=state.codec,
        read_bytes=state.packed_nbytes,
        instructions=conjunct.size() * domain + state.n,
        onchip_bytes=state.n,
        detail=f"({domain}-entry LUT)",
        compute_flags=flags,
    )


def _scan_block_skip(state: LazyColumn, conjunct: Expr, name: str) -> ScanPlan | None:
    test = interval_analyzer(conjunct)
    if test is None:
        return None
    los, his = state.block_extents()
    if los is None:
        return None
    n = state.n
    blocks = len(los)
    verdicts = [test(int(lo), int(hi)) for lo, hi in zip(los, his)]
    mixed = np.array([verdict == "mixed" for verdict in verdicts], dtype=bool)
    block_rows = np.minimum(LAZY_BLOCK, n - np.arange(blocks) * LAZY_BLOCK)
    if state.codec == "cascade":
        widths = state.encoded.parts["widths"].astype(np.int64)
    else:
        widths = int(state.encoded.meta.get("width", 0))
    survivor_rows = int(block_rows[mixed].sum())
    survivor_bits = int((block_rows * widths)[mixed].sum())
    skipped = blocks - int(mixed.sum())

    def flags() -> np.ndarray:
        out = np.empty(n, dtype=bool)
        for index, verdict in enumerate(verdicts):
            start = index * LAZY_BLOCK
            stop = min(start + LAZY_BLOCK, n)
            if verdict == "mixed":
                out[start:stop] = np.asarray(
                    evaluate(conjunct, {name: state.values[start:stop]}), dtype=bool
                )
            else:
                out[start:stop] = verdict == "all"
        return out

    return ScanPlan(
        strategy="block-skip",
        column=name,
        codec=state.codec,
        read_bytes=blocks * BLOCK_META_BYTES + (survivor_bits + 7) // 8,
        instructions=2 * blocks + (2 + conjunct.size()) * survivor_rows,
        blocks=blocks,
        blocks_skipped=skipped,
        detail=f"({skipped}/{blocks} blocks skipped)",
        compute_flags=flags,
    )


def plan_scan(
    state: LazyColumn, conjunct: Expr, name: str, rows: int | None = None
) -> ScanPlan | None:
    """The compressed-scan strategy for one single-column conjunct over
    a wire image, or ``None`` when unpacking the ``rows`` values still
    alive in registers (:func:`register_decode`) and testing them is at
    least as cheap — always for ``delta`` (an ordered prefix sum has no
    random block access) and ``boolpack`` (no exploitable order).

    A strategy is taken only if it is no worse on global bytes *and* on
    instructions, so fusing a predicate can never read more than the
    plain register decode, which never reads more than the raw column.
    """
    codec = state.codec
    if codec == "rle":
        plan = _scan_rle(state, conjunct, name)
    elif codec == "dictionary":
        plan = _scan_dictionary(state, conjunct, name)
    elif codec in ("forpack", "cascade"):
        plan = _scan_block_skip(state, conjunct, name)
    else:
        plan = None
    if plan is None:
        return None
    # Every codec with a strategy is position- or run-local.
    rows = state.n if rows is None else min(int(rows), state.n)
    plan.unpack_bytes = _pro_rata(state.encoded, rows) if rows > 0 else 0
    if (
        plan.read_bytes > plan.unpack_bytes
        or plan.instructions > (2 + conjunct.size()) * rows
    ):
        return None
    return plan
