"""Source listings of the compression work a query ran (for EXPLAIN).

Generated kernels decode wire images in registers, so their own source
never changes with the policy; what was fused into them — a register
decode, a compressed scan — and the stand-alone decode / encode
launches that remain (materializing engines, D2H results) keep a
listing here so ``EXPLAIN ANALYZE`` can show what ran.
"""

from __future__ import annotations


def decode_kernel_source(
    name: str, codec: str, dtype: str, length: int, wire_nbytes: int, raw_nbytes: int
) -> str:
    """Source listing for one column/block decompression kernel."""
    body = {
        "rle": (
            "    # expand (run value, run length) pairs\n"
            "    offsets = exclusive_scan(lengths)  # one thread per run\n"
            "    out[offsets[r] : offsets[r] + lengths[r]] = run_values[r]"
        ),
        "forpack": (
            "    # frame-of-reference unpack: width bits per value\n"
            "    delta = extract_bits(wire, i * width, width)\n"
            "    out[i] = reference + delta"
        ),
        "delta": (
            "    # unpack packed differences, then prefix-sum\n"
            "    diff = reference + extract_bits(wire, i * width, width)\n"
            "    out[i] = first + inclusive_scan(diff)[i]"
        ),
        "dictionary": (
            "    # unpack dictionary codes: width bits per code\n"
            "    out[i] = extract_bits(wire, i * width, width)"
        ),
    }.get(codec, "    out[i] = wire[i]  # passthrough")
    return (
        f"def {name.replace('.', '_')}(wire, out):\n"
        f"    # {codec} decode: {wire_nbytes} wire B -> {raw_nbytes} raw B "
        f"({length} x {dtype})\n"
        f"    # traffic: GLOBAL read {wire_nbytes} B, GLOBAL write {raw_nbytes} B\n"
        f"{body}\n"
    )


def encode_kernel_source(
    name: str, codec: str, dtype: str, length: int, wire_nbytes: int, raw_nbytes: int
) -> str:
    """Source listing for a device-side result-encode kernel (D2H)."""
    return (
        f"def {name.replace('.', '_')}(values, wire):\n"
        f"    # {codec} encode: {raw_nbytes} raw B -> {wire_nbytes} wire B "
        f"({length} x {dtype})\n"
        f"    # traffic: GLOBAL read {raw_nbytes} B, GLOBAL write {wire_nbytes} B\n"
        f"    wire[i] = pack({codec!r}, values[i])\n"
    )


def compressed_scan_source(
    name: str, strategy: str, codec: str, read_bytes: int, instructions: int,
    detail: str = "",
) -> str:
    """Source listing for a fused compressed-scan stage (predicate
    evaluated directly on the wire image — no raw materialization)."""
    body = {
        "rle-runs": (
            "    # one predicate evaluation per run, amortized over lengths\n"
            "    run_flag = predicate(run_values[r])\n"
            "    flags[offsets[r] : offsets[r] + lengths[r]] = run_flag"
        ),
        "dict-lookup": (
            "    # predicate pre-evaluated over the code domain (on-chip LUT)\n"
            "    lut[c] = predicate(dictionary_value(c))  # once per code\n"
            "    flags[i] = lut[extract_bits(wire, i * width, width)]"
        ),
        "block-skip": (
            "    # test per-block [min, max] against the predicate first\n"
            "    if block_all_true: flags[block] = True      # skip unpack\n"
            "    elif block_all_false: flags[block] = False  # skip unpack\n"
            "    else: flags[i] = predicate(reference + extract_bits(...))"
        ),
    }[strategy]
    header = f"    # {strategy} over {codec} wire image"
    if detail:
        header += f" {detail}"
    return (
        f"def {name.replace('.', '_')}(wire, flags):\n"
        f"{header}\n"
        f"    # traffic: GLOBAL read {read_bytes} B, {instructions} instructions\n"
        f"{body}\n"
    )


def register_decode_source(name: str, codec: str, note: str) -> str:
    """Source listing for a register decode fused into the kernel that
    reads a wire-resident column (``note``: the first one's EXPLAIN
    line — rows read, wire bytes charged)."""
    return (
        f"def {name.replace('.', '_')}(wire, positions):\n"
        f"    # {note}\n"
        f"    # traffic: GLOBAL read of the wire image only; no write, no launch\n"
        f"    value = unpack({codec!r}, wire, positions[t])  # stays in registers\n"
    )
