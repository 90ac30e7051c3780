"""Per-query compression accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.traffic import LogSlice


@dataclass
class CompressionStats:
    """What compression did to one query's link traffic.

    ``raw_bytes``/``wire_bytes`` (transfers that crossed the link, both
    ways) and the decode/encode launch counts are read off the query
    record ``log``; ``columns`` counts transferred columns/blocks,
    ``encoded_columns`` the subset that shipped in a non-passthrough
    codec, and ``codecs`` the per-codec breakdown.
    """

    columns: int = 0
    encoded_columns: int = 0
    codecs: dict = field(default_factory=dict)
    #: Fused into the consuming kernels instead: predicate conjuncts
    #: executed directly on wire images, block-skip accounting, columns
    #: (or streamed blocks) that stayed wire-resident, and the raw bytes'
    #: worth of values decoded in registers, never written back.
    compressed_scans: int = 0
    scan_blocks: int = 0
    scan_blocks_skipped: int = 0
    deferred_columns: int = 0
    partial_decode_bytes: int = 0
    #: D2H partials shipped as wire images decode on the host; these
    #: bytes never charge a device kernel.
    host_decode_bytes: int = 0
    #: Human-readable fusion decisions, one per column and conjunct
    #: (for EXPLAIN): compressed scan or register decode.
    scans: list = field(default_factory=list)
    #: Simulated ms of the stand-alone decode launches, by codec.
    decode_ms_by_codec: dict = field(default_factory=dict)

    #: The query record.  Not a field: ``asdict`` / ``==`` / ``repr``
    #: carry compression's own facts only.
    log = LogSlice()

    @property
    def raw_bytes(self) -> int:
        return self.log.raw_transfer_bytes()

    @property
    def wire_bytes(self) -> int:
        return self.log.transfer_bytes()

    @property
    def decode_kernels(self) -> int:
        """Stand-alone ``decode.*`` launches (operator-at-a-time, cpu)."""
        return len(self.log.kernels_of_kind("decode"))

    @property
    def encode_kernels(self) -> int:
        return len(self.log.kernels_of_kind("encode"))

    @property
    def ratio(self) -> float:
        return self.raw_bytes / self.wire_bytes if self.wire_bytes else 1.0

    @property
    def saved_bytes(self) -> int:
        return self.raw_bytes - self.wire_bytes

    def record(self, codec: str) -> None:
        self.columns += 1
        name = codec or "passthrough"
        if name != "passthrough":
            self.encoded_columns += 1
        self.codecs[name] = self.codecs.get(name, 0) + 1

    def record_decode_kernel(self, codec: str, sim_ms: float) -> None:
        self.decode_ms_by_codec[codec] = (
            self.decode_ms_by_codec.get(codec, 0.0) + float(sim_ms)
        )

    def summary(self) -> str:
        codecs = ", ".join(
            f"{name}x{count}" for name, count in sorted(self.codecs.items())
        )
        text = (
            f"wire {self.wire_bytes:,}B / raw {self.raw_bytes:,}B "
            f"({self.ratio:.2f}x, {self.encoded_columns}/{self.columns} "
            f"columns encoded; {codecs})"
        )
        if self.deferred_columns:
            text += (
                f"; {self.deferred_columns} columns decoded in registers, "
                f"{self.compressed_scans} compressed scans "
                f"({self.scan_blocks_skipped}/{self.scan_blocks} blocks skipped)"
            )
        return text
