"""Per-query compression accounting."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CompressionStats:
    """What compression did to one query's link traffic.

    ``raw_bytes``/``wire_bytes`` (transfers that crossed the link, both
    ways) and the decode/encode launch counts are read off the query
    record (:meth:`read_log`); ``columns`` counts transferred columns/blocks,
    ``encoded_columns`` the subset that shipped in a non-passthrough
    codec, and ``codecs`` the per-codec breakdown.
    """

    raw_bytes: int = 0
    wire_bytes: int = 0
    columns: int = 0
    encoded_columns: int = 0
    #: Stand-alone ``decode.*`` launches: only engines that materialize
    #: at load (operator-at-a-time, cpu) have any.
    decode_kernels: int = 0
    encode_kernels: int = 0
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

    def read_log(self, log) -> None:
        """Fill the link bytes and launch counts from the query record."""
        self.raw_bytes = log.raw_transfer_bytes()
        self.wire_bytes = log.transfer_bytes()
        self.decode_kernels = len(log.kernels_of_kind("decode"))
        self.encode_kernels = len(log.kernels_of_kind("encode"))

    def merge(self, other: "CompressionStats") -> None:
        """Add ``other``'s facts but those :meth:`read_log` fills."""
        self.columns += other.columns
        self.encoded_columns += other.encoded_columns
        self.compressed_scans += other.compressed_scans
        self.scan_blocks += other.scan_blocks
        self.scan_blocks_skipped += other.scan_blocks_skipped
        self.deferred_columns += other.deferred_columns
        self.partial_decode_bytes += other.partial_decode_bytes
        self.host_decode_bytes += other.host_decode_bytes
        self.scans.extend(other.scans)
        for name, count in other.codecs.items():
            self.codecs[name] = self.codecs.get(name, 0) + count
        for name, ms in other.decode_ms_by_codec.items():
            self.decode_ms_by_codec[name] = (
                self.decode_ms_by_codec.get(name, 0.0) + ms
            )

    @classmethod
    def aggregate(cls, items) -> "CompressionStats | None":
        merged = None
        for item in items:
            if item is None:
                continue
            if merged is None:
                merged = cls()
            merged.merge(item)
        return merged

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
