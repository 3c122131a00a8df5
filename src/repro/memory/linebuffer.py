"""Line-buffer configuration records.

A :class:`LineBufferConfig` is the physical realisation of one producer
stage's intermediate buffer: how many line slots it stores, how those lines
are packed into memory blocks, and how it is accessed.  It is produced by the
allocator from a schedule, and consumed by the area/power estimators, the
cycle simulator and the RTL generator.

A :class:`LineBufferConfig` (de)serializes through
``to_payload``/``from_payload``: plain JSON-compatible dictionaries that
capture *every* physical field — block assignments, DFF pixels, FIFO chains,
reader heights and the (possibly generator-adapted) memory spec.  This is
what lets baseline designs, whose buffers cannot be re-derived by the ImaGen
allocator, round-trip losslessly through the disk cache that several
processes may share.  A :class:`FrameBufferConfig` is never serialized:
its size is a function of the DAG alone, so it is re-derived on load.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.memory.spec import MemorySpec


@dataclass(frozen=True)
class BlockAssignment:
    """One physical memory block and the line slots (and segments) it holds."""

    index: int
    line_slots: tuple[int, ...]
    segment: int = 0  # when one line spans several blocks, its segment number
    used_bits: int = 0

    @property
    def num_lines(self) -> int:
        return len(self.line_slots)

    # --------------------------------------------------------------- payload
    def to_payload(self) -> dict:
        """Flatten into a JSON-compatible dictionary (see module docstring)."""
        return {
            "index": self.index,
            "line_slots": list(self.line_slots),
            "segment": self.segment,
            "used_bits": self.used_bits,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BlockAssignment":
        """Rebuild one block assignment from :meth:`to_payload` output."""
        return cls(
            index=int(payload["index"]),
            line_slots=tuple(int(slot) for slot in payload["line_slots"]),
            segment=int(payload.get("segment", 0)),
            used_bits=int(payload.get("used_bits", 0)),
        )


@dataclass(frozen=True)
class FrameBufferConfig:
    """Whole-frame history storage for one producer with temporal consumers.

    A consumer reading the producer at frame offset ``dt = -k`` needs the
    producer's last ``k`` complete frames retained; ``depth`` is the deepest
    such ``k`` over all consumers.  The retained history is
    ``depth x height x width`` pixels (``pixel_capacity`` / ``data_bits``);
    physically the buffer rotates through ``depth + 1`` frame slots, one bank
    per slot: the writer streams the current frame into the spare slot while
    readers draw the ``depth`` past frames from the others, so no bank ever
    serves more than one access per cycle and the buffer is legal on any port
    count — including FixyNN's single-port SRAM.  Unlike line buffers, the
    size is a pure function of the DAG and image geometry — independent of
    start cycles — so it can be re-derived anywhere a schedule is
    reconstructed (see :func:`repro.memory.allocator.derive_frame_buffers`).
    """

    producer: str
    image_width: int
    image_height: int
    depth: int
    spec: MemorySpec

    @property
    def slots(self) -> int:
        """Physical frame slots: ``depth`` past frames + the rotation slot."""
        return self.depth + 1

    @property
    def pixel_capacity(self) -> int:
        """Pixels of live history retained: ``depth`` whole frames."""
        return self.depth * self.image_width * self.image_height

    @property
    def data_bits(self) -> int:
        return self.pixel_capacity * self.spec.pixel_bits

    @property
    def num_blocks(self) -> int:
        """Blocks claimed: one bank per frame slot, each rounding up separately."""
        frame_bits = self.image_width * self.image_height * self.spec.pixel_bits
        blocks_per_frame = -(-frame_bits // self.spec.block_bits)
        return self.slots * blocks_per_frame

    @property
    def allocated_bits(self) -> int:
        return self.num_blocks * self.spec.block_bits

    @property
    def allocated_kbytes(self) -> float:
        return self.allocated_bits / 8192.0

    @property
    def data_kbytes(self) -> float:
        return self.data_bits / 8192.0

    def summary(self) -> str:
        return (
            f"FB[{self.producer}]: {self.depth} frame(s) x "
            f"{self.image_height}x{self.image_width}px, "
            f"{self.num_blocks} block(s) ({self.spec.name})"
        )


@dataclass
class LineBufferConfig:
    """Physical configuration of the line buffer after one producer stage."""

    producer: str
    image_width: int
    lines: int
    spec: MemorySpec
    coalesce_factor: int = 1
    #: "sram" (classic / ImaGen), "fifo" (SODA), or "registers" (sub-line DFF buffer).
    style: str = "sram"
    blocks: list[BlockAssignment] = field(default_factory=list)
    #: pixels kept in DFF shift registers rather than SRAM (SODA's last line).
    dff_pixels: int = 0
    #: number of parallel FIFO chains (SODA splits per extra consumer).
    fifo_chains: int = 1
    #: per-accessor stencil heights (writer excluded), for access accounting.
    reader_heights: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------- capacities
    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def pixel_capacity(self) -> int:
        """Pixels of storage actually required (line slots x width)."""
        return self.lines * self.image_width

    @property
    def data_bits(self) -> int:
        """Bits of payload stored in SRAM (excludes DFF pixels)."""
        return self.pixel_capacity * self.spec.pixel_bits

    @property
    def allocated_bits(self) -> int:
        """Bits of SRAM capacity claimed (block-granular allocation)."""
        return self.num_blocks * self.spec.block_bits

    @property
    def allocated_kbytes(self) -> float:
        return self.allocated_bits / 8192.0

    @property
    def data_kbytes(self) -> float:
        return self.data_bits / 8192.0

    def summary(self) -> str:
        return (
            f"LB[{self.producer}]: {self.lines} lines x {self.image_width}px, "
            f"{self.num_blocks} block(s) ({self.spec.name}), coalesce={self.coalesce_factor}, "
            f"style={self.style}"
        )

    # --------------------------------------------------------------- payload
    def to_payload(self) -> dict:
        """Flatten the full physical configuration into a JSON-compatible dict.

        Lossless: every field, including the per-buffer memory spec (baseline
        generators adapt the request spec, e.g. SODA rewrites it into FIFO
        form) and the block assignments, survives a
        :meth:`from_payload` round-trip bit-identically.
        """
        return {
            "producer": self.producer,
            "image_width": self.image_width,
            "lines": self.lines,
            "spec": asdict(self.spec),
            "coalesce_factor": self.coalesce_factor,
            "style": self.style,
            "blocks": [block.to_payload() for block in self.blocks],
            "dff_pixels": self.dff_pixels,
            "fifo_chains": self.fifo_chains,
            "reader_heights": dict(self.reader_heights),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LineBufferConfig":
        """Rebuild a configuration from :meth:`to_payload` output."""
        spec_payload = dict(payload["spec"])
        known = {f.name for f in fields(MemorySpec)}
        unknown = set(spec_payload) - known
        if unknown:
            raise ValueError(f"Unknown memory spec fields in payload: {sorted(unknown)}")
        return cls(
            producer=str(payload["producer"]),
            image_width=int(payload["image_width"]),
            lines=int(payload["lines"]),
            spec=MemorySpec(**spec_payload),
            coalesce_factor=int(payload.get("coalesce_factor", 1)),
            style=str(payload.get("style", "sram")),
            blocks=[BlockAssignment.from_payload(b) for b in payload.get("blocks", [])],
            dff_pixels=int(payload.get("dff_pixels", 0)),
            fifo_chains=int(payload.get("fifo_chains", 1)),
            reader_heights={
                str(name): int(height)
                for name, height in payload.get("reader_heights", {}).items()
            },
        )
