"""Packing line-buffer lines into physical memory blocks.

Two allocation styles are supported:

* :func:`allocate_line_buffer` — the classic addressable line buffer used by
  Darkroom, FixyNN and ImaGen.  Each block holds ``coalesce_factor``
  consecutive line slots (1 when coalescing is off); a line wider than a
  block spills across several blocks.
* :func:`allocate_fifo_buffer` — the SODA arrangement: the buffer is a chain
  of FIFOs, one per full line of reuse, the final partial line lives in DFFs,
  and the whole chain is replicated per extra consumer ("FIFO splitting" keeps
  total capacity but doubles the number of (smaller) FIFOs; we model the
  replication of access chains and keep capacity per chain).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import AllocationError
from repro.memory.linebuffer import BlockAssignment, FrameBufferConfig, LineBufferConfig
from repro.memory.spec import MemorySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.dag import PipelineDAG


def dff_realization_threshold(image_width: int) -> int:
    """Largest producer->consumer delay (in pixels) realised as DFFs rather than SRAM.

    Very small buffers (a pointwise consumer needs to hold only a pixel or
    two) are cheaper as flip-flop shift registers than as an SRAM line — the
    same observation the paper makes for SODA's short FIFOs (Fig. 4).  The
    threshold grows mildly with the line width but is capped so a full image
    line is never put in DFFs: at most ``image_width - 1`` pixels, which only
    binds on frames 8 pixels wide or narrower.
    """
    return min(64, image_width - 1, max(8, image_width // 8))


def allocate_register_buffer(
    producer: str,
    image_width: int,
    delay_pixels: int,
    spec: MemorySpec,
    *,
    reader_heights: dict[str, int] | None = None,
) -> LineBufferConfig:
    """Realise a sub-line buffer as a DFF shift register (no SRAM blocks)."""
    if delay_pixels < 0:
        raise AllocationError(f"Negative delay for {producer!r}")
    return LineBufferConfig(
        producer=producer,
        image_width=image_width,
        lines=0,
        spec=spec,
        coalesce_factor=1,
        style="registers",
        dff_pixels=delay_pixels + 1,
        reader_heights=dict(reader_heights or {}),
    )


def allocate_line_buffer(
    producer: str,
    image_width: int,
    lines: int,
    spec: MemorySpec,
    *,
    coalesce_factor: int = 1,
    reader_heights: dict[str, int] | None = None,
) -> LineBufferConfig:
    """Pack ``lines`` line slots of ``image_width`` pixels into blocks.

    ``coalesce_factor`` is the number of line slots per block (Sec. 6); it is
    clamped to the block's physical capacity and the spec's port count by the
    caller (the scheduler), but re-validated here.
    """
    if lines < 0:
        raise AllocationError(f"Negative line count for {producer!r}")
    if coalesce_factor < 1:
        raise AllocationError(f"Coalescing factor must be >= 1, got {coalesce_factor}")

    config = LineBufferConfig(
        producer=producer,
        image_width=image_width,
        lines=lines,
        spec=spec,
        coalesce_factor=coalesce_factor,
        style="sram",
        reader_heights=dict(reader_heights or {}),
    )
    if lines == 0:
        return config

    line_bits = spec.line_bits(image_width)
    blocks: list[BlockAssignment] = []

    if line_bits > spec.block_bits:
        if coalesce_factor != 1:
            raise AllocationError(
                f"Cannot coalesce lines of {line_bits} bits into {spec.block_bits}-bit blocks"
            )
        segments = spec.blocks_per_line(image_width)
        bits_left_per_line = [line_bits] * lines
        index = 0
        for line_slot in range(lines):
            remaining = bits_left_per_line[line_slot]
            for segment in range(segments):
                used = min(spec.block_bits, remaining)
                blocks.append(
                    BlockAssignment(index=index, line_slots=(line_slot,), segment=segment, used_bits=used)
                )
                remaining -= used
                index += 1
    else:
        capacity_lines = spec.lines_per_block(image_width)
        factor = min(coalesce_factor, capacity_lines)
        if factor < coalesce_factor:
            raise AllocationError(
                f"Block of {spec.block_bits} bits holds only {capacity_lines} lines; "
                f"cannot coalesce {coalesce_factor}"
            )
        index = 0
        slot = 0
        while slot < lines:
            group = tuple(range(slot, min(slot + factor, lines)))
            blocks.append(
                BlockAssignment(index=index, line_slots=group, used_bits=len(group) * line_bits)
            )
            slot += factor
            index += 1

    config.blocks = blocks
    return config


def allocate_frame_buffer(
    producer: str,
    image_width: int,
    image_height: int,
    depth: int,
    spec: MemorySpec,
) -> FrameBufferConfig:
    """Size the whole-frame history buffer of one temporal producer.

    ``depth`` past frames of ``image_height x image_width`` pixels are
    retained, banked one frame per bank (see
    :class:`repro.memory.linebuffer.FrameBufferConfig`).  All generators share
    this allocation: frame buffers sit behind the raster-scan line-buffer
    fabric, so ImaGen, Darkroom, SODA and FixyNN pay the same frame SRAM for
    the same DAG.
    """
    if depth < 1:
        raise AllocationError(f"Frame buffer for {producer!r} needs depth >= 1, got {depth}")
    if image_width < 1 or image_height < 1:
        raise AllocationError(
            f"Frame buffer for {producer!r} needs a positive image extent, "
            f"got {image_width}x{image_height}"
        )
    return FrameBufferConfig(
        producer=producer,
        image_width=image_width,
        image_height=image_height,
        depth=depth,
        spec=spec,
    )


def derive_frame_buffers(
    dag: "PipelineDAG",
    image_width: int,
    image_height: int,
    spec: MemorySpec,
) -> list[FrameBufferConfig]:
    """Frame buffers a pipeline needs: one per producer with temporal consumers.

    A pure function of the DAG and image geometry — no start cycles involved —
    so every schedule construction site (the ImaGen scheduler, each baseline
    generator, and cache deserialization) derives the identical list.  Returns
    ``[]`` for purely spatial pipelines.  Order follows the DAG's stage
    insertion order for determinism.
    """
    depths = dag.frame_depths()
    if not depths:
        return []
    return [
        allocate_frame_buffer(name, image_width, image_height, depths[name], spec)
        for name in dag.stage_names()
        if name in depths
    ]


def allocate_fifo_buffer(
    producer: str,
    image_width: int,
    reuse_lines: int,
    spec: MemorySpec,
    *,
    num_consumers: int = 1,
    tail_pixels: int | None = None,
    reader_heights: dict[str, int] | None = None,
) -> LineBufferConfig:
    """SODA-style FIFO allocation.

    ``reuse_lines`` is the number of *full* lines of reuse distance
    (``max stencil height - 1``); the final partial line (``tail_pixels``,
    default a few pixels, i.e. the stencil width) is implemented as a DFF
    shift register and therefore consumes no SRAM.  With several consumers,
    every FIFO is split into ``num_consumers`` smaller FIFOs, each in its own
    memory block (Fig. 4b): total capacity per reuse line is unchanged but the
    number of (smaller) blocks multiplies, and each block still serves one
    read plus one write every cycle.
    """
    if reuse_lines < 0:
        raise AllocationError(f"Negative reuse distance for {producer!r}")
    if num_consumers < 1:
        raise AllocationError("A FIFO buffer needs at least one consumer")

    splits = max(1, num_consumers)
    config = LineBufferConfig(
        producer=producer,
        image_width=image_width,
        lines=reuse_lines,
        spec=spec,
        coalesce_factor=1,
        style="fifo",
        dff_pixels=tail_pixels if tail_pixels is not None else 3,
        fifo_chains=splits,
        reader_heights=dict(reader_heights or {}),
    )
    if reuse_lines == 0:
        return config

    line_bits = spec.line_bits(image_width)
    piece_bits = -(-line_bits // splits)  # ceil division: bits per split FIFO
    segments_per_piece = max(1, -(-piece_bits // spec.block_bits))
    blocks: list[BlockAssignment] = []
    index = 0
    for line_slot in range(reuse_lines):
        for _split in range(splits):
            remaining = piece_bits
            for segment in range(segments_per_piece):
                used = min(spec.block_bits, remaining)
                blocks.append(
                    BlockAssignment(index=index, line_slots=(line_slot,), segment=segment, used_bits=used)
                )
                remaining -= used
                index += 1
    config.blocks = blocks
    return config
