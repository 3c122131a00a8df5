"""Access-set arithmetic (paper Sec. 5.3, Eq. 3-4) and the port-occupancy kernel.

The scheduler's contention constraints and the cycle-level simulator's
legality checks both reason about *which lines of a line buffer a stage
touches at a given cycle*.  This module centralises that arithmetic so the
optimizer and the verifier cannot drift apart.

Conventions
-----------
* A stage ``i`` with start cycle ``S_i`` is *active* at cycles
  ``S_i <= t < S_i + W*H``.
* At cycle ``t`` the first line accessed is ``L_i(t) = ceil((t - S_i) / W)``
  (Eq. 3) and the access set is ``{L_i(t), ..., L_i(t) + SH_i - 1}`` (Eq. 4),
  where ``SH_i`` is 1 for the stage writing the buffer.
* Under line coalescing with factor ``F``, the same formulas apply at block
  granularity with ``W -> F*W`` and ``SH -> ceil(SH / F)``.

Port model
----------
Broadcast: a block serves one access per distinct ``(line, column)`` address
per cycle, so pattern-identical reads (Darkroom's relays) share one access.
:func:`port_conflict` is the one reserved table for memory contention (Eq. 12,
extended to coalesced blocks in Sec. 6): the allocator sizes every ImaGen line
buffer with it and the ``cycle`` check runs it for R3, so compiled schedules
pass R3 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError

#: Lines the slot search tries past the capacity bound before giving up.
MAX_EXTRA_LINES = 4


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for non-negative denominators."""
    return -(-numerator // denominator)


def first_line(t: int, start_cycle: int, width: int) -> int:
    """Eq. 3: the first (lowest-indexed) line a stage touches at cycle ``t``."""
    if t < start_cycle:
        raise ValueError(f"Stage is not active at cycle {t} (starts at {start_cycle})")
    return ceil_div(t - start_cycle, width)


def access_set(t: int, start_cycle: int, width: int, stencil_height: int) -> range:
    """Eq. 4: the set of line indices a stage accesses at cycle ``t``."""
    start = first_line(t, start_cycle, width)
    return range(start, start + stencil_height)


@dataclass(frozen=True)
class Accessor:
    """One stage accessing a particular line buffer.

    ``stencil_height`` is expressed in *row units* of that buffer: image lines
    normally, blocks of ``coalesce_factor`` lines when coalescing is applied.
    ``is_writer`` marks the producer (its stencil height is always 1).
    """

    stage: str
    stencil_height: int
    is_writer: bool = False


def sets_disjoint(
    t: int,
    trailing_start: int,
    trailing_height: int,
    leading_start: int,
    leading_height: int,
    width: int,
) -> bool:
    """Direct (set-based) disjointness check used in tests against Eq. 12."""
    if t < max(trailing_start, leading_start):
        return True
    trailing = access_set(t, trailing_start, width, trailing_height)
    leading = access_set(t, leading_start, width, leading_height)
    return trailing.stop <= leading.start or leading.stop <= trailing.start


def required_line_slots(max_delay: int, width: int) -> int:
    """Physical line slots needed for a producer whose slowest consumer lags ``max_delay``.

    Equation (2) of the paper sizes the buffer as ``ceil(delay / W)`` lines.
    Physically the buffer must simultaneously hold every line from the oldest
    one still needed by a consumer up to the line being written, which is
    ``floor(delay / W) + 1`` lines; the two coincide except when the delay is
    an exact multiple of ``W``.  We allocate the physical count.
    """
    if max_delay < 0:
        raise ValueError("Delay cannot be negative")
    if max_delay == 0:
        return 1
    return max_delay // width + 1


def frame_buffer_pixels(depth: int, image_width: int, image_height: int) -> int:
    """Pixels a producer's frame buffer must retain for ``depth`` past frames.

    Temporal consumers read the producer at frame offsets down to ``-depth``;
    the temporal reuse distance of such a read is ``depth`` *whole frames*, so
    unlike line buffers (which hold ``O(delay / W)`` lines) the frame buffer
    must hold ``depth x H x W`` pixels.  The size is independent of start
    cycles — frame history is carried across frame boundaries, not across the
    raster scan — which is why frame buffers sit outside the ILP and are added
    to the SRAM total as a constant.
    """
    if depth < 0:
        raise ValueError(f"Frame-buffer depth cannot be negative, got {depth}")
    if image_width < 1 or image_height < 1:
        raise ValueError(f"Image extent must be positive, got {image_width}x{image_height}")
    return depth * image_width * image_height




def port_conflict(
    width: int, ports: int, lines: int, factor: int, taps: list[tuple[int, int]]
) -> tuple[int, int, int, int] | None:
    """First over-subscribed ``(block, accesses, row_phase, column)`` of a buffer, or ``None``.

    The buffer holds ``lines`` line slots, ``factor`` per block; ``taps`` are
    ``(delay, stencil_height)`` pairs relative to the writer, which is itself
    ``(0, 1)``.  In steady state a tap with delay ``q*W + r`` reads lines
    ``R - q - [c < r] + k`` (``0 <= k < height``) at column ``(c - r) mod W``
    while the writer is at row ``R``, column ``c``.  Which addresses land on
    which block depends only on ``R mod lines`` and on which remainders ``c``
    has passed: ``lines`` row phases x one column per distinct remainder, the
    modulo-II reserved table.
    """
    entries = [(*divmod(delay, width), height) for delay, height in taps]
    columns = sorted({0, *(remainder for _, remainder, _ in entries)})
    for row_phase in range(lines):
        for column in columns:
            per_block: dict[int, set[tuple[int, int]]] = {}
            for quotient, remainder, height in entries:
                base = -quotient - (column < remainder)
                for k in range(base, base + height):
                    block = (row_phase + k) % lines // factor
                    per_block.setdefault(block, set()).add((k, remainder))
            for block, addresses in per_block.items():
                if len(addresses) > ports:
                    return block, len(addresses), row_phase, column
    return None


def minimal_slot_count(
    width: int,
    ports: int,
    accessors: list[tuple[int, int]],
    *,
    coalesce_factor: int = 1,
) -> int:
    """Smallest line count that keeps every block of the buffer within its port budget.

    ``accessors`` are ``(delay, stencil_height)`` pairs relative to the
    buffer's writer (added automatically).  Candidates run from the capacity
    bound ``floor(max_delay / W) + 1`` (the lines that must coexist) up to
    :data:`MAX_EXTRA_LINES` more, because the writer's newest line can alias a
    slow reader's oldest one.  Each is rounded up to whole blocks of
    ``min(coalesce_factor, candidate)`` lines — exactly the buffer the
    allocator builds — and checked with :func:`port_conflict`.  If none is
    free of conflicts, the schedule itself over-subscribes the buffer and
    :class:`AllocationError` is raised.
    """
    if not accessors:
        return 0
    base = required_line_slots(max(delay for delay, _ in accessors), width)
    taps = [(0, 1), *accessors]
    for candidate in range(base, base + MAX_EXTRA_LINES + 1):
        factor = min(max(1, coalesce_factor), candidate)
        lines = ceil_div(candidate, factor) * factor
        conflict = port_conflict(width, ports, lines, factor, taps)
        if conflict is None:
            return lines
    raise AllocationError(
        f"No line count up to {lines} keeps the buffer within {ports} port(s); "
        f"at {lines}, (block, accesses, row phase, column) = {conflict}"
    )
