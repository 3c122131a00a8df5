"""Cycle-level simulator for line-buffered pipeline schedules.

The simulator plays the role of the paper's "cycle-level simulator" (Sec. 7):
it walks the schedule cycle by cycle, tracks which physical line-buffer
blocks every stage touches, and

* verifies the three no-stall requirements of Sec. 5.1 —
  R1 (causality), R2 (no premature eviction), R3 (no port over-subscription);
* counts memory accesses per block, which the power model combines with
  per-access energies;
* measures the steady-state throughput (pixels per cycle) of the output
  stage.

Timing convention (element granularity)
---------------------------------------
A stage with start cycle ``S`` processes pixel ``n = t - S`` at cycle ``t``:
row ``n // W``, column ``n % W``.  A consumer reading an ``SH``-line window
reads one pixel from each of the ``SH`` lines ``row .. row + SH - 1`` of its
producer's buffer each cycle.  Reads from several consumers that target the
same (line, column) address are served by one physical access (broadcast),
which is what makes Darkroom's pattern-identical relay reads free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.access import port_conflict
from repro.core.schedule import PipelineSchedule
from repro.errors import SimulationError


@dataclass
class BufferStats:
    """Access accounting for one producer's line buffer."""

    producer: str
    writes: int = 0
    reads: int = 0
    peak_block_accesses: int = 0
    accesses_per_block: dict[int, int] = field(default_factory=dict)

    @property
    def total_accesses(self) -> int:
        return self.writes + self.reads


@dataclass
class SimulationReport:
    """Outcome of a cycle-level simulation."""

    schedule: PipelineSchedule
    cycles_simulated: int
    rows_simulated: int
    output_pixels: int
    steady_state_throughput: float
    buffer_stats: dict[str, BufferStats]
    violations: list[str] = field(default_factory=list)
    #: structured identities of every violated rule: (rule, producer, consumer)
    #: with consumer ``None`` for the producer-level R3.  Unlike ``violations``
    #: (bounded by ``max_violations``), this set is complete.
    violation_keys: set[tuple[str, str, str | None]] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_reads(self) -> int:
        return sum(stats.reads for stats in self.buffer_stats.values())

    @property
    def total_writes(self) -> int:
        return sum(stats.writes for stats in self.buffer_stats.values())


def frame_buffer_violations(
    schedule: PipelineSchedule,
) -> list[tuple[str, str, str | None, str]]:
    """Frame-buffer legality: ``(rule, producer, consumer, message)`` tuples.

    Frame buffers rotate through ``depth + 1`` banked slots, so they can never
    oversubscribe ports; what *can* go wrong is a schedule whose frame buffers
    do not cover the DAG's temporal reads (a hand-built or deserialized
    schedule with a missing, too-shallow, or wrong-geometry buffer).  Both the
    event walk and the reserved-table checker report these identically under
    rule ``"FB"`` — the temporal analogue of R2: a past frame a consumer still
    needs would have been evicted.
    """
    found: list[tuple[str, str, str | None, str]] = []
    depths = schedule.dag.frame_depths()
    for producer, needed in depths.items():
        config = schedule.frame_buffers.get(producer)
        if config is None:
            found.append(
                (
                    "FB",
                    producer,
                    None,
                    f"FB: consumers of {producer} read {needed} past frame(s) "
                    "but the schedule has no frame buffer for it",
                )
            )
            continue
        if config.depth < needed:
            found.append(
                (
                    "FB",
                    producer,
                    None,
                    f"FB: frame buffer of {producer} retains {config.depth} frame(s) "
                    f"but its slowest consumer reaches back {needed}",
                )
            )
        if (
            config.image_width != schedule.image_width
            or config.image_height != schedule.image_height
        ):
            found.append(
                (
                    "FB",
                    producer,
                    None,
                    f"FB: frame buffer of {producer} is sized "
                    f"{config.image_width}x{config.image_height} but the schedule "
                    f"processes {schedule.image_width}x{schedule.image_height} frames",
                )
            )
    return found


def simulate_schedule(
    schedule: PipelineSchedule,
    *,
    max_rows: int | None = None,
    raise_on_violation: bool = False,
    max_violations: int = 16,
) -> SimulationReport:
    """Simulate ``schedule`` and return access statistics plus any violations.

    ``max_rows`` bounds the number of image rows processed (the default covers
    the pipeline's ramp-up plus a few steady-state rows, which exercises every
    relative access phase).  ``raise_on_violation`` raises
    :class:`SimulationError` on the first violation instead of collecting them.
    """
    width = schedule.image_width
    dag = schedule.dag
    starts = schedule.start_cycles
    max_start = max(starts.values())

    rows = _analysis_rows(schedule, max_rows)
    frame_pixels = width * rows

    end_cycle = max_start + frame_pixels

    buffer_stats = {name: BufferStats(producer=name) for name in schedule.line_buffers}
    violations: list[str] = []
    violation_keys: set[tuple[str, str, str | None]] = set()

    # Pre-compute, per buffer, its readers and their stencil heights.
    readers: dict[str, list[tuple[str, int]]] = {}
    for producer, config in schedule.line_buffers.items():
        readers[producer] = [
            (edge.consumer, edge.window.height) for edge in dag.out_edges(producer)
        ]

    output_stage = dag.output_stages()[0].name
    output_start = starts[output_stage]
    output_pixels = 0

    def record(message: str, rule: str, producer: str, consumer: str | None = None) -> None:
        if raise_on_violation:
            raise SimulationError(message)
        violation_keys.add((rule, producer, consumer))
        if len(violations) < max_violations:
            violations.append(message)

    for rule, producer, consumer, message in frame_buffer_violations(schedule):
        record(message, rule, producer, consumer)

    for t in range(end_cycle):
        if t >= output_start and t - output_start < frame_pixels:
            output_pixels += 1
        for producer, config in schedule.line_buffers.items():
            if config.lines == 0:
                # Sub-line DFF buffers have no SRAM blocks and cannot stall.
                continue
            stats = buffer_stats[producer]
            lines = config.lines
            factor = max(1, config.coalesce_factor)
            writer_start = starts[producer]

            accesses: dict[int, set[tuple[int, int]]] = {}

            # Writer access.
            writer_line = None
            if writer_start <= t < writer_start + frame_pixels:
                n = t - writer_start
                writer_line = n // width
                writer_col = n % width
                stats.writes += 1
                if config.style != "fifo":
                    slot = writer_line % lines
                    block = slot // factor
                    accesses.setdefault(block, set()).add((writer_line, writer_col))
                    # R2: the slot being overwritten must no longer be needed.
                    old_line = writer_line - lines
                    if old_line >= 0:
                        for consumer, height in readers[producer]:
                            last_needed_cycle = starts[consumer] + old_line * width + writer_col
                            first_row_reading = old_line - height + 1
                            if first_row_reading >= rows:
                                continue
                            if last_needed_cycle >= t:
                                record(
                                    f"R2 violation at cycle {t}: {producer} overwrites line "
                                    f"{old_line} col {writer_col} still needed by {consumer}",
                                    "R2",
                                    producer,
                                    consumer,
                                )

            # Reader accesses.
            if config.style == "fifo":
                # A FIFO chain pops and pushes every block every active cycle.
                if writer_start <= t < writer_start + frame_pixels:
                    stats.reads += config.num_blocks
                    stats.writes += max(0, config.num_blocks - 1)
                continue

            read_addresses: set[tuple[int, int]] = set()
            for consumer, height in readers[producer]:
                consumer_start = starts[consumer]
                if not (consumer_start <= t < consumer_start + frame_pixels):
                    continue
                n = t - consumer_start
                row = n // width
                col = n % width
                for k in range(height):
                    line = row + k
                    if line >= rows:
                        continue
                    # R1: the pixel must already have been produced.
                    produced_at = writer_start + line * width + col
                    if produced_at >= t:
                        record(
                            f"R1 violation at cycle {t}: {consumer} reads ({line},{col}) of "
                            f"{producer} which is produced at cycle {produced_at}",
                            "R1",
                            producer,
                            consumer,
                        )
                    read_addresses.add((line, col))

            stats.reads += len(read_addresses)
            for line, col in read_addresses:
                slot = line % lines
                block = slot // factor
                accesses.setdefault(block, set()).add((line, col))

            # R3: accesses per block per cycle must not exceed the port count.
            ports = config.spec.ports
            for block, addresses in accesses.items():
                count = len(addresses)
                stats.accesses_per_block[block] = stats.accesses_per_block.get(block, 0) + count
                if count > stats.peak_block_accesses:
                    stats.peak_block_accesses = count
                if count > ports:
                    record(
                        f"R3 violation at cycle {t}: block {block} of LB[{producer}] receives "
                        f"{count} accesses but has {ports} port(s)",
                        "R3",
                        producer,
                    )

    steady_cycles = max(1, end_cycle - output_start)
    throughput = min(1.0, output_pixels / steady_cycles)
    return SimulationReport(
        schedule=schedule,
        cycles_simulated=end_cycle,
        rows_simulated=rows,
        output_pixels=output_pixels,
        steady_state_throughput=throughput,
        buffer_stats=buffer_stats,
        violations=violations,
        violation_keys=violation_keys,
    )


def _max_stencil_height(schedule: PipelineSchedule) -> int:
    heights = [edge.window.height for edge in schedule.dag.edges()]
    return max(heights) if heights else 1


def _analysis_rows(schedule: PipelineSchedule, max_rows: int | None) -> int:
    """Rows of the frame both checkers analyze: ramp-up plus steady-state slack."""
    width = schedule.image_width
    max_start = max(schedule.start_cycles.values())
    rows_needed = max_start // width + 1 + _max_stencil_height(schedule) + 3
    rows = min(schedule.image_height, rows_needed if max_rows is None else max(max_rows, 1))
    return min(rows, schedule.image_height)


# ---------------------------------------------------------------------------
# Reserved-table legality: closed-form R1/R2 plus a periodic R3 slot table
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LegalityViolation:
    """One violated no-stall rule, identified structurally."""

    rule: str  # "R1" | "R2" | "R3"
    producer: str
    consumer: str | None
    message: str

    @property
    def key(self) -> tuple[str, str, str | None]:
        return (self.rule, self.producer, self.consumer)


@dataclass
class LegalityReport:
    """Outcome of the reserved-table legality check.

    Comparable to :class:`SimulationReport` at rule granularity:
    ``report.keys() == simulate_schedule(s).violation_keys`` for any schedule
    whose frame reaches full steady state (the property suite pins this).
    """

    schedule: PipelineSchedule
    method: str  # "reserved-table" | "event-walk"
    rows_analyzed: int
    phases_checked: int
    violations: list[LegalityViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def keys(self) -> set[tuple[str, str, str | None]]:
        return {violation.key for violation in self.violations}

    def to_payload(self) -> dict:
        """JSON-safe form (the verify service's cache/wire unit)."""
        return {
            "passed": self.ok,
            "method": self.method,
            "rows_analyzed": self.rows_analyzed,
            "phases_checked": self.phases_checked,
            "violations": [
                {
                    "rule": v.rule,
                    "producer": v.producer,
                    "consumer": v.consumer,
                    "message": v.message,
                }
                for v in self.violations
            ],
        }


def check_schedule_legality(
    schedule: PipelineSchedule, *, max_rows: int | None = None
) -> LegalityReport:
    """Check R1/R2/R3 legality without walking cycles.

    Exploits the periodicity of line-buffer access: with stage starts
    ``S`` and image width ``W``, causality (R1) and eviction (R2) reduce to
    closed-form inequalities on start-cycle deltas, and port pressure (R3)
    repeats with period ``lines`` rows x ``W`` columns, collapsing further to
    ``lines`` row phases x one column segment per distinct start-delta
    remainder.  R3 is :func:`repro.core.access.port_conflict`, the same
    reserved table (and broadcast port model) the allocator sizes every
    ImaGen line buffer with, so compiled schedules pass R3 by construction.
    Total cost is O(lines x accessors x segments) per buffer instead of the
    event walk's O(cycles x accessors); ``phases_checked`` sums the table
    cells.

    The table models *full steady state* (every accessor of a buffer active
    simultaneously, no frame-edge clamping); boundary cycles only ever access
    subsets of some steady-state phase, so the two checkers flag the same
    rule set whenever the frame is tall enough to reach steady state.  When
    it is not (a start delta comparable to the whole frame), this function
    falls back to the event walk and says so via ``method``.
    """
    width = schedule.image_width
    dag = schedule.dag
    starts = schedule.start_cycles
    # Unlike the event walk, analysis cost does not grow with the frame, so
    # default to the full image height (widest steady-state window); pass
    # ``max_rows`` only to mirror a bounded event walk for comparison.
    rows = schedule.image_height if max_rows is None else _analysis_rows(schedule, max_rows)

    violations: list[LegalityViolation] = [
        LegalityViolation(rule, producer, consumer, message)
        for rule, producer, consumer, message in frame_buffer_violations(schedule)
    ]
    phases_checked = 0

    for producer, config in schedule.line_buffers.items():
        if config.lines == 0 or config.style == "fifo":
            # Sub-line DFFs have no SRAM blocks; FIFO chains pop/push every
            # block each cycle by construction.  Neither is rule-checked,
            # matching the event walk.
            continue
        lines = config.lines
        factor = max(1, config.coalesce_factor)
        ports = config.spec.ports
        writer_start = starts[producer]
        readers = [(edge.consumer, edge.window.height) for edge in dag.out_edges(producer)]

        # --- R1 / R2: closed forms over start-cycle deltas -----------------
        for consumer, height in readers:
            delta = starts[consumer] - writer_start
            # R1: reading line row+k at cycle t needs the pixel produced
            # strictly earlier; produced_at >= t iff k*W >= delta.  The
            # smallest violating tap is k_v = ceil(delta / W).
            k_violating = max(0, -(-delta // width))
            if k_violating <= height - 1 and k_violating <= rows - 1:
                violations.append(
                    LegalityViolation(
                        "R1",
                        producer,
                        consumer,
                        f"R1: {consumer} starts {delta} cycles after {producer} but reads "
                        f"stencil line +{k_violating}, produced {k_violating * width - delta} "
                        "cycles too late",
                    )
                )
            # R2: overwriting slot (line - lines) collides with the last
            # read of the evicted line iff delta >= lines*W; only reachable
            # when the frame wraps the buffer (rows > lines).
            if rows > lines and delta >= lines * width:
                violations.append(
                    LegalityViolation(
                        "R2",
                        producer,
                        consumer,
                        f"R2: {consumer} lags {producer} by {delta} cycles but LB[{producer}] "
                        f"holds only {lines} line(s) = {lines * width} cycles",
                    )
                )

        # --- R3: the allocator's reserved table ---------------------------
        # Inside the steady-state window every accessor is active and no
        # stencil reaches past the frame, so the kernel's table is exact.
        taps = [(0, 1)] + [(starts[consumer] - writer_start, h) for consumer, h in readers]
        window_lo, window_hi = 0, rows - 1
        for delay, height in taps[1:]:
            window_lo = max(window_lo, delay // width + 1)
            window_hi = min(window_hi, rows - height + delay // width)
        if window_hi - window_lo + 1 < lines:
            # Frame too short for every row phase to reach full steady
            # state: the closed table cannot be trusted, so defer the whole
            # schedule to the exact event walk.
            return _legality_from_event_walk(schedule, rows)

        phases_checked += lines * len({delay % width for delay, _ in taps})
        conflict = port_conflict(width, ports, lines, factor, taps)
        if conflict is not None:
            block, accesses, row_phase, column = conflict
            violations.append(
                LegalityViolation(
                    "R3",
                    producer,
                    None,
                    f"R3: block {block} of LB[{producer}] receives {accesses} "
                    f"distinct accesses in row phase {row_phase} column "
                    f"segment {column} but has {ports} port(s)",
                )
            )

    return LegalityReport(
        schedule=schedule,
        method="reserved-table",
        rows_analyzed=rows,
        phases_checked=phases_checked,
        violations=violations,
    )


def _legality_from_event_walk(schedule: PipelineSchedule, rows: int) -> LegalityReport:
    """Exact fallback: run the event walk and lift its violations to rule keys."""
    report = simulate_schedule(schedule, max_rows=rows, max_violations=1_000_000)
    messages = {}
    for message in report.violations:
        rule = message.split(" ", 1)[0].rstrip(":")
        messages.setdefault(rule, message)
    violations = [
        LegalityViolation(rule, producer, consumer, messages.get(rule, f"{rule} violated"))
        for rule, producer, consumer in sorted(
            report.violation_keys, key=lambda key: (key[0], key[1], key[2] or "")
        )
    ]
    return LegalityReport(
        schedule=schedule,
        method="event-walk",
        rows_analyzed=report.rows_simulated,
        phases_checked=report.cycles_simulated,
        violations=violations,
    )
