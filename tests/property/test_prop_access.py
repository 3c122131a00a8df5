"""Property-based tests for access-set arithmetic, buffer sizing and the port-occupancy kernel."""

from hypothesis import given, settings, strategies as st

from repro.core.access import (
    access_set,
    minimal_slot_count,
    port_conflict,
    required_line_slots,
    sets_disjoint,
)

from tests.conftest import writer_gap

widths = st.integers(8, 256)
heights = st.integers(1, 8)


class TestSeparationProperties:
    @settings(max_examples=200, deadline=None)
    @given(widths, heights, st.integers(0, 3000), st.integers(0, 4 * 256))
    def test_separation_gap_guarantees_disjoint_sets(self, width, height, t_offset, extra):
        """Eq. 12: a gap of SH*W (or more) keeps the trailing stage's lines
        strictly behind the leading stage's lines at every cycle."""
        gap = writer_gap(height, width) + extra
        leading_start = 0
        trailing_start = gap
        t = trailing_start + t_offset
        assert sets_disjoint(t, trailing_start, height, leading_start, 1, width)

    @settings(max_examples=200, deadline=None)
    @given(widths, st.integers(2, 8))
    def test_gap_one_line_short_eventually_conflicts(self, width, height):
        gap = writer_gap(height, width) - width
        conflict = any(
            not sets_disjoint(t, gap, height, 0, 1, width) for t in range(gap, gap + 3 * width)
        )
        assert conflict

    @settings(max_examples=200, deadline=None)
    @given(widths, heights, st.integers(0, 5000), st.integers(0, 5000))
    def test_access_set_size_is_stencil_height(self, width, height, start, offset):
        lines = access_set(start + offset, start, width, height)
        assert len(lines) == height
        assert lines.start >= 0


class TestSizingProperties:
    @settings(max_examples=200, deadline=None)
    @given(widths, st.integers(0, 5000), st.integers(0, 500))
    def test_required_slots_monotonic_in_delay(self, width, delay, extra):
        assert required_line_slots(delay + extra, width) >= required_line_slots(delay, width)

    @settings(max_examples=200, deadline=None)
    @given(widths, st.integers(1, 5000))
    def test_required_slots_cover_the_delay(self, width, delay):
        slots = required_line_slots(delay, width)
        assert slots * width >= delay
        assert (slots - 1) * width <= delay

    @settings(max_examples=100, deadline=None)
    @given(widths, st.integers(1, 2), st.integers(1, 6))
    def test_minimal_slot_count_at_least_capacity(self, width, ports, height):
        delay = writer_gap(height, width)
        slots = minimal_slot_count(width, ports, [(delay, height)])
        assert slots >= required_line_slots(delay, width)
        assert slots <= required_line_slots(delay, width) + 4

    @settings(max_examples=100, deadline=None)
    @given(
        widths,
        st.integers(1, 2),
        st.integers(1, 2),
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5)), min_size=1, max_size=3),
    )
    def test_minimal_slot_count_is_conflict_free_in_whole_blocks(
        self, width, ports, factor, readers
    ):
        """Readers at the ILP's writer gap (plus whole-line slack) fit the
        buffer the slot search returns: whole blocks, no over-subscribed one."""
        factor = min(factor, ports)  # a block never packs more lines than ports
        accessors = [(writer_gap(h, width) + extra * width, h) for extra, h in readers]
        slots = minimal_slot_count(width, ports, accessors, coalesce_factor=factor)
        block = min(factor, slots)
        assert slots % block == 0
        assert port_conflict(width, ports, slots, block, [(0, 1), *accessors]) is None


def walk_conflict(width, ports, lines, factor, taps) -> bool:
    """Every cycle of one steady-state period: distinct (line, column) per block."""
    t0 = (max(delay for delay, _ in taps) // width + 2) * width
    for t in range(t0, t0 + lines * width):
        per_block: dict[int, set[tuple[int, int]]] = {}
        for delay, height in taps:
            row, column = divmod(t - delay, width)
            for line in range(row, row + height):
                per_block.setdefault(line % lines // factor, set()).add((line, column))
        if any(len(addresses) > ports for addresses in per_block.values()):
            return True
    return False


class TestPortConflictProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(4, 24),
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(1, 100), st.integers(1, 5)), min_size=1, max_size=4),
    )
    def test_reserved_table_matches_every_cycle_walk(self, width, ports, lines, factor, readers):
        """The row-phase x column-segment table sees a conflict iff some cycle has one."""
        taps = [(0, 1), *readers]
        found = port_conflict(width, ports, lines, factor, taps)
        assert (found is not None) == walk_conflict(width, ports, lines, factor, taps)
