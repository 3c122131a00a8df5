"""Unit tests for access-set arithmetic (Eq. 3/4, Eq. 12, buffer sizing, port occupancy)."""

import pytest

from repro.core.access import (
    access_set,
    ceil_div,
    first_line,
    minimal_slot_count,
    port_conflict,
    required_line_slots,
    sets_disjoint,
)
from repro.errors import AllocationError

from tests.conftest import writer_gap

W = 64


class TestLineFormulas:
    def test_ceil_div(self):
        assert ceil_div(0, 4) == 0
        assert ceil_div(1, 4) == 1
        assert ceil_div(4, 4) == 1
        assert ceil_div(5, 4) == 2

    def test_first_line_matches_eq3(self):
        assert first_line(10, 10, W) == 0
        assert first_line(10 + 1, 10, W) == 1
        assert first_line(10 + W, 10, W) == 1
        assert first_line(10 + W + 1, 10, W) == 2

    def test_first_line_before_start_raises(self):
        with pytest.raises(ValueError):
            first_line(5, 10, W)

    def test_access_set_height(self):
        lines = access_set(100, 0, W, 3)
        assert len(lines) == 3
        assert lines.start == first_line(100, 0, W)


class TestSeparation:
    def test_writer_gap_matches_eq12(self):
        assert writer_gap(3, W) == 3 * W
        assert writer_gap(1, 2 * W) == 2 * W

    def test_separation_implies_disjoint_sets(self):
        # Trailing stage with SH=3 behind a writer (SH=1) by exactly 3W.
        gap = writer_gap(3, W)
        for t in range(gap, gap + 4 * W):
            assert sets_disjoint(t, gap, 3, 0, 1, W)

    def test_smaller_gap_eventually_conflicts(self):
        gap = writer_gap(3, W) - W  # one line too close
        conflict = any(not sets_disjoint(t, gap, 3, 0, 1, W) for t in range(gap, gap + 4 * W))
        assert conflict

    def test_sets_disjoint_before_start_is_true(self):
        assert sets_disjoint(5, 10, 3, 20, 1, W)


class TestBufferSizing:
    def test_required_slots_classic_case(self):
        # Dual-port 3x3: delay (SH-1)*W + 1 -> 3 line slots (Fig. 1).
        assert required_line_slots(2 * W + 1, W) == 3

    def test_required_slots_exact_multiple(self):
        # Single-port 3x3: delay SH*W -> 4 line slots.
        assert required_line_slots(3 * W, W) == 4

    def test_required_slots_small_delays(self):
        assert required_line_slots(0, W) == 1
        assert required_line_slots(1, W) == 1
        assert required_line_slots(W - 1, W) == 1
        assert required_line_slots(W, W) == 2

    def test_required_slots_negative_rejected(self):
        with pytest.raises(ValueError):
            required_line_slots(-1, W)


class TestMinimalSlotCount:
    def test_classic_dual_port_needs_three(self):
        slots = minimal_slot_count(W, 2, [(2 * W + 1, 3)])
        assert slots == 3

    def test_single_port_needs_stencil_plus_one(self):
        slots = minimal_slot_count(W, 1, [(3 * W, 3)])
        assert slots == 4

    def test_empty_accessors(self):
        assert minimal_slot_count(W, 2, []) == 0

    def test_multi_consumer_may_need_extra_slot(self):
        # Two consumers plus the writer on a dual-port buffer: the capacity
        # bound alone can alias the writer with the slowest reader.
        delays = [(2 * W + 1, 3), (4 * W + 2, 2)]
        slots = minimal_slot_count(W, 2, delays)
        assert slots >= required_line_slots(4 * W + 2, W)
        # And the returned count must actually be contention-free.
        assert port_conflict(W, 2, slots, 1, [(0, 1)] + delays) is None

    def test_coalesced_grouping(self):
        slots = minimal_slot_count(W, 2, [(3 * W, 3)], coalesce_factor=2)
        assert slots >= 4
        assert slots % 2 == 0

    def test_coalesced_count_checks_every_row_phase(self):
        # Four lines in two 2-line blocks put the writer's line and two of
        # the reader's three lines in one block at row phase 0.
        assert port_conflict(32, 2, 4, 2, [(0, 1), (97, 3)]) == (0, 3, 0, 0)
        assert minimal_slot_count(32, 2, [(97, 3)], coalesce_factor=2) == 6
        assert port_conflict(32, 2, 6, 2, [(0, 1), (97, 3)]) is None

    def test_identical_reads_broadcast(self):
        one = minimal_slot_count(16, 2, [(33, 3)])
        assert minimal_slot_count(16, 2, [(33, 3), (33, 3)]) == one == 3

    def test_unsatisfiable_buffer_raises(self):
        # A 2-line reader W + 1 cycles behind the writer reads the line being
        # written (at another column): one port cannot serve both, whatever
        # the line count.
        with pytest.raises(AllocationError):
            minimal_slot_count(16, 1, [(17, 2)])


class TestPortConflict:
    def test_reports_first_oversubscribed_block(self):
        # A 3-line reader 2W + 1 behind the writer of a 2-line single-port
        # buffer: at row phase 0, column 0 it reads lines -3..-1, and line -2
        # shares slot 0 with the writer's line.
        assert port_conflict(W, 1, 2, 1, [(0, 1), (2 * W + 1, 3)]) == (0, 2, 0, 0)
