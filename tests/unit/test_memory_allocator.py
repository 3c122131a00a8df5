"""Unit tests for line-buffer allocation."""

import pytest

from repro.errors import AllocationError
from repro.memory.allocator import (
    allocate_fifo_buffer,
    allocate_line_buffer,
    allocate_register_buffer,
    dff_realization_threshold,
)
from repro.memory.spec import MemorySpec, asic_dual_port, asic_fifo


class TestLineBufferAllocation:
    def test_one_block_per_line(self):
        config = allocate_line_buffer("p", 480, 3, asic_dual_port())
        assert config.lines == 3
        assert config.num_blocks == 3
        assert all(block.num_lines == 1 for block in config.blocks)

    def test_coalesced_allocation(self):
        config = allocate_line_buffer("p", 480, 4, asic_dual_port(), coalesce_factor=2)
        assert config.num_blocks == 2
        assert all(block.num_lines == 2 for block in config.blocks)

    def test_coalesce_with_remainder(self):
        config = allocate_line_buffer("p", 480, 3, asic_dual_port(), coalesce_factor=2)
        assert config.num_blocks == 2
        assert config.blocks[-1].num_lines == 1

    def test_wide_line_spans_blocks(self):
        spec = MemorySpec("small", block_bits=8 * 1024, ports=2, pixel_bits=16)
        config = allocate_line_buffer("p", 1920, 2, spec)
        # 1920 px * 16 b = 30720 bits -> 4 blocks of 8 Kbit per line.
        assert config.num_blocks == 8
        segments = {block.segment for block in config.blocks}
        assert segments == {0, 1, 2, 3}

    def test_wide_line_cannot_coalesce(self):
        spec = MemorySpec("small", block_bits=8 * 1024, ports=2, pixel_bits=16)
        with pytest.raises(AllocationError):
            allocate_line_buffer("p", 1920, 2, spec, coalesce_factor=2)

    def test_over_coalescing_rejected(self):
        spec = MemorySpec("s", block_bits=16 * 1024, ports=2, pixel_bits=16)
        # One 480-px line is 7680 bits; 16 Kbit holds two lines but not three.
        with pytest.raises(AllocationError):
            allocate_line_buffer("p", 480, 6, spec, coalesce_factor=3)

    def test_zero_lines(self):
        config = allocate_line_buffer("p", 480, 0, asic_dual_port())
        assert config.num_blocks == 0
        assert config.pixel_capacity == 0

    def test_negative_rejected(self):
        with pytest.raises(AllocationError):
            allocate_line_buffer("p", 480, -1, asic_dual_port())
        with pytest.raises(AllocationError):
            allocate_line_buffer("p", 480, 2, asic_dual_port(), coalesce_factor=0)

    def test_capacity_accounting(self):
        spec = asic_dual_port()
        config = allocate_line_buffer("p", 480, 3, spec)
        assert config.pixel_capacity == 3 * 480
        assert config.data_bits == 3 * 480 * spec.pixel_bits
        assert config.allocated_bits == 3 * spec.block_bits
        assert config.allocated_kbytes == pytest.approx(3 * spec.block_bits / 8192)


class TestFifoAllocation:
    def test_single_consumer_chain(self):
        config = allocate_fifo_buffer("p", 480, 2, asic_fifo(), num_consumers=1)
        assert config.style == "fifo"
        assert config.num_blocks == 2
        assert config.dff_pixels >= 2

    def test_splitting_multiplies_blocks_not_capacity(self):
        single = allocate_fifo_buffer("p", 480, 2, asic_fifo(), num_consumers=1)
        split = allocate_fifo_buffer("p", 480, 2, asic_fifo(), num_consumers=2)
        assert split.num_blocks == 2 * single.num_blocks
        # Used bits stay (roughly) the same: each split FIFO is half a line.
        assert sum(b.used_bits for b in split.blocks) == pytest.approx(
            sum(b.used_bits for b in single.blocks), rel=0.01
        )

    def test_zero_reuse_lines(self):
        config = allocate_fifo_buffer("p", 480, 0, asic_fifo())
        assert config.num_blocks == 0

    def test_invalid_arguments(self):
        with pytest.raises(AllocationError):
            allocate_fifo_buffer("p", 480, -1, asic_fifo())
        with pytest.raises(AllocationError):
            allocate_fifo_buffer("p", 480, 2, asic_fifo(), num_consumers=0)


class TestRegisterBuffers:
    def test_register_buffer_has_no_blocks(self):
        config = allocate_register_buffer("p", 480, 5, asic_dual_port())
        assert config.num_blocks == 0
        assert config.lines == 0
        assert config.dff_pixels == 6
        assert config.style == "registers"

    def test_threshold_scales_with_width(self):
        assert dff_realization_threshold(64) == 8
        assert dff_realization_threshold(480) == 60
        assert dff_realization_threshold(1920) == 64  # capped

    def test_threshold_stays_below_one_line(self):
        """A full image line is never put in DFFs, however narrow the frame."""
        assert dff_realization_threshold(7) == 6
        assert dff_realization_threshold(8) == 7
        assert dff_realization_threshold(9) == 8

    def test_negative_delay_rejected(self):
        with pytest.raises(AllocationError):
            allocate_register_buffer("p", 480, -1, asic_dual_port())
