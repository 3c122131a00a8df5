"""Unit tests for the achievable line-coalescing factors (Sec. 6)."""

from dataclasses import replace

import pytest

from repro.core.coalescing import coalescing_factors
from repro.memory.spec import asic_dual_port, asic_fifo, asic_single_port

from tests.conftest import TEST_WIDTH, build_chain, build_paper_example

W = TEST_WIDTH


class TestFactors:
    def test_dual_port_small_width_allows_two(self):
        factors = coalescing_factors(build_chain(3), W, asic_dual_port())
        assert factors["K0"] == 2
        assert factors["K1"] == 2
        assert factors["K2"] == 1  # output stage: no consumers

    def test_single_port_disables_coalescing(self):
        factors = coalescing_factors(build_chain(3), W, asic_single_port())
        assert all(f == 1 for f in factors.values())

    def test_large_lines_disable_coalescing(self):
        factors = coalescing_factors(build_chain(3), 1920, asic_dual_port())
        assert all(f == 1 for f in factors.values())

    def test_paper_example_factors(self):
        # K0 feeds K1 and K2, K1 feeds K2; K2 is the output.
        factors = coalescing_factors(build_paper_example(), W, asic_dual_port())
        assert factors == {"K0": 2, "K1": 2, "K2": 1}

    # A 32 Kbit block holds 32 lines of 64 pixels, 2 of 1024 and 1 of 2048.
    @pytest.mark.parametrize(
        "ports,width,expected", [(2, 64, 2), (4, 64, 4), (4, 1024, 2), (4, 2048, 1)]
    )
    def test_factor_bounded_by_ports_and_block_capacity(self, ports, width, expected):
        spec = asic_dual_port().with_ports(ports)
        factors = coalescing_factors(build_chain(3), width, spec)
        assert factors == {"K0": expected, "K1": expected, "K2": 1}

    def test_fifo_memory_disables_coalescing(self):
        factors = coalescing_factors(build_chain(3), W, asic_fifo())
        assert all(f == 1 for f in factors.values())

    def test_spec_can_forbid_coalescing(self):
        spec = replace(asic_dual_port(), allow_coalescing=False)
        factors = coalescing_factors(build_chain(3), W, spec)
        assert all(f == 1 for f in factors.values())
