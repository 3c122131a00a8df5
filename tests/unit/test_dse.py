"""Unit tests for the design-space exploration driver."""

import pytest

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.dse.pareto import pareto_front
from repro.dse.sweep import sweep_memory_configurations
from repro.errors import ReproError
from repro.memory.spec import asic_single_port

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain

W, H = TEST_WIDTH, TEST_HEIGHT


class TestParetoFront:
    def test_simple_domination(self):
        points = [(1.0, 5.0), (2.0, 2.0), (3.0, 3.0), (0.5, 9.0)]
        front = pareto_front(points, lambda p: p)
        assert (3.0, 3.0) not in front
        assert (2.0, 2.0) in front
        assert (0.5, 9.0) in front

    def test_single_point(self):
        assert pareto_front([(1.0, 1.0)], lambda p: p) == [(1.0, 1.0)]

    def test_identical_points_all_kept(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        assert len(pareto_front(points, lambda p: p)) == 2

    def test_empty(self):
        assert pareto_front([], lambda p: p) == []


class TestSweep:
    def test_sweep_size_is_power_of_two(self):
        points = sweep_memory_configurations(
            CompileTarget(build_chain(3, stencil=3), image_width=W, image_height=H),
        )
        assert len(points) in (2, 4, 8, 16)

    def test_all_dp_point_present(self):
        points = sweep_memory_configurations(
            CompileTarget(build_chain(3, stencil=3), image_width=W, image_height=H),
        )
        labels = {p.label for p in points}
        assert "all-DP" in labels

    def test_dplc_reduces_blocks(self):
        points = sweep_memory_configurations(
            CompileTarget(build_chain(2, stencil=5), image_width=W, image_height=H),
        )
        by_dplc = {p.coalesced_stages: p for p in points}
        assert by_dplc[1].accelerator.schedule.total_blocks < by_dplc[0].accelerator.schedule.total_blocks

    def test_single_port_spec_yields_single_design(self):
        points = sweep_memory_configurations(
            CompileTarget(
                build_chain(3), image_width=W, image_height=H, memory_spec=asic_single_port()
            ),
        )
        assert len(points) == 1

    def test_max_designs_guard(self):
        with pytest.raises(ReproError):
            sweep_memory_configurations(
                CompileTarget(build_algorithm("canny-m"), image_width=W, image_height=H),
                max_designs=2,
            )

    def test_pareto_front_of_sweep_nonempty(self):
        points = sweep_memory_configurations(
            CompileTarget(build_algorithm("denoise-m"), image_width=W, image_height=H),
        )
        front = pareto_front(points, lambda p: (p.area_mm2, p.power_mw))
        assert 1 <= len(front) <= len(points)

    def test_design_point_metrics_positive(self):
        points = sweep_memory_configurations(
            CompileTarget(build_chain(3, stencil=3), image_width=W, image_height=H),
        )
        for point in points:
            assert point.area_mm2 > 0
            assert point.power_mw > 0
            assert set(point.configuration.values()) <= {"DP", "DPLC"}

    def test_compound_keyword_is_gone(self):
        with pytest.raises(TypeError):
            sweep_memory_configurations(
                CompileTarget(build_chain(3, stencil=3), image_width=W, image_height=H),
                compound=True,
            )

    def test_serial_variants_carry_their_own_fingerprint(self):
        """Every DPLC variant of the serial sweep records its own target's
        fingerprint, as a compile of that target would."""
        points = sweep_memory_configurations(
            CompileTarget(build_algorithm("denoise-m"), image_width=W, image_height=H),
        )
        variants = [p for p in points if p.coalesced_stages]
        assert variants
        for point in variants:
            assert point.accelerator.fingerprint == point.accelerator.target.fingerprint
