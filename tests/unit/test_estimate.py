"""Unit tests for the SRAM model and the area/power/FPGA estimators."""

import pytest

from repro.api import CompileTarget
from repro.baselines import generate_baseline
from repro.core.compiler import compile_pipeline
from repro.estimate.area import area_report
from repro.estimate.fpga import fpga_report, multi_algorithm_fit
from repro.estimate.power import buffer_access_rates, power_report
from repro.estimate.report import accelerator_report
from repro.estimate.sram_model import DEFAULT_TECH, SramTechModel
from repro.errors import MemoryConfigError
from repro.memory.allocator import allocate_fifo_buffer, allocate_line_buffer
from repro.memory.spec import FpgaSpec, asic_dual_port, asic_fifo, asic_single_port, spartan7_bram, spartan7_fpga

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


class TestSramTechModel:
    def test_access_energy_grows_with_size(self):
        tech = DEFAULT_TECH
        small = tech.macro_access_energy_pj(8 * 1024, 2)
        large = tech.macro_access_energy_pj(64 * 1024, 2)
        assert large > small

    def test_access_energy_port_penalty_is_35_percent(self):
        tech = DEFAULT_TECH
        single = tech.macro_access_energy_pj(32 * 1024, 1)
        dual = tech.macro_access_energy_pj(32 * 1024, 2)
        assert dual / single == pytest.approx(1.35)

    def test_area_grows_steeply_with_ports(self):
        tech = DEFAULT_TECH
        assert tech.macro_area_mm2(32 * 1024, 2) > 1.5 * tech.macro_area_mm2(32 * 1024, 1)

    def test_leakage_scales_with_capacity(self):
        tech = DEFAULT_TECH
        assert tech.macro_leakage_mw(64 * 1024, 1) > tech.macro_leakage_mw(8 * 1024, 1)

    def test_spec_level_helpers_match_macro_helpers(self):
        tech = DEFAULT_TECH
        spec = asic_dual_port()
        assert tech.access_energy_pj(spec) == tech.macro_access_energy_pj(spec.block_bits, spec.ports)
        assert tech.block_area_mm2(spec) == tech.macro_area_mm2(spec.block_bits, spec.ports)

    def test_dynamic_power_conversion(self):
        tech = SramTechModel(clock_mhz=100.0)
        # 1 access/cycle at 1 pJ and 100 MHz = 0.1 mW.
        assert tech.dynamic_power_mw(1.0, 1.0) == pytest.approx(0.1)

    def test_pe_and_dff_costs_positive(self):
        tech = DEFAULT_TECH
        assert tech.pe_power_mw(10) > 0
        assert tech.pe_area_mm2(10) > 0
        assert tech.dff_power_mw(8, 16) > 0
        assert tech.dff_area_mm2(8, 16) > 0


class TestAccessRates:
    def test_classic_buffer_rate(self):
        config = allocate_line_buffer("p", W, 3, asic_dual_port(), reader_heights={"c": 3})
        assert buffer_access_rates(config) == 4.0  # 1 write + 3 reads

    def test_multi_consumer_rate(self):
        config = allocate_line_buffer(
            "p", W, 5, asic_dual_port(), reader_heights={"a": 3, "b": 2}
        )
        assert buffer_access_rates(config) == 6.0

    def test_fifo_rate_is_two_per_block(self):
        config = allocate_fifo_buffer("p", W, 2, asic_fifo(), num_consumers=1)
        assert buffer_access_rates(config) == 2.0 * config.num_blocks

    def test_register_buffer_has_no_sram_accesses(self):
        from repro.memory.allocator import allocate_register_buffer

        config = allocate_register_buffer("p", W, 3, asic_dual_port(), reader_heights={"c": 1})
        assert buffer_access_rates(config) == 0.0


class TestReports:
    def test_power_report_structure(self):
        schedule = compile_pipeline(
            CompileTarget(build_paper_example(), image_width=W, image_height=H),
        ).schedule
        report = power_report(schedule)
        assert report.memory_mw > 0
        assert report.pe_mw > 0
        assert report.total_mw == pytest.approx(report.memory_mw + report.pe_mw)
        assert set(report.buffers) <= set(schedule.line_buffers)

    def test_area_report_structure(self):
        schedule = compile_pipeline(
            CompileTarget(build_paper_example(), image_width=W, image_height=H),
        ).schedule
        report = area_report(schedule)
        assert report.memory_mm2 > 0
        assert 0 < report.memory_fraction < 1
        assert report.sram_blocks == schedule.total_blocks

    def test_memory_dominates_area(self):
        # The paper reports SRAM is ~80-93% of accelerator area.
        schedule = compile_pipeline(
            CompileTarget(build_chain(5), image_width=480, image_height=320),
        ).schedule
        report = area_report(schedule)
        assert report.memory_fraction > 0.6

    def test_custom_sizing_reduces_area_and_raises_access_energy(self):
        schedule = compile_pipeline(
            CompileTarget(
                build_chain(3, stencil=5), image_width=W, image_height=H
            ).with_options(coalescing=True),
        ).schedule
        fixed = accelerator_report(schedule, sizing="fixed")
        custom = accelerator_report(schedule, sizing="custom")
        assert custom.memory_area_mm2 < fixed.memory_area_mm2

    def test_accelerator_report_row(self):
        schedule = compile_pipeline(
            CompileTarget(build_chain(3), image_width=W, image_height=H),
        ).schedule
        row = accelerator_report(schedule).row()
        assert row["generator"] == "imagen"
        assert row["sram_blocks"] == schedule.total_blocks

    def test_single_port_cheaper_per_access_but_not_overall(self):
        dag = build_chain(4)
        ours = accelerator_report(compile_pipeline(
            CompileTarget(dag, image_width=W, image_height=H),
        ).schedule)
        fixynn = accelerator_report(generate_baseline(
            CompileTarget(dag, image_width=W, image_height=H, generator="fixynn"),
        ).schedule)
        assert fixynn.sram_blocks > ours.sram_blocks
        assert fixynn.memory_power_mw > ours.memory_power_mw


class TestFpga:
    def test_bram_usage_counts_blocks(self):
        schedule = compile_pipeline(
            CompileTarget(
                build_chain(3), image_width=W, image_height=H, memory_spec=spartan7_bram()
            ),
        ).schedule
        report = fpga_report(schedule)
        assert report.brams_used == schedule.total_blocks
        assert 0 < report.bram_utilisation < 1
        assert report.fits

    def test_power_includes_static_floor(self):
        schedule = compile_pipeline(
            CompileTarget(
                build_chain(3), image_width=W, image_height=H, memory_spec=spartan7_bram()
            ),
        ).schedule
        report = fpga_report(schedule)
        assert report.total_mw > report.fpga.static_power_mw

    def test_require_fit_raises_when_over_budget(self):
        schedule = compile_pipeline(
            CompileTarget(
                build_chain(6, stencil=5),
                image_width=W,
                image_height=H,
                memory_spec=spartan7_bram(),
            ),
        ).schedule
        tiny_fpga = FpgaSpec(bram=spartan7_bram(), total_blocks=2)
        with pytest.raises(MemoryConfigError):
            fpga_report(schedule, tiny_fpga, require_fit=True)

    def test_multi_algorithm_fit(self):
        schedules = [
            compile_pipeline(
                CompileTarget(
                    build_chain(3), image_width=W, image_height=H, memory_spec=spartan7_bram()
                ),
            ).schedule
            for _ in range(2)
        ]
        reports = [fpga_report(s) for s in schedules]
        total, fits = multi_algorithm_fit(reports, spartan7_fpga())
        assert total == sum(r.brams_used for r in reports)
        assert fits
