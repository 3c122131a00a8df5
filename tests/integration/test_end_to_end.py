"""End-to-end integration tests: DSL -> schedule -> simulation -> RTL."""

import numpy as np
import pytest

from repro.algorithms import ALGORITHM_NAMES, build_algorithm
from repro.api import CompileTarget
from repro.baselines import generate_baseline
from repro.core.compiler import compile_pipeline
from repro.core.scheduler import SchedulerOptions
from repro.dsl.parser import parse_pipeline
from repro.estimate.report import accelerator_report
from repro.rtl.lint import lint_verilog
from repro.sim.cycle import simulate_schedule
from repro.sim.functional import run_functional

W, H = 64, 48

UNSHARP_DSL = """
input K0;
blur_v = im(x,y) (K0(x,y-2) + K0(x,y-1)*4 + K0(x,y)*6 + K0(x,y+1)*4 + K0(x,y+2)) / 16 end
blur_h = im(x,y) (blur_v(x-2,y) + blur_v(x-1,y)*4 + blur_v(x,y)*6 + blur_v(x+1,y)*4 + blur_v(x+2,y)) / 16 end
output sharp = im(x,y) clamp(K0(x,y) + (K0(x,y) - blur_h(x,y)) * 2, 0, 255) end
"""


class TestTextualDslFlow:
    def test_parse_compile_simulate(self):
        dag = parse_pipeline(UNSHARP_DSL, name="unsharp-dsl")
        accelerator = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H))
        report = simulate_schedule(accelerator.schedule)
        assert report.ok
        assert report.steady_state_throughput == pytest.approx(1.0, abs=0.05)

    def test_parse_and_execute_functionally(self):
        dag = parse_pipeline(UNSHARP_DSL, name="unsharp-dsl")
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, size=(H, W)).astype(float)
        output = run_functional(dag, image).output()
        assert output.min() >= 0 and output.max() <= 255

    def test_verilog_from_dsl_lints(self):
        dag = parse_pipeline(UNSHARP_DSL, name="unsharp-dsl")
        accelerator = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H))
        assert lint_verilog(accelerator.generate_verilog()).ok


class TestAllAlgorithmsAllGenerators:
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_imagen_schedules_are_legal(self, algorithm):
        dag = build_algorithm(algorithm)
        schedule = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
        report = simulate_schedule(schedule)
        assert report.ok, report.violations

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_coalesced_schedules_are_legal(self, algorithm):
        dag = build_algorithm(algorithm)
        schedule = compile_pipeline(
            CompileTarget(dag, image_width=W, image_height=H).with_options(coalescing=True),
        ).schedule
        report = simulate_schedule(schedule)
        assert report.ok, report.violations

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    @pytest.mark.parametrize("baseline", ["fixynn", "darkroom"])
    def test_baseline_schedules_are_legal(self, algorithm, baseline):
        dag = build_algorithm(algorithm)
        schedule = generate_baseline(
            CompileTarget(dag, image_width=W, image_height=H, generator=baseline),
        ).schedule
        report = simulate_schedule(schedule)
        assert report.ok, report.violations

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_linearization_preserves_semantics(self, algorithm):
        from repro.baselines.darkroom import linearize_dag

        dag = build_algorithm(algorithm)
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(H, W)).astype(float)
        original = run_functional(dag, image).output()
        rewritten = run_functional(linearize_dag(dag), image).output()
        np.testing.assert_allclose(original, rewritten)

    @pytest.mark.parametrize("algorithm", ["harris-m", "canny-m", "xcorr-m"])
    def test_paper_orderings_hold(self, algorithm):
        target = CompileTarget(build_algorithm(algorithm), image_width=W, image_height=H)
        designs = {
            "ours": compile_pipeline(target),
            "ours+lc": compile_pipeline(target.with_options(coalescing=True)),
            "fixynn": generate_baseline(target.with_generator("fixynn")),
            "darkroom": generate_baseline(target.with_generator("darkroom")),
        }
        reports = {name: accelerator_report(acc.schedule) for name, acc in designs.items()}
        assert reports["ours"].sram_kbytes <= reports["darkroom"].sram_kbytes
        assert reports["ours"].sram_kbytes < reports["fixynn"].sram_kbytes
        assert reports["ours+lc"].sram_kbytes <= reports["ours"].sram_kbytes
        assert reports["ours"].memory_power_mw < reports["fixynn"].memory_power_mw


class TestIlpBackendsAgree:
    def test_backends_reach_same_objective(self):
        dag = build_algorithm("unsharp-m")
        highs = compile_pipeline(
            CompileTarget(
                dag, image_width=W, image_height=H, options=SchedulerOptions(backend="highs")
            ),
        )
        python = compile_pipeline(
            CompileTarget(
                dag, image_width=W, image_height=H, options=SchedulerOptions(backend="python")
            ),
        )
        assert highs.schedule.solver_stats["objective"] == pytest.approx(
            python.schedule.solver_stats["objective"]
        )
        assert highs.schedule.total_blocks == python.schedule.total_blocks


class TestRtlForAlgorithms:
    @pytest.mark.parametrize("algorithm", ["unsharp-m", "harris-s", "denoise-m"])
    def test_generated_verilog_lints(self, algorithm):
        dag = build_algorithm(algorithm)
        accelerator = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H))
        report = lint_verilog(accelerator.generate_verilog())
        assert report.ok, report.errors
