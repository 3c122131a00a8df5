"""Unit tests for the ILP scheduler (paper Sec. 5)."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.algorithms import (
    ALGORITHM_NAMES, TEMPORAL_ALGORITHM_NAMES, build_algorithm, build_synthetic_pipeline,
)
from repro.core import scheduler
from repro.core.flow import branch_arcs, difference_system
from repro.core.pruning import count_subproblems
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.dsl.builder import PipelineBuilder, window_sum
from repro.errors import MemoryConfigError, SchedulingError
from repro.memory.spec import asic_dual_port, asic_single_port
from repro.trace import collect_spans, flatten_spans

from oracles import schedule_is_legal, schedule_objective
from tests.conftest import (
    TEST_HEIGHT,
    TEST_WIDTH,
    build_chain,
    build_paper_example,
    build_two_consumer,
    harris_tie_target,
)

W, H = TEST_WIDTH, TEST_HEIGHT


class TestChainScheduling:
    def test_dual_port_chain_is_asap(self):
        schedule = schedule_pipeline(build_chain(3), W, H, asic_dual_port())
        assert schedule.start("K0") == 0
        assert schedule.delay("K0", "K1") == 2 * W + 1
        assert schedule.delay("K1", "K2") == 2 * W + 1

    def test_dual_port_chain_buffer_sizes(self):
        schedule = schedule_pipeline(build_chain(3), W, H, asic_dual_port())
        assert schedule.line_buffers["K0"].lines == 3
        assert schedule.line_buffers["K1"].lines == 3
        assert "K2" not in schedule.line_buffers  # output stage has no buffer

    def test_single_port_chain_needs_extra_line(self):
        schedule = schedule_pipeline(build_chain(3), W, H, asic_single_port())
        assert schedule.delay("K0", "K1") == 3 * W
        assert schedule.line_buffers["K0"].lines == 4

    def test_pointwise_chain_uses_registers(self):
        schedule = schedule_pipeline(build_chain(3, stencil=1), W, H, asic_dual_port())
        for config in schedule.line_buffers.values():
            assert config.num_blocks == 0
            assert config.style == "registers"

    def test_generator_label(self):
        schedule = schedule_pipeline(build_chain(3), W, H, asic_dual_port())
        assert schedule.generator == "imagen"
        lc = schedule_pipeline(
            build_chain(3), W, H, asic_dual_port(), SchedulerOptions(coalescing=True)
        )
        assert lc.generator == "imagen+lc"


class TestMultiConsumerScheduling:
    def test_paper_example_respects_contention(self):
        schedule = schedule_pipeline(build_paper_example(), W, H, asic_dual_port())
        # K2 reads a 2x2 window of K0: the kept contention constraint demands
        # S_K2 - S_K0 >= 2W on top of the data dependencies.
        assert schedule.delay("K0", "K2") >= 2 * W
        assert schedule.delay("K0", "K1") >= 2 * W + 1
        assert schedule.delay("K1", "K2") >= 2 * W + 1

    def test_two_consumer_contention_is_resolved(self):
        schedule = schedule_pipeline(build_two_consumer(), W, H, asic_dual_port())
        delay_a = schedule.delay("K0", "A")
        delay_b = schedule.delay("K0", "B")
        # One of the two consumers (or one vs the other) must be pushed back by
        # a full stencil height; they cannot both sit at the ASAP point.
        assert max(delay_a, delay_b) >= 3 * W or abs(delay_a - delay_b) >= 3 * W

    def test_pruning_does_not_change_optimum(self):
        dag = build_paper_example()
        with_pruning = schedule_pipeline(dag, W, H, asic_dual_port(), SchedulerOptions(pruning=True))
        without = schedule_pipeline(dag, W, H, asic_dual_port(), SchedulerOptions(pruning=False))
        assert with_pruning.solver_stats["objective"] == pytest.approx(
            without.solver_stats["objective"]
        )
        assert (
            with_pruning.solver_stats["pruned_contention_candidates"]
            <= without.solver_stats["pruned_contention_candidates"]
        )

    def test_solver_stats_populated(self):
        """The paper example has no true disjunction, so the flow kernel
        solves it: one solve, S and E nodes as variables."""
        dag = build_paper_example()
        schedule = schedule_pipeline(dag, W, H, asic_dual_port())
        stats = schedule.solver_stats
        assert stats["compile_seconds"] > 0
        assert stats["ports"] == 2
        assert stats["subproblems"] == 1
        producers = [s for s in dag.stage_names() if dag.consumers_of(s)]
        assert stats["ilp_variables"] == len(dag.stage_names()) + len(producers)
        assert stats["ilp_constraints"] > 0
        assert (stats["backend"], stats["strategy"]) == ("flow", "flow")
        assert stats["solves"] == 1
        assert "lp_iterations" not in stats


class TestOptionsAndErrors:
    def test_invalid_image_size(self):
        with pytest.raises(SchedulingError):
            schedule_pipeline(build_chain(3), 1, 1, asic_dual_port())

    def test_invalid_ports(self):
        """The memory spec is the only port count, and it rejects zero."""
        with pytest.raises(MemoryConfigError):
            asic_dual_port().with_ports(0)

    def test_port_count_comes_from_the_memory_spec(self):
        for spec in (asic_single_port(), asic_dual_port(), asic_dual_port().with_ports(3)):
            schedule = schedule_pipeline(build_paper_example(), W, H, spec)
            assert schedule.solver_stats["ports"] == spec.ports

    def test_big_m_model_below_the_longest_path_is_infeasible(self, monkeypatch):
        """The 18-stage synthetic pipeline has 32 branches, so the big-M model
        decides it; with a horizon of one image row, shorter than a 3x3
        stage's dependency delay, HiGHS finds no schedule."""
        monkeypatch.setattr(scheduler, "schedule_horizon", lambda dag, width: width)
        dag = build_synthetic_pipeline(18)
        prologue = scheduler._constraint_prologue(dag, W, asic_dual_port(), SchedulerOptions())
        assert max(dep.min_delay for dep in prologue.dependencies) > prologue.horizon
        with pytest.raises(SchedulingError, match=r"infeasible \(backend highs"):
            schedule_pipeline(dag, W, H, asic_dual_port())

    def test_disjunction_free_chain_takes_the_flow_kernel(self):
        schedule = schedule_pipeline(build_chain(3), W, H, asic_dual_port())
        assert schedule.solver_stats["backend"] == "flow"
        assert schedule.delay("K0", "K1") == 2 * W + 1

    def test_options_keep_four_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(SchedulerOptions)] == [
            "coalescing", "coalescing_policy", "pruning", "per_stage_coalescing",
        ]

    @pytest.mark.parametrize(
        "retired", [{"backend": "python"}, {"disjunction_strategy": "enumerate"},
                    {"max_subproblems": 4096}, {"ports": 2}],
    )
    def test_retired_fields_are_type_errors(self, retired):
        with pytest.raises(TypeError):
            SchedulerOptions(**retired)


def build_star():
    """K0 feeds K1-K7, and K1-K6 feed K7.  Dual-port at 32x24 this keeps 56
    true disjunctions, and HiGHS leaves a gap of about 30% after tens of
    seconds."""
    builder = PipelineBuilder("star")
    source = builder.input("K0")

    def read(handle, size):
        return window_sum(handle, size, size) if size > 1 else handle(0, 0)

    middle = [
        builder.stage(f"K{index}", read(source, size))
        for index, size in enumerate((1, 3, 2, 2, 3, 3), start=1)
    ]
    expr = read(source, 5)
    for handle, size in zip(middle, (2, 3, 1, 5, 2, 1)):
        expr = expr + read(handle, size)
    builder.output("K7", expr)
    return builder.build()


class TestSolveTimeLimit:
    def test_star_stops_at_the_limit_and_gives_the_gap(self, monkeypatch):
        monkeypatch.setattr("repro.core.scheduler.SOLVE_TIME_LIMIT_S", 1.0)
        started = time.perf_counter()
        with pytest.raises(SchedulingError, match=r"time limit of 1 s reached at a \d+\.\d% gap"):
            schedule_pipeline(build_star(), 32, 24, asic_dual_port())
        assert time.perf_counter() - started < 10


class TestCoalescedScheduling:
    def test_coalescing_reduces_blocks_on_tall_chain(self):
        dag = build_chain(3, stencil=5)
        plain = schedule_pipeline(dag, W, H, asic_dual_port())
        coalesced = schedule_pipeline(dag, W, H, asic_dual_port(), SchedulerOptions(coalescing=True))
        assert coalesced.total_blocks < plain.total_blocks

    def test_coalesced_line_count_multiple_of_factor(self):
        dag = build_chain(3, stencil=5)
        schedule = schedule_pipeline(dag, W, H, asic_dual_port(), SchedulerOptions(coalescing=True))
        for config in schedule.line_buffers.values():
            if config.coalesce_factor > 1:
                assert config.lines % config.coalesce_factor == 0

    def test_coalescing_respects_writer_separation(self):
        dag = build_chain(3, stencil=5)
        schedule = schedule_pipeline(dag, W, H, asic_dual_port(), SchedulerOptions(coalescing=True))
        assert schedule.delay("K0", "K1") >= 5 * W

    def test_per_stage_override_disables_coalescing(self):
        dag = build_chain(3, stencil=5)
        options = SchedulerOptions(coalescing=True, per_stage_coalescing={"K0": False, "K1": False})
        schedule = schedule_pipeline(dag, W, H, asic_dual_port(), options)
        assert all(config.coalesce_factor == 1 for config in schedule.line_buffers.values())


class TestLeastOptimum:
    def test_no_catalog_design_reaches_the_big_m_model(self, monkeypatch):
        """Every catalog design has a least optimum: canny-m and harris-m
        over their two branches, the rest on their one."""
        def refuse(dag, width, prologue):
            raise AssertionError(f"{dag.name} at width {width} reached the big-M model")

        monkeypatch.setattr(scheduler, "_solve_big_m", refuse)
        for name in ALGORITHM_NAMES + TEMPORAL_ALGORITHM_NAMES:
            for width, height in ((480, 320), (1920, 1080)):
                for coalescing in (False, True):
                    schedule = schedule_pipeline(
                        build_algorithm(name), width, height, asic_dual_port(),
                        SchedulerOptions(coalescing=coalescing),
                    )
                    assert schedule.solver_stats["backend"] == "flow"
                    branches = 2 if name in ("canny-m", "harris-m") else 1
                    assert schedule.solver_stats["subproblems"] == branches

    def test_kernel_defers_above_the_branch_cap_without_solving(self, monkeypatch):
        """Synthetic pipelines of 15 and 18 stages have 16 and 32 branches:
        the first solves on the kernel, the second goes to the big-M model
        before any branch is solved."""
        calls = []
        earliest = scheduler.earliest_optimum

        def counted(*args, **kwargs):
            calls.append(args)
            return earliest(*args, **kwargs)

        monkeypatch.setattr(scheduler, "earliest_optimum", counted)
        for stages, answers in ((15, True), (18, False)):
            dag = build_synthetic_pipeline(stages)
            prologue = scheduler._constraint_prologue(dag, W, asic_dual_port(), SchedulerOptions())
            branches = count_subproblems(prologue.disjunctions)
            assert (branches <= scheduler.MAX_FLOW_BRANCHES) is answers
            calls.clear()
            solved = scheduler._solve_flow(dag, prologue)
            assert (solved is not None) is answers
            assert len(calls) == (branches if answers else 0)

    def test_one_ilp_span_per_solve(self):
        """A flow attempt that defers shares its ``ilp`` span with the big-M
        solve after it; the span names the backend that answered."""
        plain = build_algorithm("harris-m")
        tie = harris_tie_target(W, H)
        for dag, spec, options in (
            (plain, asic_dual_port(), SchedulerOptions()),
            (tie.dag, tie.memory_spec, tie.options),
        ):
            with collect_spans() as trace:
                schedule = schedule_pipeline(dag, W, H, spec, options)
            spans = [span for span in flatten_spans(trace.spans) if span.name == "ilp"]
            assert len(spans) == 1
            assert spans[0].attrs["backend"] == schedule.solver_stats["backend"]
            assert spans[0].attrs["branches"] == 2
            assert spans[0].attrs["status"] == "optimal"
        assert schedule.solver_stats["backend"] == "highs"
        assert spans[0].attrs["bnb_nodes"] >= 1


class TestDifferenceSystem:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_solved_optimum_satisfies_the_difference_system(self, name):
        """The scheduled start cycles honour every mandatory edge and one
        candidate of every true disjunction, so one branch's system holds,
        and Eq. 1a scores them at the solver's objective."""
        dag = build_algorithm(name)
        options = SchedulerOptions()
        prologue = scheduler._constraint_prologue(dag, W, asic_dual_port(), options)
        mandatory, multis = difference_system(prologue.dependencies, prologue.disjunctions)
        schedule = schedule_pipeline(dag, W, H, asic_dual_port(), options)
        cycles = dict(schedule.start_cycles)
        assert schedule_is_legal(cycles, mandatory, multis)
        branches = list(branch_arcs(mandatory, multis))
        assert len(branches) == count_subproblems(prologue.disjunctions)
        assert any(
            all(cycles[b] - cycles[a] >= rhs for (a, b), rhs in arcs.items())
            for arcs in branches
        )
        assert schedule_objective(dag, cycles) == schedule.solver_stats["objective"]


class TestStartUp:
    def test_only_a_mirror_tie_imports_scipy_optimize(self):
        """A fresh interpreter compiles unsharp-m, and canny-m and harris-m
        (true disjunctions, each with a least optimum) with coalescing off
        and on, on the flow kernel without importing SciPy's optimiser;
        harris-m's mirror-tie variant reaches HiGHS and imports it."""
        script = (
            "import sys\n"
            "from repro.algorithms import build_algorithm\n"
            "from repro.api import CompileTarget\n"
            "from repro.core.compiler import compile_pipeline\n"
            "from repro.dse.sweep import _design_target\n"
            "def target(name):\n"
            "    return CompileTarget(build_algorithm(name), image_width=480, image_height=320)\n"
            "tie = {'K0': 'DP', 'gauss': 'DPLC', 'products': 'DP', 'structure': 'DP'}\n"
            "targets = [('unsharp-m', target('unsharp-m'))] + [\n"
            "    (f'{name}:{lc}', target(name).with_options(coalescing=lc))\n"
            "    for name in ('canny-m', 'harris-m') for lc in (False, True)\n"
            "] + [('tie', _design_target(target('harris-m'), tie))]\n"
            "for label, each in targets:\n"
            "    compile_pipeline(each)\n"
            "    print(label, 'scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert completed.stdout.split() == [
            "unsharp-m", "False",
            "canny-m:False", "False", "canny-m:True", "False",
            "harris-m:False", "False", "harris-m:True", "False",
            "tie", "True",
        ]
