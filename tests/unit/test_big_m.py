"""The scheduler's big-M model against the min-cost-flow kernel.

A solve takes one of two paths: the flow kernel answers when the system has
a least optimum within ``MAX_FLOW_BRANCHES`` branches, and HiGHS solves the
big-M model (``_build_big_m``'s arrays) otherwise.  Both must describe the
same scheduling problem.  These tests check that on every catalog design and
every Fig. 10 variant:

* the model's columns and rows follow the documented layout;
* the schedule that answers, with each ``D`` set to its producer's largest
  consumer delay and one indicator on per true disjunction, is a feasible
  point of the model whose cost is the reported objective;
* HiGHS on the model reaches the flow kernel's optimum, and the kernel's
  answer is the least point of the optimal set, so it lies at or below
  HiGHS's start cycles;
* the kernel defers on exactly the 16 mirror-tie variants.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.algorithms import ALGORITHM_NAMES, TEMPORAL_ALGORITHM_NAMES, build_algorithm
from repro.core import scheduler
from repro.core.flow import difference_system
from repro.core.scheduler import SchedulerOptions, _constraint_prologue
from repro.memory.spec import asic_dual_port

from oracles import schedule_is_legal, schedule_objective
from test_compile_identity import MIRROR_TIES, NEIGHBOR_RES, _configurable, _variant_target

CATALOG = ALGORITHM_NAMES + TEMPORAL_ALGORITHM_NAMES
SIZES = [(480, 320), (1920, 1080)]


def big_m_point(dag, prologue, cycles) -> np.ndarray:
    """``cycles`` as a column vector of the big-M model: ``S`` the start
    cycles, ``D`` each producer's largest consumer delay, and per true
    disjunction the indicator of its first candidate that holds."""
    stages = dag.stage_names()
    point = [cycles[stage] for stage in stages]
    point += [
        max(cycles[consumer] - cycles[producer] for consumer in dag.consumers_of(producer))
        for producer in stages
        if dag.consumers_of(producer)
    ]
    for disjunction in prologue.disjunctions:
        if disjunction.is_singleton:
            continue
        held = [
            cycles[c.trailing] - cycles[c.leading] >= c.min_gap for c in disjunction.candidates
        ]
        chosen = held.index(True)
        point += [1 if index == chosen else 0 for index in range(len(held))]
    return np.array(point, dtype=np.float64)


def assert_answer_is_a_model_point(dag, width, prologue, cycles, objective):
    """``cycles`` is a legal schedule scored ``objective`` by Eq. 1a, and a
    feasible point of the big-M model at that cost."""
    mandatory, multis = difference_system(prologue.dependencies, prologue.disjunctions)
    assert schedule_is_legal(cycles, mandatory, multis)
    assert schedule_objective(dag, cycles) == objective
    problem = scheduler._build_big_m(dag, width, prologue)
    x = big_m_point(dag, prologue, cycles)
    products = problem.rows @ x
    assert np.all(problem.row_lower <= products) and np.all(products <= problem.row_upper)
    assert np.all(problem.lower <= x) and np.all(x <= problem.upper)
    assert problem.c @ x == objective


def solve_both(dag, width, prologue, monkeypatch):
    """(the flow kernel's answer or ``None``, the least objective over its
    branches, HiGHS's answer on the big-M model)."""
    objectives = []
    earliest = scheduler.earliest_optimum

    def recorded(*args, **kwargs):
        solution = earliest(*args, **kwargs)
        if solution is not None:
            objectives.append(solution[1])
        return solution

    monkeypatch.setattr(scheduler, "earliest_optimum", recorded)
    flow = scheduler._solve_flow(dag, prologue)
    return flow, min(objectives), scheduler._solve_big_m(dag, width, prologue)


class TestLayout:
    @pytest.mark.parametrize("name", CATALOG)
    def test_columns_and_rows(self, name):
        """Columns: ``S`` per stage, ``D`` per producer, one ``y`` per
        candidate of each true disjunction.  Rows: anchors, dependencies,
        max-delay rows, then each disjunction's rows."""
        dag = build_algorithm(name)
        width = NEIGHBOR_RES[0]
        prologue = _constraint_prologue(dag, width, asic_dual_port(), SchedulerOptions())
        problem = scheduler._build_big_m(dag, width, prologue)
        stages = dag.stage_names()
        producers = [stage for stage in stages if dag.consumers_of(stage)]
        true = [d for d in prologue.disjunctions if not d.is_singleton]
        delays, indicators = len(producers), sum(len(d.candidates) for d in true)
        columns = len(stages) + delays + indicators
        inputs = dag.input_stages()
        rows = (
            len(inputs)
            + len(prologue.dependencies)
            + sum(len(dag.consumers_of(producer)) for producer in producers)
            + sum(1 if d.is_singleton else len(d.candidates) + 1 for d in prologue.disjunctions)
        )
        assert problem.rows.shape == (rows, columns)
        for array in (problem.c, problem.lower, problem.upper, problem.integrality):
            assert array.shape == (columns,)
        for array in (problem.c, problem.rows, problem.row_lower, problem.row_upper,
                      problem.lower, problem.upper):
            assert array.dtype == np.float64
        assert problem.c.tolist() == [0.0] * len(stages) + [1.0] * delays + [0.0] * indicators
        assert problem.integrality.tolist() == [1] * columns
        assert problem.lower.tolist() == [0.0] * columns
        horizon = float(prologue.horizon)
        assert problem.upper.tolist() == [horizon] * (len(stages) + delays) + [1.0] * indicators
        for row, stage in enumerate(inputs):
            assert problem.rows[row].tolist() == [
                1.0 if column == stages.index(stage.name) else 0.0 for column in range(columns)
            ]
            assert (problem.row_lower[row], problem.row_upper[row]) == (0.0, 0.0)
        # Each true disjunction ends with its cover row: sum of its y >= 1.
        cover_rows = [
            row for row in range(rows)
            if problem.row_lower[row] == 1.0
            and not problem.rows[row, : len(stages) + delays].any()
        ]
        assert len(cover_rows) == len(true)
        for row in cover_rows:
            assert problem.row_upper[row] == np.inf
            assert set(problem.rows[row, len(stages) + delays :].tolist()) <= {0.0, 1.0}


class TestCatalogDesigns:
    @pytest.mark.parametrize("coalescing", [False, True], ids=["plain", "lc"])
    @pytest.mark.parametrize("size", SIZES, ids=lambda size: "x".join(map(str, size)))
    @pytest.mark.parametrize("name", CATALOG)
    def test_flow_answer_is_the_least_big_m_optimum(self, name, size, coalescing, monkeypatch):
        dag = build_algorithm(name)
        width = size[0]
        options = SchedulerOptions(coalescing=coalescing)
        prologue = _constraint_prologue(dag, width, asic_dual_port(), options)
        flow, optimum, (cycles, objective, stats) = solve_both(dag, width, prologue, monkeypatch)
        assert flow is not None
        least, flow_objective, _ = flow
        assert flow_objective == objective == optimum
        assert stats["backend"] == "highs"
        assert all(least[stage] <= cycles[stage] for stage in dag.stage_names())
        assert_answer_is_a_model_point(dag, width, prologue, least, objective)
        assert_answer_is_a_model_point(dag, width, prologue, cycles, objective)


def fig10_variants() -> list[tuple[str, str]]:
    """Every 480x320 DSE variant of every catalog algorithm: each buffer of
    two or more lines dual-ported, with or without coalescing."""
    variants = []
    for name in CATALOG:
        buffers = _configurable(name)
        for count in range(len(buffers) + 1):
            for chosen in itertools.combinations(buffers, count):
                variants.append((name, "+".join(chosen)))
    return variants


FIG10_VARIANTS = fig10_variants()
TIES = {(name, frozenset(label.split("+"))) for name, label in MIRROR_TIES}


class TestFig10Variants:
    def test_variant_count(self):
        """The sweep of Fig. 10 has 98 variants, 16 of them mirror ties."""
        assert len(FIG10_VARIANTS) == 98
        tied = [(n, label) for n, label in FIG10_VARIANTS
                if (n, frozenset(label.split("+"))) in TIES]
        assert len(tied) == len(MIRROR_TIES) == 16

    @pytest.mark.parametrize(
        "name, label", FIG10_VARIANTS, ids=[f"{n}:{label or 'none'}" for n, label in FIG10_VARIANTS]
    )
    def test_flow_answers_unless_the_optima_are_mirror_images(self, name, label, monkeypatch):
        target = _variant_target(name, label)
        dag, width = target.dag, NEIGHBOR_RES[0]
        prologue = _constraint_prologue(dag, width, target.memory_spec, target.options)
        flow, optimum, (cycles, objective, _) = solve_both(dag, width, prologue, monkeypatch)
        assert objective == optimum
        assert_answer_is_a_model_point(dag, width, prologue, cycles, objective)
        if (name, frozenset(label.split("+"))) in TIES:
            assert flow is None
            return
        assert flow is not None
        least, flow_objective, _ = flow
        assert flow_objective == objective
        assert all(least[stage] <= cycles[stage] for stage in dag.stage_names())
        assert_answer_is_a_model_point(dag, width, prologue, least, objective)
