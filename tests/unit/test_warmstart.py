"""Warm-start transfer, certificates, neighbor cache, and byte-identity pins.

The acceptance property of the warm-start layer is *identity*: a warm-started
(or compound) solve must produce a byte-identical schedule to the cold solve
it replaces — the warm machinery may only change how fast the answer is
found, never the answer.  These tests pin that for every catalog algorithm
and for every generator family, plus the unit behaviour of the transfer, the
lower bounds, the cache's neighbor lookup and the compiler wiring.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms.catalog import ALGORITHM_NAMES, build_algorithm
from repro.api.target import CompileTarget
from repro.baselines.base import BASELINE_NAMES
from repro.core.compiler import compile_target
from repro.core.scheduler import SchedulerOptions, schedule_compound, schedule_pipeline
from repro.core.warmstart import (
    WarmHint,
    dependency_lower_bound,
    difference_system,
    disjunctive_lower_bound,
    hint_from_schedule,
    schedule_objective,
    try_warm_transfer,
)
from repro.memory.spec import asic_dual_port
from repro.service.cache import CompileCache, serialize_schedule

NEIGHBOR_RES = (480, 320)
TARGET_RES = (960, 540)


def schedule_payload(schedule) -> str:
    """Canonical byte form of a schedule, solver bookkeeping stripped."""
    payload = serialize_schedule(schedule, include_line_buffers=True)
    payload.pop("solver_stats", None)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def spec():
    return asic_dual_port()


class TestTransfer:
    def test_hint_from_schedule_carries_decisions(self, spec):
        schedule = schedule_pipeline(
            build_algorithm("canny-s"), *NEIGHBOR_RES, spec, SchedulerOptions()
        )
        hint = hint_from_schedule(schedule)
        assert hint.image_width == NEIGHBOR_RES[0]
        assert hint.start_cycles == dict(schedule.start_cycles)
        assert hint.objective == pytest.approx(schedule.solver_stats["objective"])

    def test_stale_hint_is_reported(self, spec):
        dag = build_algorithm("canny-s")
        from repro.core.scheduler import _constraint_prologue

        prologue = _constraint_prologue(dag, TARGET_RES[0], spec, SchedulerOptions())
        mandatory, multis = difference_system(prologue.dependencies, prologue.disjunctions)
        cycles, detail = try_warm_transfer(
            dag,
            WarmHint(),  # no start cycles at all
            image_width=TARGET_RES[0],
            mandatory=mandatory,
            multis=multis,
            pruning=True,
            order=prologue.order,
        )
        assert cycles is None and detail == "stale-hint"

    def test_transfer_produces_legal_certified_schedule(self, spec):
        dag = build_algorithm("canny-s")
        options = SchedulerOptions()
        hint = hint_from_schedule(schedule_pipeline(dag, *NEIGHBOR_RES, spec, options))
        from repro.core.scheduler import _attempt_warm_start, _constraint_prologue

        prologue = _constraint_prologue(dag, TARGET_RES[0], spec, options)
        cycles, certified, detail = _attempt_warm_start(
            dag, TARGET_RES[0], prologue, options, hint
        )
        assert detail == "certificate"
        assert cycles is not None
        assert certified == schedule_objective(dag, cycles)

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_disjunctive_bound_tightens_but_stays_valid(self, name, spec):
        dag = build_algorithm(name)
        from repro.core.scheduler import _constraint_prologue

        prologue = _constraint_prologue(dag, NEIGHBOR_RES[0], spec, SchedulerOptions())
        mandatory, multis = difference_system(prologue.dependencies, prologue.disjunctions)
        weak = dependency_lower_bound(dag, mandatory)
        strong = disjunctive_lower_bound(dag, mandatory, multis)
        assert strong >= weak
        # Validity: a solved optimum can never undercut the bound.
        schedule = schedule_pipeline(dag, *NEIGHBOR_RES, spec, SchedulerOptions())
        assert schedule_objective(dag, dict(schedule.start_cycles)) >= strong


class TestWarmIdentity:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_warm_solve_is_byte_identical_to_cold(self, name, spec):
        dag = build_algorithm(name)
        options = SchedulerOptions()
        hint = hint_from_schedule(schedule_pipeline(dag, *NEIGHBOR_RES, spec, options))
        cold = schedule_pipeline(dag, *TARGET_RES, spec, options)
        warm = schedule_pipeline(dag, *TARGET_RES, spec, options, warm_hint=hint)
        assert schedule_payload(warm) == schedule_payload(cold)
        # At the default options every catalog algorithm's transfer certifies.
        assert warm.solver_stats["warm_start"] == "certificate"

    @pytest.mark.parametrize("name", ("canny-s", "harris-m"))
    def test_warm_solve_matches_cold_without_coalescing(self, name, spec):
        dag = build_algorithm(name)
        options = SchedulerOptions(coalescing=False)
        hint = hint_from_schedule(schedule_pipeline(dag, *NEIGHBOR_RES, spec, options))
        cold = schedule_pipeline(dag, *TARGET_RES, spec, options)
        warm = schedule_pipeline(dag, *TARGET_RES, spec, options, warm_hint=hint)
        assert schedule_payload(warm) == schedule_payload(cold)


class TestGeneratorIdentity:
    """All four generators produce identical designs with or without the
    warm-start-capable cache in the loop."""

    @pytest.mark.parametrize("generator", ("imagen",) + BASELINE_NAMES)
    @pytest.mark.parametrize("name", ("canny-s", "denoise-m"))
    def test_cached_compile_matches_plain_compile(self, name, generator, spec):
        dag = build_algorithm(name)
        cache = CompileCache(max_entries=64)
        # Warm the cache with the *neighbor* resolution so the target compile
        # below sees a fetch_neighbor hit (imagen) or ignores it (baselines).
        neighbor = CompileTarget(
            dag=dag, image_width=NEIGHBOR_RES[0], image_height=NEIGHBOR_RES[1],
            memory_spec=spec, generator=generator,
        )
        compile_target(neighbor, cache=cache)
        target = CompileTarget(
            dag=dag, image_width=TARGET_RES[0], image_height=TARGET_RES[1],
            memory_spec=spec, generator=generator,
        )
        plain = compile_target(target)
        cached = compile_target(target, cache=cache)
        assert schedule_payload(cached.schedule) == schedule_payload(plain.schedule)


class TestCompoundIdentity:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_compound_sweep_matches_solo_solves(self, name, spec):
        import itertools

        from repro.dse.sweep import _design_target

        dag = build_algorithm(name)
        base = CompileTarget(
            dag=dag, image_width=NEIGHBOR_RES[0], image_height=NEIGHBOR_RES[1],
            memory_spec=spec,
        )
        baseline = schedule_pipeline(
            dag, *NEIGHBOR_RES, spec, SchedulerOptions(coalescing=False)
        )
        configurable = [
            producer for producer, config in baseline.line_buffers.items()
            if config.lines >= 2
        ]
        variant_options = [
            _design_target(base, dict(zip(configurable, combo))).options
            for combo in itertools.product(("DP", "DPLC"), repeat=len(configurable))
        ]
        solo = [schedule_pipeline(dag, *NEIGHBOR_RES, spec, o) for o in variant_options]
        compound = schedule_compound(
            dag, *NEIGHBOR_RES, spec, variant_options,
            base_hint=hint_from_schedule(baseline),
        )
        assert len(compound) == len(solo)
        for cold, warm in zip(solo, compound):
            assert schedule_payload(warm) == schedule_payload(cold)
            assert warm.solver_stats["compound_variants"] == len(variant_options)


class TestCacheNeighbor:
    def _put(self, cache, dag, width, height, spec, **options):
        target = CompileTarget(
            dag=dag, image_width=width, image_height=height, memory_spec=spec,
            options=SchedulerOptions(**options),
        )
        schedule = schedule_pipeline(dag, width, height, spec, target.options)
        cache.put(target.fingerprint, schedule)
        return target

    def test_neighbor_found_across_resolutions(self, spec):
        dag = build_algorithm("unsharp-m")
        cache = CompileCache()
        self._put(cache, dag, *NEIGHBOR_RES, spec)
        target = CompileTarget(
            dag=dag, image_width=TARGET_RES[0], image_height=TARGET_RES[1],
            memory_spec=spec,
        )
        hint = cache.fetch_neighbor(target)
        assert hint is not None
        assert hint.image_width == NEIGHBOR_RES[0]
        assert hint.fingerprint
        assert cache.stats.neighbor_hits == 1

    def test_same_width_neighbor_preferred(self, spec):
        dag = build_algorithm("unsharp-m")
        cache = CompileCache()
        self._put(cache, dag, *NEIGHBOR_RES, spec)
        self._put(cache, dag, TARGET_RES[0], TARGET_RES[1], spec, coalescing=True)
        target = CompileTarget(
            dag=dag, image_width=TARGET_RES[0], image_height=TARGET_RES[1],
            memory_spec=spec,
        )
        hint = cache.fetch_neighbor(target)
        assert hint is not None
        assert hint.image_width == TARGET_RES[0]  # options-only neighbor wins

    def test_exact_entry_is_not_its_own_neighbor(self, spec):
        dag = build_algorithm("unsharp-m")
        cache = CompileCache()
        target = self._put(cache, dag, *NEIGHBOR_RES, spec)
        assert cache.fetch_neighbor(target) is None
        assert cache.stats.neighbor_misses == 1

    def test_different_dag_is_no_neighbor(self, spec):
        cache = CompileCache()
        self._put(cache, build_algorithm("canny-s"), *NEIGHBOR_RES, spec)
        target = CompileTarget(
            dag=build_algorithm("harris-s"), image_width=TARGET_RES[0],
            image_height=TARGET_RES[1], memory_spec=spec,
        )
        assert cache.fetch_neighbor(target) is None

    def test_eviction_drops_index_entries(self, spec):
        dag = build_algorithm("unsharp-m")
        cache = CompileCache(max_entries=1)
        self._put(cache, dag, *NEIGHBOR_RES, spec)
        # Inserting a different pipeline evicts the first entry...
        self._put(cache, build_algorithm("canny-s"), *NEIGHBOR_RES, spec)
        target = CompileTarget(
            dag=dag, image_width=TARGET_RES[0], image_height=TARGET_RES[1],
            memory_spec=spec,
        )
        # ...so the evicted schedule is no longer offered as a neighbor.
        assert cache.fetch_neighbor(target) is None

    def test_clear_resets_index(self, spec):
        dag = build_algorithm("unsharp-m")
        cache = CompileCache()
        self._put(cache, dag, *NEIGHBOR_RES, spec)
        cache.clear()
        target = CompileTarget(
            dag=dag, image_width=TARGET_RES[0], image_height=TARGET_RES[1],
            memory_spec=spec,
        )
        assert cache.fetch_neighbor(target) is None
        assert cache.stats.neighbor_misses == 1

    def test_counters_exported(self):
        from repro.service.cache import CacheStats

        stats = CacheStats(neighbor_hits=3, neighbor_misses=1).as_dict()
        assert stats["neighbor_hits"] == 3
        assert stats["neighbor_misses"] == 1


class TestCompilerWiring:
    def test_cache_miss_warm_starts_from_neighbor(self, spec):
        dag = build_algorithm("canny-s")
        cache = CompileCache()
        first = CompileTarget(
            dag=dag, image_width=NEIGHBOR_RES[0], image_height=NEIGHBOR_RES[1],
            memory_spec=spec,
        )
        compile_target(first, cache=cache)
        second = CompileTarget(
            dag=dag, image_width=TARGET_RES[0], image_height=TARGET_RES[1],
            memory_spec=spec,
        )
        compiled = compile_target(second, cache=cache)
        assert compiled.schedule.solver_stats["warm_start"] == "certificate"
        assert cache.stats.neighbor_hits >= 1


class TestIlpMetrics:
    def test_observe_spans_aggregates_solver_counters(self):
        from repro.service.metrics import EngineMetrics
        from repro.trace import Span

        metrics = EngineMetrics()
        spans = [
            Span.from_payload({
                "name": "ilp", "start": 0.0, "seconds": 0.001,
                "attrs": {"warm_start": "certificate", "bnb_pruned": 0},
            }),
            Span.from_payload({
                "name": "ilp", "start": 0.0, "seconds": 0.01,
                "attrs": {"warm_start": "incumbent", "bnb_pruned": 4},
            }),
            Span.from_payload({
                "name": "ilp_compound", "start": 0.0, "seconds": 0.1,
                "attrs": {"blocks": 8, "block_solves": 8},
            }),
        ]
        metrics.observe_spans(spans)
        summary = metrics.summary()
        assert summary["ilp_solves"] == 2
        assert summary["ilp_warm_certificates"] == 1
        assert summary["ilp_warm_seeded"] == 1
        assert summary["ilp_pruned_nodes"] == 4
        assert summary["ilp_compound_solves"] == 1
        assert summary["ilp_compound_blocks"] == 8

    def test_summary_keys_are_registered_metrics(self):
        from repro.service.metrics import EngineMetrics
        from repro.service.observability import registered_keys

        summary = EngineMetrics().summary()
        registered = registered_keys("/v1/metrics")
        for key in summary:
            if key.startswith("ilp_"):
                assert key in registered
