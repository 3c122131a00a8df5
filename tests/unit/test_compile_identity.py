"""A compile's design depends only on its target.

A cache miss solves exactly as an uncached compile does, so what a cache or
an engine held before never shows in what it serves.  These tests pin that
for every catalog algorithm across resolutions, for every generator family,
for the DSE sweep, and for the mirror-tie canny-m/harris-m variants where two
optima have the same objective and a history-dependent solve could pick
either; on HiGHS and on the pure-Python fallback.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.algorithms.catalog import ALGORITHM_NAMES, build_algorithm
from repro.api.target import CompileTarget
from repro.baselines.base import BASELINE_NAMES
from repro.core.compiler import compile_target
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.dse.sweep import _design_target, sweep_memory_configurations
from repro.ilp import highs
from repro.memory.spec import asic_dual_port
from repro.service import CompileEngine
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


def _compile_after_neighbor(dag, spec, options):
    """Compile ``dag`` at ``TARGET_RES`` through a cache that already holds
    it at ``NEIGHBOR_RES``: (the target's schedule, the cache)."""
    cache = CompileCache(max_entries=64)
    for width, height in (NEIGHBOR_RES, TARGET_RES):
        compiled = compile_target(
            CompileTarget(dag, width, height, memory_spec=spec, options=options),
            cache=cache,
        )
    return compiled.schedule, cache


class TestResolutionIdentity:
    """A cache miss beside the same pipeline at another resolution is the
    scheduler's cold solve, byte for byte, for every catalog algorithm."""

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_cache_miss_is_byte_identical_to_cold(self, name, spec):
        dag = build_algorithm(name)
        options = SchedulerOptions()
        cached, _ = _compile_after_neighbor(dag, spec, options)
        cold = schedule_pipeline(dag, *TARGET_RES, spec, options)
        assert schedule_payload(cached) == schedule_payload(cold)

    @pytest.mark.parametrize("name", ("canny-s", "harris-m"))
    def test_cache_miss_matches_cold_without_coalescing(self, name, spec):
        dag = build_algorithm(name)
        options = SchedulerOptions(coalescing=False)
        cached, _ = _compile_after_neighbor(dag, spec, options)
        cold = schedule_pipeline(dag, *TARGET_RES, spec, options)
        assert schedule_payload(cached) == schedule_payload(cold)


class TestCompilerWiring:
    def test_cache_miss_solves_beside_a_neighbor(self, spec):
        """The neighbour is no hit: the target misses, solves, and is stored."""
        cached, cache = _compile_after_neighbor(
            build_algorithm("canny-s"), spec, SchedulerOptions()
        )
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 2, 2)
        assert "warm_start" not in cached.solver_stats
        assert cached.solver_stats["solves"] == 1


class TestGeneratorIdentity:
    """All four generators produce identical designs with or without a
    cache in the loop, whatever else of the pipeline the cache holds."""

    @pytest.mark.parametrize("generator", ("imagen",) + BASELINE_NAMES)
    @pytest.mark.parametrize("name", ("canny-s", "denoise-m"))
    def test_cached_compile_matches_plain_compile(self, name, generator, spec):
        dag = build_algorithm(name)
        cache = CompileCache(max_entries=64)
        # The cache holds the same pipeline at another resolution first.
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


class TestSweepIdentity:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_serial_sweep_matches_solo_solves(self, name, spec):
        """The serial sweep's variants equal their solo solves."""
        dag = build_algorithm(name)
        points = sweep_memory_configurations(
            CompileTarget(dag, *NEIGHBOR_RES, memory_spec=spec)
        )
        for point in points:
            solo = schedule_pipeline(dag, *NEIGHBOR_RES, spec, point.accelerator.options)
            assert schedule_payload(point.accelerator.schedule) == schedule_payload(solo)


@pytest.mark.usefixtures("no_highs")
class TestResolutionIdentityWithoutHighs(TestResolutionIdentity):
    """``TestResolutionIdentity`` on the pure-Python branch-and-bound fallback."""


@pytest.mark.usefixtures("no_highs")
class TestGeneratorIdentityWithoutHighs(TestGeneratorIdentity):
    """``TestGeneratorIdentity`` on the pure-Python branch-and-bound fallback."""


@pytest.mark.usefixtures("no_highs")
class TestSweepIdentityWithoutHighs(TestSweepIdentity):
    """``TestSweepIdentity`` on the pure-Python branch-and-bound fallback."""


@functools.lru_cache(maxsize=None)
def _configurable(name: str) -> tuple[str, ...]:
    baseline = schedule_pipeline(
        build_algorithm(name), *NEIGHBOR_RES, asic_dual_port(), SchedulerOptions()
    )
    return tuple(p for p, config in baseline.line_buffers.items() if config.lines >= 2)


def _variant_target(name: str, label: str) -> CompileTarget:
    """The 480x320 DSE variant that coalesces the ``+``-joined buffers."""
    chosen = set(label.split("+"))
    configuration = {b: "DPLC" if b in chosen else "DP" for b in _configurable(name)}
    base = CompileTarget(build_algorithm(name), *NEIGHBOR_RES, memory_spec=asic_dual_port())
    return _design_target(base, configuration)


def _plain_compile(name: str, label: str):
    """``compile_target`` of one variant with no cache: (start cycles, Verilog)."""
    return _plain_compile_on(name, label, highs.is_available())


@functools.lru_cache(maxsize=None)
def _plain_compile_on(name: str, label: str, with_highs: bool):
    # Keyed by the backend: where optima tie, HiGHS and the fallback may
    # each pick another one.
    compiled = compile_target(_variant_target(name, label))
    return dict(compiled.schedule.start_cycles), compiled.generate_verilog()


#: (algorithm, target variant, earlier variant, its resolution): pairs of
#: canny-m/harris-m DSE variants at 480x320 whose optima tie (grad_x and
#: grad_y start cycles swapped).  A solve seeded from the earlier variant's
#: cached schedule picked the other optimum than ``compile_target``, so an
#: engine served the target with other Verilog than a plain compile.
TIED_PAIRS = [
    ("canny-m", "K0+gauss_h", "K0+gauss_h", (640, 480)),
    ("harris-m", "gauss", "gauss+structure", NEIGHBOR_RES),
    ("harris-m", "gauss", "K0+gauss+structure", NEIGHBOR_RES),
    ("harris-m", "gauss+structure", "gauss", NEIGHBOR_RES),
    ("harris-m", "gauss+structure", "gauss+products", NEIGHBOR_RES),
    ("harris-m", "gauss+structure", "gauss+products+structure", NEIGHBOR_RES),
    ("harris-m", "gauss+structure", "K0+gauss", NEIGHBOR_RES),
    ("harris-m", "gauss+structure", "K0+gauss+products", NEIGHBOR_RES),
    ("harris-m", "gauss+structure", "K0+gauss+products+structure", NEIGHBOR_RES),
    ("harris-m", "gauss+structure", "gauss+structure", (640, 480)),
    ("harris-m", "gauss+products", "gauss+structure", NEIGHBOR_RES),
    ("harris-m", "gauss+products", "K0+gauss+structure", NEIGHBOR_RES),
    ("harris-m", "gauss+products+structure", "gauss+structure", NEIGHBOR_RES),
    ("harris-m", "gauss+products+structure", "K0+gauss+structure", NEIGHBOR_RES),
    ("harris-m", "K0+gauss", "gauss+structure", NEIGHBOR_RES),
    ("harris-m", "K0+gauss", "K0+gauss+structure", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+structure", "gauss", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+structure", "gauss+products", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+structure", "gauss+products+structure", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+structure", "K0+gauss", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+structure", "K0+gauss+products", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+structure", "K0+gauss+products+structure", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+structure", "K0+gauss+structure", (640, 480)),
    ("harris-m", "K0+gauss+products", "gauss+structure", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+products", "K0+gauss+structure", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+products", "K0+gauss+products", (640, 480)),
    ("harris-m", "K0+gauss+products+structure", "gauss+structure", NEIGHBOR_RES),
    ("harris-m", "K0+gauss+products+structure", "K0+gauss+structure", NEIGHBOR_RES),
]


def _pair_id(pair) -> str:
    name, target, earlier, (width, height) = pair
    return f"{name}:{target}<-{earlier}@{width}x{height}"


class TestHistoryIndependence:
    @pytest.mark.parametrize("pair", TIED_PAIRS, ids=_pair_id)
    def test_engine_serves_what_compile_target_emits(self, pair):
        """An engine that has compiled another variant first serves the
        target with ``compile_target``'s start cycles and Verilog."""
        name, target, earlier, resolution = pair
        with CompileEngine(workers=1, executor="inline") as engine:
            engine.submit(_variant_target(name, earlier).with_resolution(*resolution)).unwrap()
            served = engine.submit(_variant_target(name, target)).unwrap()
        start_cycles, verilog = _plain_compile(name, target)
        assert dict(served.schedule.start_cycles) == start_cycles
        assert served.generate_verilog() == verilog


@pytest.mark.usefixtures("no_highs")
class TestHistoryIndependenceWithoutHighs(TestHistoryIndependence):
    """``TestHistoryIndependence`` on the pure-Python branch-and-bound fallback."""


class TestIlpMetrics:
    def test_observe_spans_aggregates_solver_counters(self):
        from repro.service.metrics import EngineMetrics
        from repro.trace import Span

        metrics = EngineMetrics()
        spans = [
            Span.from_payload({
                "name": "ilp", "start": 0.0, "seconds": 0.001,
                "attrs": {"backend": "flow", "bnb_pruned": 0},
            }),
            Span.from_payload({
                "name": "ilp", "start": 0.0, "seconds": 0.01,
                "attrs": {"backend": "python", "bnb_pruned": 4},
            }),
        ]
        metrics.observe_spans(spans)
        summary = metrics.summary()
        assert summary["ilp_solves"] == 2
        assert summary["ilp_pruned_nodes"] == 4
        for retired in (
            "ilp_warm_seeded",
            "ilp_compound_solves",
            "ilp_compound_blocks",
            "ilp_warm_certificates",
        ):
            assert retired not in summary

    def test_summary_keys_are_registered_metrics(self):
        from repro.service.metrics import EngineMetrics
        from repro.service.observability import registered_keys

        summary = EngineMetrics().summary()
        registered = registered_keys("/v1/metrics")
        for key in summary:
            if key.startswith("ilp_"):
                assert key in registered
