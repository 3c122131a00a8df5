"""A compile's design depends only on its target.

A cache miss solves exactly as an uncached compile does, so what a cache or
an engine held before never shows in what it serves.  These tests pin that
for every catalog algorithm across resolutions, for every generator family,
for the DSE sweep, and for the mirror-tie canny-m/harris-m variants where two
optima have the same objective and a history-dependent solve could pick
either.  HiGHS picks between those two by its input alone, which is pinned
too.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import build_synthetic_pipeline
from repro.algorithms.catalog import ALGORITHM_NAMES, build_algorithm
from repro.api.target import CompileTarget
from repro.baselines.base import BASELINE_NAMES
from repro.core.compiler import compile_target
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.dse.sweep import _design_target, sweep_memory_configurations
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


@functools.lru_cache(maxsize=None)
def _plain_compile(name: str, label: str):
    """``compile_target`` of one variant with no cache: (start cycles, Verilog)."""
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


BIG_M_INPUTS_PATH = Path(__file__).parent.parent / "data" / "big_m_inputs.json"

#: The 480x320 DSE variants whose two optima are mirror images, so the flow
#: kernel defers and HiGHS picks one: every canny-m variant that coalesces
#: ``gauss_h`` and every harris-m variant that coalesces ``gauss``.
MIRROR_TIES = [
    ("canny-m", label)
    for label in (
        "gauss_h", "K0+gauss_h", "gauss_h+magnitude", "gauss_h+high_threshold",
        "K0+gauss_h+magnitude", "K0+gauss_h+high_threshold",
        "gauss_h+magnitude+high_threshold", "K0+gauss_h+magnitude+high_threshold",
    )
] + [
    ("harris-m", label)
    for label in (
        "gauss", "K0+gauss", "gauss+products", "gauss+structure",
        "K0+gauss+products", "K0+gauss+structure", "gauss+products+structure",
        "K0+gauss+products+structure",
    )
]


def milp_input_digest(c, integrality, bounds, constraints, options) -> str:
    """sha256 of one ``scipy.optimize.milp`` call's arrays and options
    (``bounds`` a ``Bounds``, ``constraints`` a list of ``LinearConstraint``).

    Every array is hashed dense as float64 with its shape, and a zero hashes
    the same whatever its sign (``-0.0 == 0.0`` to HiGHS), so the digest
    names the numbers HiGHS reads, not how the caller stored them.
    """
    parts = [c, integrality, bounds.lb, bounds.ub]
    for constraint in constraints:
        parts += [constraint.A, constraint.lb, constraint.ub]
    digest = hashlib.sha256(json.dumps(options, sort_keys=True).encode())
    for part in parts:
        dense = part.toarray() if hasattr(part, "toarray") else part
        dense = np.asarray(dense, dtype=np.float64) + 0.0
        digest.update(repr(dense.shape).encode())
        digest.update(dense.tobytes())
    return digest.hexdigest()


@contextlib.contextmanager
def recorded_milp_inputs():
    """Digests of the ``scipy.optimize.milp`` calls made inside the block."""
    import scipy.optimize

    digests: list[str] = []
    solve = scipy.optimize.milp

    def recording(c, *, integrality, bounds, constraints, options):
        digests.append(milp_input_digest(c, integrality, bounds, constraints, options))
        return solve(
            c, integrality=integrality, bounds=bounds, constraints=constraints, options=options
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.optimize, "milp", recording)
        yield digests


def big_m_input_digests() -> dict[str, str]:
    """The digest of HiGHS's one input for each mirror tie, and for the
    18-stage synthetic pipeline (32 branches) at width 32, dual-port."""
    solves = {
        f"{name}:{label}": lambda name=name, label=label: compile_target(
            _variant_target(name, label)
        )
        for name, label in MIRROR_TIES
    }
    solves["synthetic-18@32"] = lambda: schedule_pipeline(
        build_synthetic_pipeline(18), 32, 24, asic_dual_port(), SchedulerOptions()
    )
    digests = {}
    for key, solve in solves.items():
        with recorded_milp_inputs() as calls:
            solve()
        assert len(calls) == 1, (key, len(calls))
        digests[key] = calls[0]
    return digests


class TestBigMInputs:
    """HiGHS answers deterministically for a given input, so pinning its
    input pins its picks between mirror-image optima (grad_x first on 8 of
    8 canny-m ties and on 2 of 8 harris-m ties).

    Regenerate ``tests/data/big_m_inputs.json`` only on a deliberate change
    to the big-M model: ``PYTHONPATH=src python tests/unit/test_compile_identity.py``.
    """

    def test_pins_cover_the_mirror_ties(self):
        pinned = json.loads(BIG_M_INPUTS_PATH.read_text())
        assert len(MIRROR_TIES) == 16
        assert sorted(pinned) == sorted(
            [f"{name}:{label}" for name, label in MIRROR_TIES] + ["synthetic-18@32"]
        )

    def test_highs_reads_the_pinned_input(self):
        assert big_m_input_digests() == json.loads(BIG_M_INPUTS_PATH.read_text())


class TestIlpMetrics:
    def test_observe_spans_aggregates_solver_counters(self):
        from repro.service.metrics import EngineMetrics
        from repro.trace import Span

        metrics = EngineMetrics()
        spans = [
            Span.from_payload({
                "name": "ilp", "start": 0.0, "seconds": 0.001,
                "attrs": {"backend": "flow"},
            }),
            Span.from_payload({
                "name": "ilp", "start": 0.0, "seconds": 0.01,
                "attrs": {"backend": "highs", "bnb_nodes": 1},
            }),
        ]
        metrics.observe_spans(spans)
        summary = metrics.summary()
        assert summary["ilp_solves"] == 2
        for retired in (
            "ilp_warm_seeded",
            "ilp_compound_solves",
            "ilp_compound_blocks",
            "ilp_warm_certificates",
            "ilp_pruned_nodes",
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


if __name__ == "__main__":
    BIG_M_INPUTS_PATH.write_text(json.dumps(big_m_input_digests(), indent=2, sort_keys=True) + "\n")
