"""Pool-vs-direct compile parity over the algorithm catalog.

A batch on the engine's thread pool must compile the full catalog with
fingerprints and area/power report rows *identical* to direct
:func:`repro.core.compile_pipeline` calls on this thread — where a job ran
never changes what it produced — and a baseline design saved by one process
must be loaded warm from the shared :class:`DiskCacheStore` by a second
process.
"""

import multiprocessing

import pytest

from repro.algorithms import algorithm_names, build_algorithm
from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.estimate.report import accelerator_report
from repro.service import CompileCache, CompileEngine, DiskCacheStore

from tests.conftest import TEST_HEIGHT, TEST_WIDTH

W, H = TEST_WIDTH, TEST_HEIGHT


def _catalog_targets() -> list[CompileTarget]:
    return [
        CompileTarget(build_algorithm(name), image_width=W, image_height=H, label=name)
        for name in algorithm_names()
    ]


def _rows(targets, accelerators):
    return [
        (target.fingerprint, accelerator_report(accelerator).row())
        for target, accelerator in zip(targets, accelerators)
    ]


def _direct_and_pool(targets):
    """Compile ``targets`` directly, one by one, and as a 2-thread pool batch."""
    direct = [compile_pipeline(target) for target in targets]
    with CompileEngine(workers=2) as engine:
        batch = engine.submit_batch(targets)
    assert all(r.ok for r in batch.results)
    assert [r.fingerprint for r in batch.results] == [t.fingerprint for t in targets]
    return direct, [r.accelerator for r in batch.results]


class TestPoolDirectParity:
    def test_catalog_identical_to_direct_compiles(self):
        """Same fingerprints, same area/power rows, algorithm by algorithm."""
        targets = _catalog_targets()
        direct, pooled = _direct_and_pool(targets)
        assert _rows(targets, direct) == _rows(targets, pooled)

    def test_baseline_generators_identical_to_direct_compiles(self):
        dag_name = algorithm_names()[0]
        targets = [
            CompileTarget(
                build_algorithm(dag_name), image_width=W, image_height=H, generator=gen
            )
            for gen in ("darkroom", "soda", "fixynn")
        ]
        direct, pooled = _direct_and_pool(targets)
        assert _rows(targets, direct) == _rows(targets, pooled)
        for ours, theirs in zip(pooled, direct):
            assert ours.schedule.start_cycles == theirs.schedule.start_cycles
            for name, config in theirs.schedule.line_buffers.items():
                assert (
                    ours.schedule.line_buffers[name].to_payload()
                    == config.to_payload()
                )

    def test_coalescing_fallback_identical_to_a_direct_compile(self):
        """The two-solve auto-coalescing path agrees with a direct compile."""
        target = CompileTarget(
            build_algorithm("unsharp-m"), image_width=W, image_height=H
        ).with_options(coalescing=True)
        [theirs], [ours] = _direct_and_pool([target])
        assert ours.schedule.generator == theirs.schedule.generator
        assert ours.metadata["schedule_fingerprints"] == (
            theirs.metadata["schedule_fingerprints"]
        )
        assert accelerator_report(ours).row() == accelerator_report(theirs).row()


def _compile_baseline_in_child(cache_dir: str, width: int, height: int) -> None:
    """Child-process body: compile a Darkroom design onto the shared volume."""
    from repro.core.compiler import compile_pipeline

    target = CompileTarget(
        build_algorithm("unsharp-m"),
        image_width=width,
        image_height=height,
        generator="darkroom",
    )
    cache = CompileCache(store=DiskCacheStore(cache_dir))
    compile_pipeline(target, cache=cache)


class TestCrossProcessBaselinePersistence:
    def test_darkroom_saved_by_one_process_loads_warm_in_another(self, tmp_path):
        """Acceptance: baseline designs persist across process boundaries."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method for an in-repo child process")
        child = multiprocessing.get_context("fork").Process(
            target=_compile_baseline_in_child, args=(str(tmp_path), W, H)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 0

        # This process has a cold memory tier; only the shared disk volume
        # can answer, and it must answer with the identical design.
        target = CompileTarget(
            build_algorithm("unsharp-m"), image_width=W, image_height=H, generator="darkroom"
        )
        cache = CompileCache(store=DiskCacheStore(tmp_path))
        schedule, source, _ = cache.fetch(target)
        assert source == "disk"
        assert schedule.generator == "darkroom"
        from repro.baselines import generate_baseline

        fresh = generate_baseline(target).schedule
        assert accelerator_report(schedule).row() == accelerator_report(fresh).row()
        assert schedule.start_cycles == fresh.start_cycles
