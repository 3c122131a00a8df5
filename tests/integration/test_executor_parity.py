"""Inline-vs-thread executor parity over the algorithm catalog.

``CompileEngine(executor="thread")`` must compile the full catalog with
fingerprints and area/power report rows *identical* to the deterministic
``inline`` backend — where a job ran never changes what it produced — and a
baseline design saved by one process must be loaded warm from the shared
:class:`DiskCacheStore` by a second process.
"""

import multiprocessing

import pytest

from repro.algorithms import algorithm_names, build_algorithm
from repro.api import CompileTarget
from repro.estimate.report import accelerator_report
from repro.service import CompileCache, CompileEngine, DiskCacheStore

from tests.conftest import TEST_HEIGHT, TEST_WIDTH

W, H = TEST_WIDTH, TEST_HEIGHT


def _catalog_targets() -> list[CompileTarget]:
    return [
        CompileTarget(build_algorithm(name), image_width=W, image_height=H, label=name)
        for name in algorithm_names()
    ]


def _rows(batch):
    return [
        (result.fingerprint, accelerator_report(result.accelerator).row())
        for result in batch.results
    ]


def _inline_and_thread(targets):
    """Compile ``targets`` on the inline backend and on a 2-thread pool."""
    with CompileEngine(executor="inline") as inline_engine:
        inline_batch = inline_engine.submit_batch(targets)
    with CompileEngine(workers=2, executor="thread") as thread_engine:
        thread_batch = thread_engine.submit_batch(targets)
    return inline_batch, thread_batch


class TestInlineThreadParity:
    def test_catalog_identical_across_backends(self):
        """Same fingerprints, same area/power rows, algorithm by algorithm."""
        inline_batch, thread_batch = _inline_and_thread(_catalog_targets())
        assert all(r.ok for r in inline_batch.results)
        assert all(r.ok for r in thread_batch.results)
        assert _rows(inline_batch) == _rows(thread_batch)

    def test_baseline_generators_identical_across_backends(self):
        dag_name = algorithm_names()[0]
        targets = [
            CompileTarget(
                build_algorithm(dag_name), image_width=W, image_height=H, generator=gen
            )
            for gen in ("darkroom", "soda", "fixynn")
        ]
        inline_batch, thread_batch = _inline_and_thread(targets)
        assert _rows(inline_batch) == _rows(thread_batch)
        for ours, theirs in zip(thread_batch.results, inline_batch.results):
            assert (
                ours.accelerator.schedule.start_cycles
                == theirs.accelerator.schedule.start_cycles
            )
            for name, config in theirs.accelerator.schedule.line_buffers.items():
                assert (
                    ours.accelerator.schedule.line_buffers[name].to_payload()
                    == config.to_payload()
                )

    def test_coalescing_fallback_identical_across_backends(self):
        """The two-solve auto-coalescing path agrees across backends."""
        target = CompileTarget(
            build_algorithm("unsharp-m"), image_width=W, image_height=H
        ).with_options(coalescing=True)
        inline_batch, thread_batch = _inline_and_thread([target])
        theirs, ours = inline_batch.results[0], thread_batch.results[0]
        assert ours.ok and theirs.ok
        assert ours.accelerator.schedule.generator == theirs.accelerator.schedule.generator
        assert ours.accelerator.metadata["schedule_fingerprints"] == (
            theirs.accelerator.metadata["schedule_fingerprints"]
        )
        assert accelerator_report(ours.accelerator).row() == accelerator_report(
            theirs.accelerator
        ).row()


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
