"""Unit tests for the engine's asyncio serving front.

No pytest-asyncio in the toolchain: each test drives its coroutine with
``asyncio.run``, which is all a serving layer needs anyway.
"""

import asyncio
import time

import pytest

from repro.api import CompileTarget
from repro.service import CompileEngine

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


def _target(dag=None, **kwargs) -> CompileTarget:
    return CompileTarget(dag or build_paper_example(), image_width=W, image_height=H, **kwargs)


@pytest.fixture
def engine():
    # Thread backend pinned: these tests assert in-process semantics (shared
    # schedule objects, pool saturation via the executor's thread pool).
    engine = CompileEngine(workers=2, executor="thread")
    yield engine
    engine.shutdown()


class TestSubmitAsync:
    def test_result_identical_to_sync_submit(self, engine):
        target = _target()
        sync_result = engine.submit(target)

        async def run():
            return await engine.submit_async(target)

        async_result = asyncio.run(run())
        assert async_result.ok
        assert async_result.fingerprint == sync_result.fingerprint
        assert async_result.source == "memory"  # the sync call warmed the cache
        sync_schedule = sync_result.accelerator.schedule
        assert async_result.accelerator.schedule is sync_schedule

    def test_error_captured_not_raised(self, engine):
        async def run():
            return await engine.submit_async(_target(build_chain(3)).with_resolution(1, H))

        result = asyncio.run(run())
        assert not result.ok
        assert "SchedulingError" in result.error
        assert engine.metrics.errors == 1

    def test_does_not_block_the_event_loop(self, engine):
        """A compile awaited on the pool lets other coroutines run meanwhile."""
        ticks = []

        async def ticker():
            while True:
                ticks.append(time.perf_counter())
                await asyncio.sleep(0)

        async def run():
            tick_task = asyncio.ensure_future(ticker())
            try:
                return await engine.submit_async(_target())
            finally:
                tick_task.cancel()

        result = asyncio.run(run())
        assert result.ok
        assert len(ticks) > 1  # the loop kept turning during the solve


class TestSubmitBatchAsync:
    def test_batch_equals_sync_batch(self):
        """Acceptance: await submit_batch_async == submit_batch for the same targets."""
        targets = [
            _target(build_chain(3), label="a"),
            _target(build_chain(4), label="b"),
            _target(build_chain(3), label="c"),  # duplicate of "a"
            _target().with_options(coalescing=True),
        ]
        with CompileEngine(workers=2, executor="thread") as sync_engine:
            sync_batch = sync_engine.submit_batch(targets)

        async def run():
            async with CompileEngine(workers=2, executor="thread") as async_engine:
                return await async_engine.submit_batch_async(targets)

        async_batch = asyncio.run(run())
        assert len(async_batch) == len(sync_batch)
        assert [r.target.label for r in async_batch] == [r.target.label for r in sync_batch]
        assert [r.fingerprint for r in async_batch] == [r.fingerprint for r in sync_batch]
        assert [r.source for r in async_batch] == [r.source for r in sync_batch]
        for async_result, sync_result in zip(async_batch.results, sync_batch.results):
            assert async_result.ok and sync_result.ok
            async_schedule = async_result.accelerator.schedule
            sync_schedule = sync_result.accelerator.schedule
            assert async_schedule.start_cycles == sync_schedule.start_cycles
            assert (
                async_schedule.total_allocated_bits == sync_schedule.total_allocated_bits
            )

    def test_in_batch_dedup_shares_one_execution(self, engine):
        targets = [_target(build_chain(3)), _target(build_chain(3))]

        async def run():
            return await engine.submit_batch_async(targets)

        batch = asyncio.run(run())
        sources = sorted(r.source for r in batch.results)
        assert sources == ["deduplicated", "solver"]
        assert batch.results[0].accelerator.schedule is batch.results[1].accelerator.schedule
        assert engine.metrics.deduplicated == 1

    def test_batch_cancel_on_engine_shutdown(self, engine):
        """Acceptance: pending async jobs are cancelled by shutdown(cancel_pending=True)."""

        async def run():
            # Saturate the 2-thread pool so the batch stays queued behind it.
            pool = engine._flight.executor._ensure_pool()
            release = __import__("threading").Event()
            for _ in range(engine.workers):
                pool.submit(release.wait)
            try:
                pending = asyncio.ensure_future(
                    engine.submit_batch_async([_target(build_chain(3))])
                )
                await asyncio.sleep(0.01)  # let the batch enqueue behind the blockers
                engine.shutdown(wait=False, cancel_pending=True)
                with pytest.raises(asyncio.CancelledError):
                    await pending
            finally:
                release.set()

        asyncio.run(run())
        # The cancelled job never ran: no result was recorded.
        assert engine.metrics.requests == 0


class TestAsyncContextManager:
    def test_aenter_returns_engine_and_aexit_shuts_down(self):
        async def run():
            async with CompileEngine(workers=2, executor="thread") as engine:
                result = await engine.submit_async(_target(build_chain(3)))
                assert result.ok
                return engine

        engine = asyncio.run(run())
        assert engine._flight.executor._pool is None  # pool released by __aexit__

    def test_sync_and_async_share_cache(self):
        async def run():
            async with CompileEngine(workers=2, executor="thread") as engine:
                await engine.submit_async(_target())
                hits_before = engine.cache.stats.hits
                engine.submit(_target())  # sync path, same cache
                return engine.cache.stats.hits - hits_before

        assert asyncio.run(run()) == 1
