"""Unit tests for the structured engine-internal event log."""

import io
import json
import threading

import pytest

from repro.api import CompileTarget
from repro.service import CompileEngine, QueueFullError, VerifyEngine, VerifyRequest
from repro.service.cache import DiskCacheStore, serialize_schedule
from repro.service.events import EventLog, configure_event_log, get_event_log

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain

W, H = TEST_WIDTH, TEST_HEIGHT


@pytest.fixture
def clean_default_log():
    """Isolate each test from the process-wide ring and stream settings."""
    log = get_event_log()
    log.clear()
    yield log
    configure_event_log(enabled=False)
    log.clear()


class TestEventLog:
    def test_ring_records_without_stream(self):
        log = EventLog(enabled=False, clock=lambda: 1000.0)
        log.emit("cache.gc", evicted=3, remaining_bytes=0, directory="d")
        records = log.recent("cache.gc")
        assert records == [
            {
                "ts": 1000.0,
                "event": "cache.gc",
                "identity": "",
                "evicted": 3,
                "remaining_bytes": 0,
                "directory": "d",
            }
        ]
        assert log.emitted_total == 1

    def test_stream_gets_json_lines_when_enabled(self):
        stream = io.StringIO()
        log = EventLog(stream, enabled=True)
        log.emit("queue.shed", identity="alice", fingerprint="abc123", retry_after=0.5)
        record = json.loads(stream.getvalue())
        assert record["event"] == "queue.shed"
        assert record["identity"] == "alice"
        assert record["fingerprint"] == "abc123"
        assert record["retry_after"] == 0.5

    def test_disabled_log_writes_nothing(self):
        stream = io.StringIO()
        log = EventLog(stream, enabled=False)
        log.emit("cache.gc", evicted=2, remaining_bytes=0, directory="/tmp/x")
        assert stream.getvalue() == ""
        assert len(log.recent()) == 1

    def test_fingerprint_omitted_when_empty(self):
        log = EventLog(enabled=False)
        record = log.emit("cache.gc", evicted=1, remaining_bytes=0, directory="d")
        assert "fingerprint" not in record

    def test_ring_is_bounded(self):
        log = EventLog(enabled=False, ring_size=4)
        for index in range(10):
            log.emit("e", index=index)
        records = log.recent()
        assert len(records) == 4
        assert records[0]["index"] == 6

    def test_recent_filters_by_event(self):
        log = EventLog(enabled=False)
        log.emit("a")
        log.emit("b")
        assert [r["event"] for r in log.recent("b")] == ["b"]

    def test_configure_default_log(self, clean_default_log):
        stream = io.StringIO()
        log = configure_event_log(enabled=True, stream=stream)
        assert log is get_event_log()
        log.emit("cache.gc", evicted=0, remaining_bytes=10, directory="d")
        assert json.loads(stream.getvalue())["event"] == "cache.gc"


class TestEngineEventWiring:
    @pytest.mark.parametrize("kind", ["compile", "verify"])
    def test_queue_shed_emits_event(self, clean_default_log, kind):
        from concurrent.futures import Future

        engine = CompileEngine(workers=1, max_pending=1)
        target = CompileTarget(build_chain(2), image_width=W, image_height=H)
        if kind == "compile":
            submit, request = engine.submit, target
        else:
            submit, request = VerifyEngine(engine).submit, VerifyRequest(target)
        # Hold the one worker on a gated job, and fill the one queue slot
        # behind it.
        held, release = threading.Event(), threading.Event()
        for job in (lambda: held.set() or release.wait(30), lambda: None):
            engine._queue.submit(Future(), job, client="hog")
            assert held.wait(10)
        with pytest.raises(QueueFullError):
            submit(request, client="alice")
        events = clean_default_log.recent("queue.shed")
        release.set()
        engine.shutdown()
        assert events
        assert events[-1]["identity"] == "alice"
        assert events[-1]["retry_after"] >= 0

    def test_cache_gc_emits_event(self, clean_default_log, tmp_path):
        from repro.core.compiler import compile_pipeline

        store = DiskCacheStore(tmp_path, max_bytes=1)  # everything is over budget
        schedule = compile_pipeline(
            CompileTarget(build_chain(2), image_width=W, image_height=H),
        ).schedule
        store.save("fp-old", serialize_schedule(schedule))
        store.save("fp-new", serialize_schedule(schedule))
        events = clean_default_log.recent("cache.gc")
        assert events
        assert events[-1]["directory"] == str(tmp_path)
        assert events[-1]["evicted"] >= 1

    def test_pool_solves_emit_cache_gc_events(self, clean_default_log, tmp_path):
        from repro.service import CompileCache

        cache = CompileCache(store=DiskCacheStore(tmp_path, max_bytes=1))
        targets = [
            CompileTarget(build_chain(n), image_width=W, image_height=H)
            for n in (2, 3)
        ]
        with CompileEngine(workers=2, cache=cache) as engine:
            engine.submit_batch(targets).raise_on_error()
        events = clean_default_log.recent("cache.gc")
        assert events
        assert all(event["directory"] == str(tmp_path) for event in events)
