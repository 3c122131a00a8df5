"""Stress tests for concurrent writers on one shared disk-cache volume.

Regression for the shared-temp-path corruption bug: every writer of a
fingerprint used to stage its JSON at the *same* ``<fp>.tmp`` path, so two
processes (or threads — the file writes drop the GIL) could interleave their
writes and atomically rename corrupt JSON into place.  With per-writer
``mkstemp`` temp files, every rename publishes one writer's complete payload
and every concurrent load parses.
"""

import json
import multiprocessing
import threading

import pytest

from repro.service.cache import DiskCacheStore

#: One well-formed sharded fingerprint all writers fight over.
FINGERPRINT = "ab" + "0" * 62

#: Payloads are multi-kilobyte and writer-specific in size, so interleaved
#: writes from two writers produce either invalid JSON or a blob whose length
#: does not match its "writer" field — both detectable below.
def _payload(writer_id: int) -> dict:
    return {"writer": writer_id, "blob": "x" * (20_000 + writer_id * 1_009)}


def _write_many(directory: str, writer_id: int, iterations: int) -> None:
    store = DiskCacheStore(directory)
    payload = _payload(writer_id)
    for _ in range(iterations):
        store.save(FINGERPRINT, payload)


def _check(payload: dict) -> None:
    assert payload["blob"] == _payload(payload["writer"])["blob"]


class TestConcurrentSameFingerprintWrites:
    def test_threads_and_second_process_never_publish_corrupt_json(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method for an in-repo child process")
        iterations = 60
        store = DiskCacheStore(tmp_path)
        process = multiprocessing.get_context("fork").Process(
            target=_write_many, args=(str(tmp_path), 9, iterations)
        )
        threads = [
            threading.Thread(target=_write_many, args=(str(tmp_path), i, iterations))
            for i in range(3)
        ]
        process.start()
        for thread in threads:
            thread.start()

        # Read continuously while the writers race: every observed entry must
        # be one writer's complete payload.
        entry = store.path_for(FINGERPRINT)
        observed = 0
        try:
            while process.is_alive() or any(t.is_alive() for t in threads):
                try:
                    text = entry.read_text(encoding="utf-8")
                except FileNotFoundError:
                    continue
                _check(json.loads(text))  # raises on interleaved/corrupt writes
                observed += 1
        finally:
            for thread in threads:
                thread.join(timeout=30)
            process.join(timeout=30)
        assert observed > 0

        # The final state parses too, through the store's own reader.
        final = store.load(FINGERPRINT)
        assert final is not None
        _check(final)
        # No temp litter left behind by any of the 4 * iterations saves.
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_concurrent_writers_leave_exactly_one_entry(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        threads = [
            threading.Thread(target=_write_many, args=(str(tmp_path), i, 20))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(store) == 1


def _write_many_bounded(
    directory: str, writer_id: int, iterations: int, max_bytes: int
) -> None:
    store = DiskCacheStore(directory, max_bytes=max_bytes)
    payload = _payload(writer_id)
    for iteration in range(iterations):
        # Spread writes over many fingerprints so eviction has real work.
        fingerprint = f"{(writer_id * iterations + iteration) % 97:02x}" + "f" * 62
        store.save(fingerprint, payload)


class TestBoundedStoreUnderConcurrency:
    """Acceptance: a ``max_bytes`` bound holds under the multi-writer stress."""

    MAX_BYTES = 120_000  # a handful of the ~21 KB payloads

    def test_bound_never_exceeded_by_racing_writers(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method for an in-repo child process")
        iterations = 40
        store = DiskCacheStore(tmp_path, max_bytes=self.MAX_BYTES)
        process = multiprocessing.get_context("fork").Process(
            target=_write_many_bounded, args=(str(tmp_path), 9, iterations, self.MAX_BYTES)
        )
        threads = [
            threading.Thread(
                target=_write_many_bounded,
                args=(str(tmp_path), i, iterations, self.MAX_BYTES),
            )
            for i in range(3)
        ]
        process.start()
        for thread in threads:
            thread.start()
        try:
            # Sample the volume continuously while the writers race.  A save
            # is (write, then GC), so a probe may catch each writer's latest
            # entry before its own GC pass — never more than the bound plus
            # one in-flight entry per concurrent writer.
            slack = 4 * 25_000  # 4 writers x one ~21 KB payload, rounded up
            while process.is_alive() or any(t.is_alive() for t in threads):
                assert store.total_bytes() <= self.MAX_BYTES + slack
        finally:
            for thread in threads:
                thread.join(timeout=60)
            process.join(timeout=60)
        # Once the dust settles the bound holds exactly.
        assert store.total_bytes() <= self.MAX_BYTES
        assert len(store) > 0
        # Every surviving entry parses (eviction never corrupts neighbours).
        for path in tmp_path.rglob("*.json"):
            _check(json.loads(path.read_text(encoding="utf-8")))

    def test_age_bound_evicts_stale_entries(self, tmp_path):
        import time

        store = DiskCacheStore(tmp_path, max_age_seconds=0.2)
        store.save("aa" + "0" * 62, {"writer": 1})
        time.sleep(0.3)
        store.save("bb" + "0" * 62, {"writer": 2})
        assert store.load("aa" + "0" * 62) is None
        assert store.load("bb" + "0" * 62) is not None

    def test_lru_eviction_prefers_recently_loaded_entries(self, tmp_path):
        import os
        import time

        store = DiskCacheStore(tmp_path, max_bytes=3_000)
        old, hot, new = ("aa" + "0" * 62, "bb" + "0" * 62, "cc" + "0" * 62)
        payload = {"blob": "x" * 1_000}
        store.save(old, payload)
        store.save(hot, payload)
        # Backdate both, then touch `hot` via a load: mtime refresh must make
        # the unloaded `old` the eviction victim.
        past = time.time() - 3_600
        for fingerprint in (old, hot):
            os.utime(store.path_for(fingerprint), (past, past))
        assert store.load(hot) is not None
        store.save(new, payload)
        assert store.load(old) is None
        assert store.load(hot) is not None
        assert store.load(new) is not None

    def test_single_oversized_entry_is_evicted_rather_than_kept(self, tmp_path):
        store = DiskCacheStore(tmp_path, max_bytes=1_000)
        assert store.save("aa" + "0" * 62, {"blob": "x" * 5_000})
        assert store.total_bytes() <= 1_000  # the bound wins, entry and all

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCacheStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError):
            DiskCacheStore(tmp_path, max_age_seconds=-1)

    def test_unbounded_store_never_scans_on_save(self, tmp_path, monkeypatch):
        store = DiskCacheStore(tmp_path)
        monkeypatch.setattr(
            DiskCacheStore,
            "_collect_garbage",
            lambda self: (_ for _ in ()).throw(AssertionError("GC ran unbounded")),
        )
        assert store.save(FINGERPRINT, {"writer": 0})


class TestClear:
    def test_clear_sweeps_stale_temp_files(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.save(FINGERPRINT, {"tier": "sharded"})
        # A writer that died mid-save leaves its unique temp file behind.
        (store.path_for(FINGERPRINT).parent / f"{FINGERPRINT}.dead123.tmp").write_text(
            "{", encoding="utf-8"
        )
        store.clear()
        assert list(tmp_path.rglob("*")) == [store.path_for(FINGERPRINT).parent]


class TestEntryAccounting:
    """Only sharded ``<dir>/<2 hex>/<fingerprint>.json`` entries belong to the store."""

    def test_len_counts_each_fingerprint_once(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.save(FINGERPRINT, {"writer": 0})
        store.save(FINGERPRINT, {"writer": 1})
        assert len(store) == 1
        assert store.total_bytes() == store.path_for(FINGERPRINT).stat().st_size
        assert store.load(FINGERPRINT) == {"writer": 1}

    def test_flat_files_are_neither_read_counted_nor_cleared(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        flat = tmp_path / f"{FINGERPRINT}.json"
        flat.write_text(json.dumps({"tier": "flat"}), encoding="utf-8")
        assert store.load(FINGERPRINT) is None
        assert len(store) == 0 and store.total_bytes() == 0
        store.save(FINGERPRINT, {"tier": "sharded"})
        assert store.load(FINGERPRINT) == {"tier": "sharded"}
        store.clear()
        assert len(store) == 0
        assert flat.exists()

    def test_gc_budget_ignores_flat_files(self, tmp_path):
        store = DiskCacheStore(tmp_path, max_bytes=3_000)
        flat = tmp_path / f"{FINGERPRINT}.json"
        flat.write_text(json.dumps({"blob": "x" * 10_000}), encoding="utf-8")
        assert store.save("aa" + "0" * 62, {"blob": "x" * 1_000})
        # The oversized flat file neither counts against the bound nor is evicted.
        assert store.load("aa" + "0" * 62) is not None
        assert flat.exists()
