"""Unit tests for the two-tier compile cache and schedule serialization."""

import pytest

from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.core.scheduler import SchedulerOptions
from repro.memory.spec import asic_dual_port
from repro.service.cache import (
    CompileCache,
    DiskCacheStore,
    deserialize_schedule,
    serialize_schedule,
)

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT
SPEC = asic_dual_port()


def _compile(dag, cache=None, **kwargs):
    return compile_pipeline(
        CompileTarget(dag, image_width=W, image_height=H, **kwargs), cache=cache
    )


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = CompileCache()
        dag = build_paper_example()
        first = _compile(dag, cache)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        second = _compile(build_paper_example(), cache)
        assert cache.stats.hits == 1
        # The same solved schedule object is served, no re-solve happened.
        assert second.schedule is first.schedule

    def test_repeated_compile_served_from_cache_without_second_solve(self):
        cache = CompileCache()
        dag = build_chain(3)
        _compile(dag, cache)
        solves_before = cache.stats.misses
        _compile(dag, cache)
        _compile(dag, cache)
        assert cache.stats.misses == solves_before  # no new ILP solves
        assert cache.stats.hits == 2

    def test_distinct_requests_do_not_collide(self):
        cache = CompileCache()
        dag = build_chain(3)
        a = _compile(dag, cache)
        b = _compile(dag, cache, options=SchedulerOptions(ports=1))
        assert cache.stats.misses == 2
        assert a.schedule is not b.schedule

    def test_lru_eviction_and_stats(self):
        cache = CompileCache(max_entries=2)
        dags = [build_chain(n) for n in (2, 3, 4)]
        for dag in dags:
            _compile(dag, cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.stats.stores == 3
        # The oldest entry (2-stage chain) was evicted: compiling it again misses.
        misses = cache.stats.misses
        _compile(dags[0], cache)
        assert cache.stats.misses == misses + 1
        # The newest entry is still resident.
        hits = cache.stats.hits
        _compile(dags[2], cache)
        assert cache.stats.hits == hits + 1

    def test_hit_rate(self):
        cache = CompileCache()
        dag = build_chain(3)
        _compile(dag, cache)
        _compile(dag, cache)
        assert cache.stats.requests == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_clear_resets_entries_and_stats(self):
        cache = CompileCache()
        _compile(build_chain(3), cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.requests == 0


class TestSerialization:
    def test_round_trip_schedule_equality(self):
        dag = build_paper_example()
        original = _compile(dag).schedule
        restored = deserialize_schedule(serialize_schedule(original), dag)
        assert restored.start_cycles == original.start_cycles
        assert restored.coalesce_factors == original.coalesce_factors
        assert restored.generator == original.generator
        assert restored.total_allocated_bits == original.total_allocated_bits
        assert restored.total_blocks == original.total_blocks
        assert set(restored.line_buffers) == set(original.line_buffers)
        for name, config in original.line_buffers.items():
            assert restored.line_buffers[name].lines == config.lines
            assert restored.line_buffers[name].num_blocks == config.num_blocks

    def test_payload_is_json_serializable(self):
        import json

        payload = serialize_schedule(_compile(build_chain(3)).schedule)
        assert json.loads(json.dumps(payload)) == payload

    def test_version_mismatch_rejected(self):
        dag = build_chain(3)
        payload = serialize_schedule(_compile(dag).schedule)
        payload["version"] = 999
        with pytest.raises(ValueError):
            deserialize_schedule(payload, dag)


class TestDiskTier:
    def test_round_trip_reports_identical(self, tmp_path):
        dag = build_paper_example()
        warm = CompileCache(store=DiskCacheStore(tmp_path))
        first = _compile(dag, warm)
        assert warm.stats.disk_stores == 1

        # A fresh cache with an empty memory tier must be served from disk.
        cold = CompileCache(store=DiskCacheStore(tmp_path))
        second = _compile(build_paper_example(), cold)
        assert cold.stats.hits == 1 and cold.stats.disk_hits == 1
        assert cold.stats.misses == 0

        area_a, area_b = first.area_report(), second.area_report()
        power_a, power_b = first.power_report(), second.power_report()
        assert area_a.memory_mm2 == area_b.memory_mm2
        assert area_a.total_mm2 == area_b.total_mm2
        assert area_a.sram_blocks == area_b.sram_blocks
        assert power_a.memory_mw == power_b.memory_mw
        assert power_a.total_mw == power_b.total_mw

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        dag = build_chain(3)
        _compile(dag, CompileCache(store=store))
        cache = CompileCache(store=store)
        _compile(dag, cache)
        assert cache.stats.disk_hits == 1
        _compile(dag, cache)
        assert cache.stats.hits == 2
        assert cache.stats.disk_hits == 1  # second hit came from memory

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        dag = build_chain(3)
        cache = CompileCache(store=store)
        _compile(dag, cache)
        for path in store.directory.rglob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        cold = CompileCache(store=store)
        _compile(dag, cold)
        assert cold.stats.misses == 1
        assert cold.stats.hits == 0

    def test_stale_schema_disk_entry_degrades_to_miss(self, tmp_path):
        """Same format version but drifted payload fields must not crash."""
        import json

        store = DiskCacheStore(tmp_path)
        dag = build_chain(3)
        _compile(dag, CompileCache(store=store))
        for path in store.directory.rglob("*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["memory_spec"]["surprise_field"] = 1  # e.g. newer library
            path.write_text(json.dumps(payload), encoding="utf-8")
        cold = CompileCache(store=store)
        result = _compile(dag, cold)
        assert cold.stats.misses == 1 and cold.stats.hits == 0
        assert result.schedule.total_blocks > 0

    def test_failed_disk_write_not_counted_as_store(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        store.directory = tmp_path / "missing"  # writes will fail with OSError
        cache = CompileCache(store=store)
        _compile(build_chain(3), cache)
        assert cache.stats.stores == 1
        assert cache.stats.disk_stores == 0

    def test_store_len_and_clear(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        cache = CompileCache(store=store)
        _compile(build_chain(2), cache)
        _compile(build_chain(3), cache)
        assert len(store) == 2
        store.clear()
        assert len(store) == 0


class TestShardedStore:
    def test_entries_land_in_prefix_subdirectories(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        cache = CompileCache(store=store)
        _compile(build_chain(3), cache)
        entries = list(store.directory.rglob("*.json"))
        assert len(entries) == 1
        (entry,) = entries
        # <dir>/<first two hex chars>/<fingerprint>.json
        assert entry.parent.parent == store.directory
        assert entry.parent.name == entry.stem[:2]
        assert len(entry.parent.name) == 2

    def test_flat_entries_are_ignored(self, tmp_path):
        """Entries at the unsharded ``<dir>/<fingerprint>.json`` path re-solve."""
        store = DiskCacheStore(tmp_path)
        dag = build_chain(3)
        _compile(dag, CompileCache(store=store))
        (entry,) = list(store.directory.rglob("*.json"))
        entry.replace(store.directory / entry.name)
        entry.parent.rmdir()
        assert len(store) == 0
        cold = CompileCache(store=store)
        _compile(dag, cold)
        assert cold.stats.disk_hits == 0 and cold.stats.misses == 1


class TestBaselineCaching:
    def test_baseline_schedule_persists_to_disk(self, tmp_path):
        """Baselines round-trip through the disk tier like optimized designs.

        Their payloads embed the full line-buffer configurations (FIFO
        chains, DFF pixels, adapted specs) because the ImaGen allocator
        cannot re-derive them from the solver decisions.
        """
        from repro.estimate.report import accelerator_report

        store = DiskCacheStore(tmp_path)
        cache = CompileCache(store=store)
        target = CompileTarget(
            build_paper_example(), image_width=W, image_height=H, generator="darkroom"
        )
        first = compile_pipeline(target, cache=cache)
        assert cache.stats.misses == 1
        assert len(store) == 1
        assert cache.stats.disk_stores == 1

        # A fresh cache (empty memory tier) on the same volume loads it warm.
        cold = CompileCache(store=DiskCacheStore(tmp_path))
        second = compile_pipeline(target, cache=cold)
        assert cold.stats.disk_hits == 1 and cold.stats.misses == 0
        assert second.schedule.generator == "darkroom"
        assert accelerator_report(second.schedule).row() == accelerator_report(
            first.schedule
        ).row()
        for name, config in first.schedule.line_buffers.items():
            assert second.schedule.line_buffers[name].to_payload() == config.to_payload()

    @pytest.mark.parametrize("generator", ["darkroom", "soda", "fixynn"])
    def test_every_baseline_generator_round_trips(self, tmp_path, generator):
        target = CompileTarget(
            build_paper_example(), image_width=W, image_height=H, generator=generator
        )
        warm = compile_pipeline(target, cache=CompileCache(store=DiskCacheStore(tmp_path)))
        cold_cache = CompileCache(store=DiskCacheStore(tmp_path))
        cold = compile_pipeline(target, cache=cold_cache)
        assert cold_cache.stats.disk_hits == 1
        assert cold.schedule.total_allocated_bits == warm.schedule.total_allocated_bits
        assert cold.schedule.total_blocks == warm.schedule.total_blocks
        assert cold.schedule.total_dff_pixels == warm.schedule.total_dff_pixels
        assert cold.schedule.start_cycles == warm.schedule.start_cycles

    def test_baseline_and_imagen_fingerprints_do_not_collide(self):
        cache = CompileCache()
        dag = build_paper_example()
        ours = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H), cache=cache)
        fixynn = compile_pipeline(
            CompileTarget(dag, image_width=W, image_height=H, generator="fixynn"),
            cache=cache,
        )
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert ours.schedule.generator == "imagen"
        assert fixynn.schedule.generator == "fixynn"
