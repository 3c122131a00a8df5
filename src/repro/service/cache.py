"""Two-tier compile cache: in-memory LRU backed by an optional disk store.

Stability: public.

The cache's unit of storage is a solved :class:`PipelineSchedule`, keyed by
the content fingerprint of the :class:`repro.api.CompileTarget` that produced
it (:func:`repro.api.fingerprint.compile_fingerprint`).  The entry under a
fingerprint is the schedule ``compile_pipeline`` returns for that target:
for an +LC target under the auto policy that is the schedule it keeps, the
coalesced solve or its relabelled plain twin, never a raw coalesced solve
the policy dropped.  The plain twin has its own entry, so a later plain
compile of the same pipeline reuses it.

Fingerprints are generator-aware, so baseline designs (Darkroom/SODA/FixyNN)
are cached exactly like optimized ones — in both tiers.  ImaGen-generated
disk entries hold just the solver's decisions (start cycles and coalescing
factors) plus the request geometry: their physical line-buffer configurations
are re-derived on load through
:func:`repro.core.scheduler.realize_line_buffers`, which is a pure function of
those decisions, so the payloads stay small and always match what the
allocator would produce today.  Baseline schedules use FIFO chains, dummy
relay stages and other structures the allocator cannot re-derive, so their
payloads embed the full line-buffer configurations instead
(:meth:`repro.memory.linebuffer.LineBufferConfig.to_payload`).  Either way, a
round-tripped schedule produces bit-identical area and power reports.

The disk store shards entries into two-hex-char fingerprint-prefix
subdirectories (``ab/abcd....json``) so large shared cache volumes never hit
flat-directory limits.  Shared volumes can be bounded with
``DiskCacheStore(max_bytes=..., max_age_seconds=...)``: least-recently-used
entries (by file mtime — loads refresh it) are evicted whenever a save would
exceed the bound.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

from repro.api.target import CompileTarget
from repro.core.schedule import PipelineSchedule
from repro.core.scheduler import realize_line_buffers
from repro.ir.dag import PipelineDAG
from repro.memory.linebuffer import LineBufferConfig
from repro.memory.spec import MemorySpec
from repro.service.events import emit_event
from repro.trace import span_attr, trace_span

#: Bump when the serialized payload layout or meaning changes; entries of any
#: other version are misses, re-solved and rewritten.  Version 3 dropped the
#: ``ports`` field (the memory spec's count is the only one) and stores an +LC
#: auto target's kept schedule, where v1/v2 entries hold its raw coalesced
#: solve, so they are not read.
SCHEDULE_FORMAT_VERSION = 3

#: Result source markers shared with the engine's per-request accounting.
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"
SOURCE_SOLVER = "solver"

#: Schedule generators whose line buffers :func:`realize_line_buffers` can
#: re-derive from the solver decisions alone; other generators' payloads must
#: embed the full configurations.
REALIZABLE_GENERATORS = ("imagen", "imagen+lc")


# ---------------------------------------------------------------------------
# Schedule (de)serialization
# ---------------------------------------------------------------------------
def serialize_schedule(schedule: PipelineSchedule) -> dict:
    """Flatten a solved schedule into a JSON-serializable payload.

    The physical line-buffer configurations are embedded verbatim only for
    schedules the allocator cannot re-derive (baseline generators).
    """
    stats = {
        key: value
        for key, value in schedule.solver_stats.items()
        if isinstance(value, (str, int, float, bool)) or value is None
    }
    payload = {
        "version": SCHEDULE_FORMAT_VERSION,
        "image_width": schedule.image_width,
        "image_height": schedule.image_height,
        "memory_spec": {
            "name": schedule.memory_spec.name,
            "block_bits": schedule.memory_spec.block_bits,
            "ports": schedule.memory_spec.ports,
            "pixel_bits": schedule.memory_spec.pixel_bits,
            "style": schedule.memory_spec.style,
            "allow_coalescing": schedule.memory_spec.allow_coalescing,
        },
        "generator": schedule.generator,
        "start_cycles": dict(schedule.start_cycles),
        "coalesce_factors": dict(schedule.coalesce_factors),
        "solver_stats": stats,
    }
    if schedule.generator not in REALIZABLE_GENERATORS:
        payload["line_buffers"] = {
            name: config.to_payload() for name, config in schedule.line_buffers.items()
        }
    return payload


def deserialize_schedule(payload: dict, dag: PipelineDAG) -> PipelineSchedule:
    """Rebuild a schedule from :func:`serialize_schedule` output.

    The caller supplies the pipeline DAG (cache keys already guarantee it is
    structurally identical to the one that was compiled).  Payloads embedding
    explicit ``line_buffers`` restore them verbatim; decisions-only payloads
    re-derive them through :func:`realize_line_buffers`, which keeps ImaGen
    entries small and guarantees they match what the allocator would produce
    today.
    """
    if payload.get("version") != SCHEDULE_FORMAT_VERSION:
        raise ValueError(f"Unsupported schedule payload version {payload.get('version')!r}")
    memory_spec = MemorySpec(**payload["memory_spec"])
    start_cycles = {name: int(cycle) for name, cycle in payload["start_cycles"].items()}
    factors = {name: int(f) for name, f in payload["coalesce_factors"].items()}
    generator = payload["generator"]
    if "line_buffers" in payload:
        line_buffers = {
            name: LineBufferConfig.from_payload(config)
            for name, config in payload["line_buffers"].items()
        }
    elif generator in REALIZABLE_GENERATORS:
        line_buffers = realize_line_buffers(
            dag,
            int(payload["image_width"]),
            memory_spec,
            start_cycles,
            factors,
            memory_spec.ports,
        )
    else:
        raise ValueError(
            f"Schedule payload for generator {generator!r} carries no line "
            "buffers and cannot be re-derived"
        )
    return PipelineSchedule(
        dag=dag,
        image_width=int(payload["image_width"]),
        image_height=int(payload["image_height"]),
        memory_spec=memory_spec,
        start_cycles=start_cycles,
        line_buffers=line_buffers,
        generator=generator,
        coalesce_factors=factors,
        solver_stats=dict(payload["solver_stats"]),
    )


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------
def _unlink_quietly(path: Path) -> None:
    """Remove a cache entry, tolerating concurrent evictors and odd volumes."""
    try:
        path.unlink(missing_ok=True)
    except OSError:
        pass


class DiskCacheStore:
    """Sharded directory of JSON files, one per fingerprint.

    Entries live under two-hex-char fingerprint-prefix subdirectories
    (``<dir>/ab/abcd....json``) so shared cache volumes with many thousands of
    entries never stress flat-directory lookups.

    Writes go through a temp file + rename so concurrent readers never see a
    half-written entry; unreadable or stale entries degrade to cache misses.

    Parameters
    ----------
    max_bytes:
        When set, the total size of all entries is kept at or below this
        bound: every save evicts least-recently-used entries (oldest mtime
        first; successful loads refresh an entry's mtime) until the volume
        fits.  The bound holds even when many writers share the volume —
        each enforces it after its own write, and concurrent unlink races
        degrade to no-ops.
    max_age_seconds:
        When set, entries whose mtime is older than this are evicted by a
        sweep that runs on save, amortized to at most one per
        ``min(max_age_seconds, 60)`` seconds per writer (an age bound is
        advisory, unlike ``max_bytes``, which is re-verified on every save).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_age_seconds is not None and max_age_seconds <= 0:
            raise ValueError(f"max_age_seconds must be > 0, got {max_age_seconds}")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.max_age_seconds = max_age_seconds
        # Age-only sweeps are amortized on a timer; see _maybe_collect_garbage.
        self._gc_lock = threading.Lock()
        self._last_age_sweep = float("-inf")
        self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def bounded(self) -> bool:
        """Whether any size/age bound is configured (GC runs on save)."""
        return self.max_bytes is not None or self.max_age_seconds is not None

    def path_for(self, fingerprint: str) -> Path:
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> dict | None:
        path = self.path_for(fingerprint)
        with trace_span("disk_read"):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                span_attr(hit=False)
                return None
            if self.bounded:
                # Refresh the mtime so the LRU-by-mtime GC sees hot entries
                # as recently used, not as old as their write time.
                try:
                    os.utime(path)
                except OSError:
                    pass  # a concurrent eviction won the race; the read stands
            span_attr(hit=True)
            return payload

    def save(self, fingerprint: str, payload: dict) -> bool:
        """Persist one entry; returns ``False`` when the write failed.

        The temp name is unique per writer (``mkstemp`` in the shard
        directory): several processes sharing one cache volume may save the
        same fingerprint concurrently, and a shared temp path would let their
        writes interleave and rename corrupt JSON into place.
        """
        path = self.path_for(fingerprint)
        tmp: Path | None = None
        with trace_span("disk_write"):
            try:
                # Non-recursive mkdir: if the store's base directory disappeared,
                # degrade to a failed write instead of silently recreating it.
                path.parent.mkdir(exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(
                    prefix=f"{fingerprint}.", suffix=".tmp", dir=path.parent
                )
                tmp = Path(tmp_name)
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                tmp.replace(path)
            except OSError:
                if tmp is not None:
                    tmp.unlink(missing_ok=True)
                span_attr(ok=False)
                return False
            if self.bounded:
                self._maybe_collect_garbage()
            span_attr(ok=True)
        return True

    def _maybe_collect_garbage(self) -> None:
        """Decide whether this save must pay for a volume scan.

        ``max_bytes`` is a *hard* bound shared by writers that cannot see
        each other, so every byte-bounded save re-verifies it with a scan —
        a cheaper per-writer size estimate cannot rule out another process
        having consumed the same headroom.  The scan is stat-only (no entry
        is read) and O(entries); deployments for which that is too dear per
        solve should prefer an age bound, which is advisory by nature and
        therefore amortized here to at most one sweep per
        ``min(max_age_seconds, 60)`` seconds per writer.
        """
        if self.max_bytes is not None:
            self._collect_garbage()
            return
        interval = min(self.max_age_seconds, 60.0)
        with self._gc_lock:
            due = time.monotonic() - self._last_age_sweep >= interval
        if due:
            self._collect_garbage()

    def _collect_garbage(self) -> None:
        """Evict entries until the store fits its size/age bounds.

        Strictly oldest-mtime-first, *including* the entry just written: if a
        single entry alone exceeds ``max_bytes`` the bound still wins and the
        entry degrades to a future cache miss.  Stat/unlink failures are
        treated as "another writer already evicted it" — the routine is run
        concurrently by every process sharing the volume.
        """
        entries = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest mtime first == least recently used first
        evicted = 0
        survivors = []
        if self.max_age_seconds is not None:
            deadline = time.time() - self.max_age_seconds
            for entry in entries:
                if entry[0] < deadline:
                    _unlink_quietly(entry[2])
                    evicted += 1
                else:
                    survivors.append(entry)
            entries = survivors
        remaining = sum(size for _, size, _ in entries)
        if self.max_bytes is not None:
            for _, size, path in entries:
                if remaining <= self.max_bytes:
                    break
                _unlink_quietly(path)
                evicted += 1
                remaining -= size
        with self._gc_lock:
            self._last_age_sweep = time.monotonic()
        emit_event(
            "cache.gc",
            evicted=evicted,
            remaining_bytes=remaining,
            directory=str(self.directory),
        )

    def total_bytes(self) -> int:
        """Current total size of all entries."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def _entry_paths(self) -> list[Path]:
        return list(self.directory.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self._entry_paths())

    def clear(self) -> None:
        # Stray temp files from writers that died mid-save are swept up too.
        for pattern in ("??/*.json", "??/*.tmp"):
            for path in list(self.directory.glob(pattern)):
                path.unlink(missing_ok=True)


@dataclass
class CacheStats:
    """Counters describing cache behaviour since construction (or clear)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    disk_hits: int = 0
    disk_stores: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "hit_rate": round(self.hit_rate, 4),
        }


class CompileCache:
    """Thread-safe LRU of solved schedules with an optional disk tier.

    ``hits`` counts both tiers (a disk hit is also counted in ``disk_hits``
    and promotes the entry into memory).  All methods are safe to call from
    the engine's worker threads.
    """

    def __init__(self, max_entries: int = 256, store: DiskCacheStore | None = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        self.stats = CacheStats()
        self._entries: OrderedDict[str, PipelineSchedule] = OrderedDict()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ reads
    def fetch(self, target: CompileTarget) -> tuple[PipelineSchedule | None, str, str]:
        """Look up one target; returns ``(schedule | None, source, fingerprint)``.

        ``source`` is :data:`SOURCE_MEMORY`, :data:`SOURCE_DISK`, or
        :data:`SOURCE_SOLVER` (meaning: not cached, the caller must solve).
        """
        fingerprint = target.fingerprint  # memoized on the target
        with trace_span("cache"):
            with self._lock:
                schedule = self._entries.get(fingerprint)
                if schedule is not None:
                    self._entries.move_to_end(fingerprint)
                    self.stats.hits += 1
                    span_attr(tier=SOURCE_MEMORY)
                    return schedule, SOURCE_MEMORY, fingerprint
            if self.store is not None:
                payload = self.store.load(fingerprint)
                if payload is not None:
                    try:
                        schedule = deserialize_schedule(payload, target.dag)
                    except Exception:
                        # Any malformed, stale, or version-skewed entry (bad spec
                        # fields, missing stages, ...) degrades to a cache miss.
                        schedule = None
                    if schedule is not None:
                        with self._lock:
                            self._insert(fingerprint, schedule)
                            self.stats.hits += 1
                            self.stats.disk_hits += 1
                        span_attr(tier=SOURCE_DISK)
                        return schedule, SOURCE_DISK, fingerprint
            with self._lock:
                self.stats.misses += 1
            span_attr(tier="miss")
            return None, SOURCE_SOLVER, fingerprint

    # ----------------------------------------------------------------- writes
    def put(self, fingerprint: str, schedule: PipelineSchedule) -> None:
        """Record a freshly solved schedule under its fingerprint.

        Every generator's schedules persist to the disk tier when one is
        configured: ImaGen schedules as decisions-only payloads, baselines
        with their full line-buffer configurations embedded (see
        :func:`serialize_schedule`).
        """
        with self._lock:
            self._insert(fingerprint, schedule)
            self.stats.stores += 1
        if self.store is not None:
            if self.store.save(fingerprint, serialize_schedule(schedule)):
                with self._lock:
                    self.stats.disk_stores += 1

    def _insert(self, fingerprint: str, schedule: PipelineSchedule) -> None:
        self._entries[fingerprint] = schedule
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------ admin
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def clear(self, *, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()
        if disk and self.store is not None:
            self.store.clear()
