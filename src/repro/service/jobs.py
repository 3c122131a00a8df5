"""Typed job records for the compilation service.

Stability: public.

The engine's unit of work is a :class:`repro.api.CompileTarget`; a
:class:`CompileResult` carries the target it answered plus either the compiled
accelerator or a captured error, so that one infeasible design point never
aborts a batch or a DSE sweep.  :class:`BatchResult` aggregates a batch
submission with its cache statistics and wall-clock time, and
:func:`derive_source` classifies where a compiled design came from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.api.target import CompileTarget
from repro.core.compiler import CompiledAccelerator
from repro.errors import ReproError
from repro.service.cache import CacheStats
from repro.trace import Span


class CompileStatus(enum.Enum):
    """Terminal state of one compile job."""

    OK = "ok"
    ERROR = "error"


#: Where a result came from: ``"memory"``/``"disk"`` (cache tiers),
#: ``"solver"`` (at least one fresh generator run), ``"deduplicated"``
#: (shared with an identical in-flight request), or ``"rejected"`` (shed by
#: the engine's bounded admission queue — the job never ran).
SOURCE_DEDUPLICATED = "deduplicated"
SOURCE_REJECTED = "rejected"


def rejected_result(target: CompileTarget, reason: str) -> CompileResult:
    """An error-carrying result for a job the admission queue shed.

    Batch submissions report shed design points this way — in their slots,
    with ``source="rejected"`` and zero latency — so a saturated engine
    degrades item-by-item exactly like an infeasible design point does.
    """
    return CompileResult(
        target=target,
        fingerprint=target.fingerprint,
        error=reason,
        source=SOURCE_REJECTED,
        seconds=0.0,
    )


@dataclass
class CompileResult:
    """Outcome of one compile job, successful or not."""

    target: CompileTarget
    fingerprint: str = ""
    accelerator: CompiledAccelerator | None = None
    error: str | None = None
    source: str = "solver"
    seconds: float = 0.0
    #: Stage spans (:class:`repro.trace.Span`) recorded while the job ran;
    #: empty when tracing is disabled or the job never ran (rejected).
    spans: tuple[Span, ...] = ()

    @property
    def status(self) -> CompileStatus:
        return CompileStatus.OK if self.error is None else CompileStatus.ERROR

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def from_cache(self) -> bool:
        return self.source in ("memory", "disk")

    def unwrap(self) -> CompiledAccelerator:
        """The accelerator, or a :class:`ReproError` describing the failure."""
        if self.accelerator is None:
            raise ReproError(
                f"Compilation of {self.target.display_label!r} failed: {self.error}"
            )
        return self.accelerator


@dataclass
class BatchResult:
    """Results of one batch submission, in request order."""

    results: list[CompileResult]
    seconds: float = 0.0
    cache_stats: CacheStats | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def ok_results(self) -> list[CompileResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> list[CompileResult]:
        return [r for r in self.results if not r.ok]

    @property
    def accelerators(self) -> list[CompiledAccelerator]:
        """Accelerators of the successful jobs, in request order."""
        return [r.accelerator for r in self.results if r.accelerator is not None]

    def raise_on_error(self) -> "BatchResult":
        """Raise a :class:`ReproError` summarizing failures, if any."""
        failures = self.failures
        if failures:
            summary = "; ".join(
                f"{f.target.display_label!r}: {f.error}" for f in failures[:5]
            )
            more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
            raise ReproError(f"{len(failures)}/{len(self.results)} compile jobs failed: {summary}{more}")
        return self


def derive_source(accelerator: CompiledAccelerator) -> str:
    """Classify where a compiled design came from.

    A compile may consult the cache more than once (the auto-coalescing
    fallback runs two solves): the result counts as cached only when *every*
    consulted source was a cache tier, and as ``"disk"`` only when the disk
    tier was actually touched.
    """
    sources = accelerator.metadata.get("schedule_sources", ("solver",))
    if all(source in ("memory", "disk") for source in sources):
        return "disk" if "disk" in sources else "memory"
    return "solver"
