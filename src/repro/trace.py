"""Lightweight per-stage tracing spans with thread-local span stacks.

Stability: public.  (The service-facing surface — metric registry, stage
histograms, Prometheus exposition — lives in
:mod:`repro.service.observability`, which re-exports everything here.  This
module is deliberately stdlib-only and import-cycle-free so the hot path —
:mod:`repro.core.scheduler`, :mod:`repro.service.cache`,
:mod:`repro.rtl.generator` — can instrument
itself without pulling in the serving layer.)

The model is a conventional span tree:

* :func:`trace_span` opens one named span as a context manager; spans nest
  lexically, and each records ``{name, start, seconds, attrs}`` plus its
  children.  ``start`` is seconds since the enclosing trace began.
* :func:`span_attr` annotates the innermost open span (e.g. the flow
  kernel reports its branch count into the ``ilp`` span without the
  scheduler having to thread a handle through).
* :class:`collect_spans` activates tracing on the *current thread* and
  collects the top-level spans.  Without an active collector — the default —
  :func:`trace_span` returns a shared no-op context manager: one thread-local
  attribute read and no allocation, so instrumented code costs effectively
  nothing when nobody is tracing.

Tracing state is thread-local: each executor worker (thread or process)
collects its own tree, and the engine ships it back on the
:class:`repro.service.jobs.CompileResult`.  Collectors nest — an inner
:class:`collect_spans` shadows the outer one and restores it on exit.

The global default (honoured by the engine and by process-pool workers) is
controlled by the ``REPRO_TRACE`` environment variable:
``REPRO_TRACE=0|false|off|no`` disables tracing everywhere.

Example::

    with collect_spans() as trace:
        with trace_span("solve", coalescing=False):
            with trace_span("ilp"):
                span_attr(iterations=42)
    trace.spans  # (Span(name="solve", children=(Span(name="ilp"), ...)),)
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

#: Environment variable controlling the global tracing default.
TRACE_ENV_VAR = "REPRO_TRACE"

_FALSY = ("0", "false", "off", "no")


def default_tracing() -> bool:
    """Whether tracing is enabled by default (``REPRO_TRACE``, default on)."""
    return os.environ.get(TRACE_ENV_VAR, "").strip().lower() not in _FALSY


@dataclass(frozen=True)
class Span:
    """One completed span: a named, timed slice of a compile.

    ``start`` is seconds since the enclosing :class:`collect_spans` began;
    ``seconds`` is the span's own (inclusive) duration.  ``attrs`` carry
    JSON-serializable scalars only, so spans round-trip through the HTTP
    ``"spans"`` field losslessly.
    """

    name: str
    start: float
    seconds: float
    attrs: dict = field(default_factory=dict)
    children: tuple["Span", ...] = ()

    def to_payload(self) -> dict:
        """Flatten to the nested-dict wire form (see docs/observability.md)."""
        payload: dict = {
            "name": self.name,
            "start": round(self.start, 9),
            "seconds": round(self.seconds, 9),
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.to_payload() for child in self.children]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_payload` output."""
        if not isinstance(payload, dict) or "name" not in payload:
            raise ValueError(f"Span payload must be an object with a name, got {payload!r}")
        return cls(
            name=str(payload["name"]),
            start=float(payload.get("start", 0.0)),
            seconds=float(payload.get("seconds", 0.0)),
            attrs=dict(payload.get("attrs") or {}),
            children=tuple(
                cls.from_payload(child) for child in payload.get("children") or ()
            ),
        )

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def flatten_spans(spans) -> list[Span]:
    """Every span in a forest, depth-first (histogram aggregation order)."""
    flat: list[Span] = []
    for span in spans:
        flat.extend(span.walk())
    return flat


def spans_to_payload(spans) -> list[dict]:
    """Serialize a span forest for the wire / HTTP ``"spans"`` field."""
    return [span.to_payload() for span in spans]


def spans_from_payload(payload) -> tuple[Span, ...]:
    """Decode a span forest; malformed entries raise :class:`ValueError`."""
    if payload is None:
        return ()
    if not isinstance(payload, (list, tuple)):
        raise ValueError(f"Spans payload must be a list, got {type(payload).__name__}")
    return tuple(Span.from_payload(item) for item in payload)


# ---------------------------------------------------------------------------
# Thread-local tracing state
# ---------------------------------------------------------------------------
class _TraceState(threading.local):
    """Per-thread collector state; ``frames is None`` means "not tracing"."""

    def __init__(self) -> None:
        self.frames: list[list[Span]] | None = None  # stack of children lists
        self.open: list["_ActiveSpan"] = []          # stack of open spans
        self.epoch: float = 0.0                      # trace start (perf_counter)


_STATE = _TraceState()


class _NoopSpan:
    """Shared do-nothing context manager for the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopSpan()


class _ActiveSpan:
    """An open span being timed; frozen into a :class:`Span` on exit."""

    __slots__ = ("name", "attrs", "_children", "_start", "_t0")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        self._children: list[Span] = []
        _STATE.frames.append(self._children)
        _STATE.open.append(self)
        self._t0 = time.perf_counter()
        self._start = self._t0 - _STATE.epoch
        return self

    def __exit__(self, *exc_info) -> bool:
        seconds = time.perf_counter() - self._t0
        frames = _STATE.frames
        frames.pop()
        _STATE.open.pop()
        frames[-1].append(
            Span(
                name=self.name,
                start=self._start,
                seconds=seconds,
                attrs=self.attrs,
                children=tuple(self._children),
            )
        )
        return False


def trace_span(name: str, **attrs):
    """Open one named span on the current thread's trace.

    Returns a context manager.  When no :class:`collect_spans` is active on
    this thread (the overwhelmingly common case for library users), a shared
    no-op is returned — the disabled cost is one attribute read.
    """
    if _STATE.frames is None:
        return _NOOP
    return _ActiveSpan(name, attrs)


def span_attr(**attrs) -> None:
    """Merge attributes into the innermost open span (no-op when not tracing).

    This is how deep layers report facts upward without plumbing: the
    flow kernel calls ``span_attr(branches=...)`` and the annotation lands
    on whatever span the caller opened around it.
    """
    open_spans = _STATE.open
    if open_spans:
        open_spans[-1].attrs.update(attrs)


def tracing_active() -> bool:
    """Whether a collector is active on the current thread."""
    return _STATE.frames is not None


class collect_spans:
    """Activate tracing on this thread and collect the top-level spans.

    ::

        trace = collect_spans(enabled=engine.tracing)
        with trace:
            compile_pipeline(target, cache=cache)
        result.spans = trace.spans

    ``enabled=False`` makes the whole block a no-op (``spans`` stays empty),
    so callers can thread a config flag without branching.  Collectors nest:
    the previous collector (if any) is shadowed and restored on exit, each
    with its own epoch.
    """

    __slots__ = ("enabled", "spans", "_root", "_saved")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: tuple[Span, ...] = ()

    def __enter__(self) -> "collect_spans":
        if not self.enabled:
            self._saved = None
            return self
        self._saved = (_STATE.frames, _STATE.open, _STATE.epoch)
        self._root = []
        _STATE.frames = [self._root]
        _STATE.open = []
        _STATE.epoch = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._saved is None:
            return False
        self.spans = tuple(self._root)
        _STATE.frames, _STATE.open, _STATE.epoch = self._saved
        return False
