"""Structured JSON event log for engine-internal activity.

Stability: stable.

The HTTP front already emits one JSON object per answered request
(``--access-log json``); this module gives engine internals — admission-queue
sheds, disk-cache GC passes — the same treatment, so a log pipeline can join a
request line to the engine activity it caused.  Every record carries the access log's identity fields::

    {"ts": 1723111845.12, "event": "queue.shed",
     "identity": "alice", "fingerprint": "cc087d31…", "retry_after": 0.4}

``ts`` (epoch seconds), ``event`` (dotted ``subsystem.action`` name) and
``identity`` are always present; ``fingerprint`` appears whenever the event
concerns one design point.  Remaining keys are event-specific and always
JSON scalars.

Emission is process-wide through one default :class:`EventLog`: call
:func:`emit_event` from anywhere, enable the stderr stream with
``--event-log json``, ``configure_event_log(enabled=True)`` or the
``REPRO_EVENT_LOG=json`` environment variable.  Even when the stream is off,
the log keeps a bounded in-memory ring (:meth:`EventLog.recent`) so tests
and debuggers can inspect what the engine just did without parsing stderr.

Events emitted today:

========================  =====================================================
``queue.shed``            admission queue full, request rejected
                          (``identity``, ``fingerprint``, ``retry_after``)
``cache.gc``              disk-cache GC pass (``evicted``, ``remaining_bytes``,
                          ``directory``)
========================  =====================================================
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from typing import IO

#: Environment switch: ``REPRO_EVENT_LOG=json`` turns the stderr stream on.
EVENT_LOG_ENV_VAR = "REPRO_EVENT_LOG"

_ENABLED_VALUES = {"1", "json", "true", "yes", "on"}


class EventLog:
    """Thread-safe JSON-lines event sink with a bounded in-memory ring."""

    def __init__(
        self,
        stream: IO[str] | None = None,
        *,
        enabled: bool | None = None,
        ring_size: int = 256,
        clock=time.time,
    ) -> None:
        if enabled is None:
            enabled = os.environ.get(EVENT_LOG_ENV_VAR, "").strip().lower() in _ENABLED_VALUES
        self.enabled = enabled
        self._stream = stream
        self._ring: deque[dict] = deque(maxlen=max(1, ring_size))
        self._lock = threading.Lock()
        self._clock = clock
        self.emitted_total = 0

    def emit(self, event: str, *, identity: str = "", fingerprint: str = "", **fields) -> dict:
        """Record one event; write it as a JSON line when the stream is on.

        The ring records regardless of ``enabled`` — emission cost without a
        stream is one dict append under a lock.
        """
        record: dict = {"ts": round(self._clock(), 3), "event": event, "identity": identity}
        if fingerprint:
            record["fingerprint"] = fingerprint
        record.update(fields)
        with self._lock:
            self.emitted_total += 1
            self._ring.append(record)
            if self.enabled:
                stream = self._stream if self._stream is not None else sys.stderr
                stream.write(json.dumps(record, sort_keys=False) + "\n")
        return record

    def recent(self, event: str | None = None) -> list[dict]:
        """The ring's contents, oldest first, optionally filtered by event name."""
        with self._lock:
            records = list(self._ring)
        if event is None:
            return records
        return [record for record in records if record["event"] == event]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


_DEFAULT_LOG = EventLog()


def get_event_log() -> EventLog:
    """The process-wide default log that :func:`emit_event` feeds."""
    return _DEFAULT_LOG


def configure_event_log(
    *, enabled: bool | None = None, stream: IO[str] | None = None
) -> EventLog:
    """Reconfigure the default log in place (None leaves a setting unchanged)."""
    if enabled is not None:
        _DEFAULT_LOG.enabled = enabled
    if stream is not None:
        _DEFAULT_LOG._stream = stream
    return _DEFAULT_LOG


def emit_event(event: str, *, identity: str = "", fingerprint: str = "", **fields) -> dict:
    """Emit one engine-internal event through the default log."""
    return _DEFAULT_LOG.emit(event, identity=identity, fingerprint=fingerprint, **fields)
