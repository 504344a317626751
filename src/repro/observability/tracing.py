"""Span tracing with Chrome trace-event export.

A :class:`span` is a context manager recording one Chrome *complete*
event (``"ph": "X"``) — wall-clock start (microseconds), duration, pid
and tid.  Nesting falls out of timestamps on the same pid/tid, so spans
need no parent pointers.

Tracing is **off by default** and the disabled path is near-free: one
attribute read in ``__enter__``/``__exit__``, no clock reads, no
allocation beyond the span object itself.  Instrumented code therefore
wraps hot sections unconditionally::

    with span("ctmc:transient", states=n, method=method) as sp:
        result = solve(...)
        sp.add(iterations=k)

:func:`write_chrome_trace` writes the buffer as Chrome trace-event
JSON, viewable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

Nesting context is tracked per-task via :mod:`contextvars` depth so the
exporter can label top-level spans, and enabling/disabling mid-flight
is safe: a span only records if tracing was enabled when it *entered*.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from typing import Any, Iterable

__all__ = [
    "span",
    "enable",
    "disable",
    "is_enabled",
    "set_enabled",
    "events",
    "drain",
    "write_chrome_trace",
]


class _State:
    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


_STATE = _State()
_LOCK = threading.Lock()
_EVENTS: list[dict[str, Any]] = []

#: Current span nesting depth (per thread/task).
_DEPTH: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro_span_depth", default=0
)


def set_enabled(flag: bool) -> bool:
    """Turn tracing on/off; returns the previous state."""
    previous = _STATE.enabled
    _STATE.enabled = bool(flag)
    return previous


def enable() -> None:
    """Start recording spans."""
    set_enabled(True)


def disable() -> None:
    """Stop recording spans (already-recorded events are kept)."""
    set_enabled(False)


def is_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _STATE.enabled


class span:
    """Record one trace event around a ``with`` block.

    Keyword arguments become the event's ``args``; :meth:`add` attaches
    more after the fact (e.g. counts known only once work completes).
    When tracing is disabled both are no-ops and no clock is read.
    """

    __slots__ = ("name", "args", "_start", "_wall", "_token")

    def __init__(self, name: str, **args: Any) -> None:
        self.name = name
        self.args = args
        self._start: float | None = None

    def __enter__(self) -> "span":
        if _STATE.enabled:
            self._token = _DEPTH.set(_DEPTH.get() + 1)
            self._wall = time.time()
            self._start = time.perf_counter()
        return self

    def add(self, **args: Any) -> "span":
        """Attach extra args (no-op when the span is not recording)."""
        if self._start is not None:
            self.args.update(args)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        start = self._start
        if start is None:
            return False
        duration = time.perf_counter() - start
        depth = _DEPTH.get()
        _DEPTH.reset(self._token)
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        event: dict[str, Any] = {
            "name": self.name,
            "cat": "repro",
            "ph": "X",
            "ts": round(self._wall * 1e6, 3),
            "dur": round(duration * 1e6, 3),
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
        }
        args = {k: _jsonable(v) for k, v in self.args.items()}
        args["depth"] = depth
        event["args"] = args
        with _LOCK:
            _EVENTS.append(event)
        return False


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def events() -> list[dict[str, Any]]:
    """A copy of the recorded event buffer."""
    with _LOCK:
        return list(_EVENTS)


def drain() -> list[dict[str, Any]]:
    """Return the recorded events and clear the buffer."""
    global _EVENTS
    with _LOCK:
        drained = _EVENTS
        _EVENTS = []
    return drained


def write_chrome_trace(
    path: str, batch: Iterable[dict[str, Any]] | None = None
) -> int:
    """Write events as Chrome trace-event JSON; returns the span count.

    With no *batch*, drains (and clears) the global buffer.  The file
    wraps events in ``{"traceEvents": [...]}`` with process-name
    metadata labelling each recording process ``repro``.
    """
    spans = drain() if batch is None else list(batch)
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": "repro"},
        }
        for pid in sorted({e["pid"] for e in spans})
    ]
    payload = {
        "traceEvents": metadata + spans,
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return len(spans)
