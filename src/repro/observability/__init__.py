"""Cross-layer observability: metrics registry, span tracing, telemetry.

Three pieces, all stdlib-only:

* :mod:`repro.observability.metrics` — the process-wide
  :data:`~repro.observability.metrics.REGISTRY` of counters, gauges and
  histograms every layer reports into, with snapshot/delta/merge for
  crossing the process-pool boundary and JSON + Prometheus exposition.
* :mod:`repro.observability.tracing` — ``span(...)`` context managers
  recording Chrome trace events (near-free when disabled), merged
  across workers into one Perfetto-viewable trace.
* The chunk-telemetry piggyback below: worker entry points run under
  :func:`capture`, which wraps the chunk's results together with the
  worker's metric delta and spans in a picklable
  :class:`ChunkTelemetry`; the engine calls :func:`absorb` on every
  chunk result, folding worker telemetry into the parent registry and
  trace while returning the *untouched* results object — so sweep
  output stays byte-identical with instrumentation on or off.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.observability import metrics, tracing
from repro.observability.metrics import (
    REGISTRY,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from repro.observability.tracing import span, write_chrome_trace

__all__ = [
    "ChunkTelemetry",
    "MetricsRegistry",
    "REGISTRY",
    "absorb",
    "capture",
    "counter",
    "gauge",
    "histogram",
    "metrics",
    "span",
    "telemetry_options",
    "tracing",
    "write_chrome_trace",
]


@dataclass
class ChunkTelemetry:
    """A chunk's results plus the telemetry accrued computing them.

    Picklable by construction: the metrics delta is plain dicts/tuples
    and spans are plain dicts (Chrome trace events).  ``started`` is
    the worker's wall-clock start, letting the engine measure how long
    the chunk waited in the pool queue.
    """

    results: Any
    metrics_delta: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    started: float = 0.0


def telemetry_options() -> dict[str, Any]:
    """Options to ship to a worker-process chunk entry point.

    ``parent`` pins the dispatching pid: :func:`capture` only engages
    when it runs in a *different* process, so the serial executor
    (and the single-batch in-parent shortcut) record straight into the
    shared registry with no delta round-trip.
    """
    return {"trace": tracing.is_enabled(), "parent": os.getpid()}


def capture(
    options: dict[str, Any] | None, fn: Callable[[], Any]
) -> Any:
    """Run *fn* under worker-side telemetry capture.

    With falsy *options*, or when still in the dispatching process
    (the serial executor or an in-process chunk — the registry and
    trace buffer are already shared), this is a plain call returning
    *fn*'s result unchanged.  Otherwise the worker syncs its tracing flag to the
    parent's, snapshots the registry, runs the chunk, and wraps the
    results with the metric delta (and spans, when tracing) for the
    engine to :func:`absorb`.
    """
    if not options or options.get("parent") == os.getpid():
        return fn()
    trace = bool(options.get("trace"))
    tracing.set_enabled(trace)
    if trace:
        tracing.drain()  # discard events from before this chunk
    started = time.time()
    before = REGISTRY.state()
    results = fn()
    return ChunkTelemetry(
        results=results,
        metrics_delta=REGISTRY.delta_since(before),
        spans=tracing.drain() if trace else [],
        started=started,
    )


def absorb(chunk_result: Any, dispatched: float | None = None) -> Any:
    """Fold a chunk's telemetry into this process; return bare results.

    Results that are not :class:`ChunkTelemetry` pass through
    untouched, so in-process chunk results (recorded directly into
    the shared registry) need no special-casing at call sites.  When
    *dispatched* (parent wall-clock at submit time) is given, the
    queue wait until the worker started is observed into
    ``repro_chunk_queue_wait_seconds``.
    """
    if not isinstance(chunk_result, ChunkTelemetry):
        return chunk_result
    REGISTRY.merge(chunk_result.metrics_delta)
    tracing.extend(chunk_result.spans)
    if dispatched is not None and chunk_result.started:
        _QUEUE_WAIT.observe(max(0.0, chunk_result.started - dispatched))
    return chunk_result.results


_QUEUE_WAIT = histogram(
    "repro_chunk_queue_wait_seconds",
    "Wall-clock wait between chunk dispatch and worker pickup.",
).labels()
