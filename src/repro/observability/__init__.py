"""Cross-layer observability: metrics registry and span tracing.

Two pieces, both stdlib-only:

* :mod:`repro.observability.metrics` — the process-wide
  :data:`~repro.observability.metrics.REGISTRY` of counters, gauges and
  histograms every layer reports into, with snapshots and JSON +
  Prometheus exposition.
* :mod:`repro.observability.tracing` — ``span(...)`` context managers
  recording Chrome trace events (near-free when disabled), written as
  one Perfetto-viewable trace.

Results are byte-identical with instrumentation on or off.
"""

from __future__ import annotations

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
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "metrics",
    "span",
    "tracing",
    "write_chrome_trace",
]

