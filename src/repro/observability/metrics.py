"""Process-wide metrics registry: counters, gauges, histograms.

Zero-dependency (stdlib only) Prometheus-style instrumentation for the
whole pipeline.  One global :data:`REGISTRY` collects every series the
solvers, caches, the sweep engine and the evaluation service report;
the registry knows how to

* snapshot itself (:meth:`MetricsRegistry.state`), one flat entry per
  series;
* render a JSON snapshot (:meth:`MetricsRegistry.to_dict`) and the
  Prometheus text exposition format
  (:meth:`MetricsRegistry.to_prometheus`) for ``GET /metrics``.

Every mutation is lock-guarded and cheap (one dict lookup plus a float
add under an ``RLock``), so instrumentation can stay on permanently —
the hot solver loops record one observation per *solve*, never per
matrix element.

Families are get-or-create: calling :func:`counter` twice with the same
name returns the same family, so modules can resolve their series at
import time without coordinating.  :meth:`MetricsRegistry.reset` zeroes
values **in place** (families and children survive), so cached child
handles held by instrumented modules stay live across test resets.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Mapping

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds): spans sub-millisecond solver
#: steps through minute-long scaled sweeps.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

_INF = float("inf")

LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: Mapping[str, str]) -> LabelItems:
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name: {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


class Counter:
    """A monotonically increasing value (one labelled series)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (one labelled series)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max (one series)."""

    __slots__ = ("_lock", "buckets", "counts", "sum", "count", "min", "max")

    def __init__(
        self, lock: threading.RLock, buckets: tuple[float, ...]
    ) -> None:
        self._lock = lock
        self.buckets = buckets  # upper bounds, ascending, no +inf
        self.counts = [0] * (len(buckets) + 1)  # last slot = +inf
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value


class _Family:
    """Base for a named metric family holding labelled children."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str):
        self.name = name
        self.help = help
        self._lock = registry._lock
        self._series: dict[LabelItems, Any] = {}

    def _new_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels: str) -> Any:
        """Get or create the child series for *labels*."""
        items = _label_items(labels)
        with self._lock:
            child = self._series.get(items)
            if child is None:
                child = self._new_child()
                self._series[items] = child
            return child

    def series(self) -> dict[LabelItems, Any]:
        with self._lock:
            return dict(self._series)


class CounterFamily(_Family):
    kind = "counter"

    def _new_child(self) -> Counter:
        return Counter(self._lock)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)


class GaugeFamily(_Family):
    kind = "gauge"

    def _new_child(self) -> Gauge:
        return Gauge(self._lock)

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).dec(amount)


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(registry, name, help)
        self.buckets = buckets

    def _new_child(self) -> Histogram:
        return Histogram(self._lock, self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)


def _normalise_buckets(
    buckets: tuple[float, ...] | list[float] | None,
) -> tuple[float, ...]:
    if buckets is None:
        return DEFAULT_BUCKETS
    bounds = tuple(float(b) for b in buckets if not math.isinf(float(b)))
    if not bounds or list(bounds) != sorted(bounds):
        raise ValueError("histogram buckets must be ascending and finite")
    return bounds


class MetricsRegistry:
    """A set of named metric families with snapshot/delta/merge support."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # -- family accessors -------------------------------------------------

    def _family(self, name: str, help: str, factory) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = factory()
                self._families[name] = family
            return family

    def counter(self, name: str, help: str = "") -> CounterFamily:
        family = self._family(
            name, help, lambda: CounterFamily(self, name, help)
        )
        if not isinstance(family, CounterFamily):
            raise TypeError(f"{name} is registered as a {family.kind}")
        return family

    def gauge(self, name: str, help: str = "") -> GaugeFamily:
        family = self._family(name, help, lambda: GaugeFamily(self, name, help))
        if not isinstance(family, GaugeFamily):
            raise TypeError(f"{name} is registered as a {family.kind}")
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | list[float] | None = None,
    ) -> HistogramFamily:
        bounds = _normalise_buckets(buckets)
        family = self._family(
            name, help, lambda: HistogramFamily(self, name, help, bounds)
        )
        if not isinstance(family, HistogramFamily):
            raise TypeError(f"{name} is registered as a {family.kind}")
        return family

    def families(self) -> dict[str, _Family]:
        with self._lock:
            return dict(self._families)

    # -- snapshot / reset -------------------------------------------------

    def state(self) -> dict[tuple[str, LabelItems], dict[str, Any]]:
        """Flat picklable snapshot of every series' current value."""
        snapshot: dict[tuple[str, LabelItems], dict[str, Any]] = {}
        with self._lock:
            for name, family in self._families.items():
                for items, child in family.series().items():
                    entry: dict[str, Any] = {
                        "kind": family.kind,
                        "help": family.help,
                    }
                    if family.kind == "histogram":
                        entry["buckets"] = child.buckets
                        entry["counts"] = list(child.counts)
                        entry["sum"] = child.sum
                        entry["count"] = child.count
                        entry["min"] = child.min
                        entry["max"] = child.max
                    else:
                        entry["value"] = child.value
                    snapshot[(name, items)] = entry
        return snapshot

    def reset(self) -> None:
        """Zero every series in place (families and children survive)."""
        with self._lock:
            for family in self._families.values():
                for child in family.series().values():
                    if isinstance(child, Histogram):
                        child.counts = [0] * (len(child.buckets) + 1)
                        child.sum = 0.0
                        child.count = 0
                        child.min = None
                        child.max = None
                    else:
                        child._value = 0.0

    # -- exposition -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot keyed by family name."""
        out: dict[str, Any] = {}
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                series = []
                for items, child in sorted(family.series().items()):
                    entry: dict[str, Any] = {"labels": dict(items)}
                    if family.kind == "histogram":
                        entry.update(
                            count=child.count,
                            sum=child.sum,
                            min=child.min,
                            max=child.max,
                            mean=(
                                child.sum / child.count if child.count else None
                            ),
                            buckets={
                                _format_bound(b): c
                                for b, c in zip(
                                    list(child.buckets) + [_INF],
                                    _cumulative(child.counts),
                                )
                            },
                        )
                    else:
                        entry["value"] = child.value
                    series.append(entry)
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "series": series,
                }
        return out

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format (v0.0.4)."""
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                if family.help:
                    lines.append(f"# HELP {name} {_escape_help(family.help)}")
                lines.append(f"# TYPE {name} {family.kind}")
                for items, child in sorted(family.series().items()):
                    if family.kind == "histogram":
                        bounds = list(child.buckets) + [_INF]
                        for bound, cum in zip(
                            bounds, _cumulative(child.counts)
                        ):
                            bucket_items = items + (
                                ("le", _format_bound(bound)),
                            )
                            lines.append(
                                f"{name}_bucket{_render_labels(bucket_items)}"
                                f" {cum}"
                            )
                        lines.append(
                            f"{name}_sum{_render_labels(items)}"
                            f" {_format_value(child.sum)}"
                        )
                        lines.append(
                            f"{name}_count{_render_labels(items)} {child.count}"
                        )
                    else:
                        lines.append(
                            f"{name}{_render_labels(items)}"
                            f" {_format_value(child.value)}"
                        )
        return "\n".join(lines) + "\n"


def _cumulative(counts: list[int]) -> list[int]:
    total = 0
    out = []
    for c in counts:
        total += c
        out.append(total)
    return out


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return _format_value(bound)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(items: LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


#: The process-wide registry every repro layer reports into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> CounterFamily:
    """Get or create a counter family on the global :data:`REGISTRY`."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> GaugeFamily:
    """Get or create a gauge family on the global :data:`REGISTRY`."""
    return REGISTRY.gauge(name, help)


def histogram(
    name: str,
    help: str = "",
    buckets: tuple[float, ...] | list[float] | None = None,
) -> HistogramFamily:
    """Get or create a histogram family on the global :data:`REGISTRY`."""
    return REGISTRY.histogram(name, help, buckets=buckets)
