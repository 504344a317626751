"""Unit tests for the stdlib-only metrics registry."""

import pickle
import threading

import pytest

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_starts_at_zero_and_accumulates(self, registry):
        child = registry.counter("r_total", "help").labels()
        assert child.value == 0.0
        child.inc()
        child.inc(2.5)
        assert child.value == 3.5

    def test_negative_increment_rejected(self, registry):
        child = registry.counter("r_total", "help").labels()
        with pytest.raises(ValueError):
            child.inc(-1.0)

    def test_labelled_children_are_independent(self, registry):
        family = registry.counter("r_total", "help")
        family.inc(method="a")
        family.inc(3, method="b")
        assert family.labels(method="a").value == 1.0
        assert family.labels(method="b").value == 3.0

    def test_same_labels_any_order_same_child(self, registry):
        family = registry.counter("r_total", "help")
        one = family.labels(a="1", b="2")
        two = family.labels(b="2", a="1")
        assert one is two

    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("r_total", "help")
        second = registry.counter("r_total", "ignored")
        assert first is second

    def test_kind_mismatch_raises(self, registry):
        registry.counter("r_total", "help")
        with pytest.raises(TypeError):
            registry.gauge("r_total", "help")

    def test_invalid_metric_name_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("bad-name", "help")

    def test_invalid_label_name_rejected(self, registry):
        family = registry.counter("r_total", "help")
        with pytest.raises(ValueError):
            family.labels(**{"bad-label": "x"})


class TestGauges:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("r_bytes", "help").labels()
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(3.0)
        assert gauge.value == 12.0


class TestHistograms:
    def test_observe_updates_all_aggregates(self, registry):
        hist = registry.histogram(
            "r_seconds", "help", buckets=(0.1, 1.0)
        ).labels()
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.55)
        assert hist.min == pytest.approx(0.05)
        assert hist.max == pytest.approx(5.0)
        # counts are per-bucket (non-cumulative) with a final +Inf slot
        assert hist.counts == [1, 1, 1]

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestSnapshotAndReset:
    def test_state_is_a_flat_picklable_snapshot(self, registry):
        registry.counter("r_total", "help").inc(4, method="x")
        registry.histogram("r_seconds", "help").observe(0.2)
        state = registry.state()
        assert state[("r_total", (("method", "x"),))]["value"] == 4.0
        assert state[("r_seconds", ())]["count"] == 1
        assert pickle.loads(pickle.dumps(state)) == state

    def test_reset_zeroes_in_place(self, registry):
        child = registry.counter("r_total", "help").labels()
        child.inc(9)
        registry.reset()
        # The cached child handle stays live and starts over from zero.
        assert child.value == 0.0
        child.inc()
        assert registry.counter("r_total", "help").labels().value == 1.0


class TestExposition:
    def test_to_dict_shape(self, registry):
        registry.counter("r_total", "help text").inc(2, method="a")
        payload = registry.to_dict()
        entry = payload["r_total"]
        assert entry["kind"] == "counter"
        assert entry["help"] == "help text"
        assert entry["series"] == [
            {"labels": {"method": "a"}, "value": 2.0}
        ]

    def test_to_dict_histogram_buckets_are_cumulative(self, registry):
        hist = registry.histogram("r_seconds", "help", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        ((series,),) = [registry.to_dict()["r_seconds"]["series"]]
        assert series["count"] == 2
        assert series["buckets"] == {"0.1": 1, "1": 2, "+Inf": 2}
        assert series["mean"] == pytest.approx(0.275)

    def test_prometheus_text_format(self, registry):
        registry.counter("r_total", 'help with "quotes" and \\slash').inc(
            3, method="a b"
        )
        registry.gauge("r_bytes", "bytes").set(12)
        hist = registry.histogram("r_seconds", "latency", buckets=(0.5,))
        hist.observe(0.1)
        hist.observe(2.0)
        text = registry.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE r_total counter" in lines
        assert 'r_total{method="a b"} 3' in lines
        assert "# TYPE r_bytes gauge" in lines
        assert "r_bytes 12" in lines
        assert "# TYPE r_seconds histogram" in lines
        assert 'r_seconds_bucket{le="0.5"} 1' in lines
        assert 'r_seconds_bucket{le="+Inf"} 2' in lines
        assert "r_seconds_sum 2.1" in lines
        assert "r_seconds_count 2" in lines
        # HELP line escaping
        assert any(
            line.startswith("# HELP r_total ") and "\\\\slash" in line
            for line in lines
        )
        assert text.endswith("\n")

    def test_prometheus_label_value_escaping(self, registry):
        registry.counter("r_total", "help").inc(
            1, path='with"quote', other="line\nbreak"
        )
        text = registry.to_prometheus()
        assert 'path="with\\"quote"' in text
        assert 'other="line\\nbreak"' in text


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self, registry):
        family = registry.counter("r_total", "help")

        def work():
            for _ in range(1000):
                family.inc(worker="shared")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert family.labels(worker="shared").value == 8000.0
