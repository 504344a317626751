"""Unit tests for span tracing and the Chrome trace exporter."""

import json
import os
import threading
import time

import pytest

from repro.observability import tracing


@pytest.fixture(autouse=True)
def _clean_tracing():
    tracing.disable()
    tracing.drain()
    yield
    tracing.disable()
    tracing.drain()


class TestDisabled:
    def test_no_events_recorded(self):
        with tracing.span("work", n=3) as sp:
            sp.add(more=1)
        assert tracing.events() == []

    def test_disabled_span_is_cheap(self):
        # Not a strict benchmark, just a guard against accidentally
        # reading clocks or appending on the disabled path.
        start = time.perf_counter()
        for _ in range(10_000):
            with tracing.span("work"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5
        assert tracing.events() == []


class TestEnabled:
    def test_event_shape(self):
        tracing.enable()
        with tracing.span("solve", states=10) as sp:
            sp.add(iterations=4)
        (event,) = tracing.events()
        assert event["name"] == "solve"
        assert event["ph"] == "X"
        assert event["cat"] == "repro"
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0
        assert event["args"]["states"] == 10
        assert event["args"]["iterations"] == 4
        assert event["args"]["depth"] == 1

    def test_nesting_depth(self):
        tracing.enable()
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
        inner, outer = tracing.events()
        assert inner["name"] == "inner"
        assert inner["args"]["depth"] == 2
        assert outer["args"]["depth"] == 1

    def test_exception_recorded_and_propagated(self):
        tracing.enable()
        with pytest.raises(RuntimeError):
            with tracing.span("boom"):
                raise RuntimeError("nope")
        (event,) = tracing.events()
        assert event["args"]["error"] == "RuntimeError"

    def test_non_jsonable_args_coerced(self):
        tracing.enable()
        with tracing.span("work", what={1, 2}):
            pass
        (event,) = tracing.events()
        assert isinstance(event["args"]["what"], str)

    def test_span_entered_before_disable_still_records(self):
        tracing.enable()
        cm = tracing.span("flip")
        cm.__enter__()
        tracing.disable()
        cm.__exit__(None, None, None)
        assert [e["name"] for e in tracing.events()] == ["flip"]

    def test_threads_record_into_shared_buffer(self):
        tracing.enable()

        def work():
            with tracing.span("thread-work"):
                pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracing.events()) == 4


class TestBufferOps:
    def test_drain_clears(self):
        tracing.enable()
        with tracing.span("a"):
            pass
        drained = tracing.drain()
        assert [e["name"] for e in drained] == ["a"]
        assert tracing.events() == []



class TestChromeExport:
    def test_file_shape(self, tmp_path):
        tracing.enable()
        with tracing.span("solve", states=5):
            pass
        path = tmp_path / "trace.json"
        count = tracing.write_chrome_trace(str(path))
        assert count == 1
        payload = json.loads(path.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        names = {e["name"] for e in payload["traceEvents"]}
        assert names == {"process_name", "solve"}
        meta = next(
            e for e in payload["traceEvents"] if e["name"] == "process_name"
        )
        assert meta["ph"] == "M"
        assert meta["args"]["name"] == "repro"
        # exporting drained the buffer
        assert tracing.events() == []

    def test_every_recording_pid_is_labelled_repro(self, tmp_path):
        batch = [
            {"name": "w", "ph": "X", "ts": 0, "dur": 1, "pid": pid, "tid": 1}
            for pid in (424242, 7)
        ]
        path = tmp_path / "trace.json"
        tracing.write_chrome_trace(str(path), batch)
        payload = json.loads(path.read_text())
        meta = [e for e in payload["traceEvents"] if e["name"] == "process_name"]
        assert [(e["pid"], e["args"]["name"]) for e in meta] == [
            (7, "repro"),
            (424242, "repro"),
        ]
