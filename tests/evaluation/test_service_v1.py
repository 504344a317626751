"""Tests for the /v1 service surface: envelope, lanes, priorities,
streaming, and the connection-handling regression."""

from __future__ import annotations

import gc
import json
import math
import threading
import time
import weakref

import pytest

from repro.errors import EvaluationError
from repro.evaluation import SweepEngine, enumerate_designs
from repro.evaluation.api import MAX_TIME_POINTS
from repro.evaluation.service import EvaluationService, LanePool, sweep_response


@pytest.fixture(scope="module")
def serial_service():
    """One in-process service (serial engine, two lanes) shared by the
    read-only tests of this module."""
    service = EvaluationService(executor="serial", max_designs=32, lanes=2)
    client = service.start_in_thread()
    yield service, client
    service.close()


def _wire(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


class TestEnvelope:
    def test_priority_and_deadline_fields_accepted(self, serial_service):
        _, client = serial_service
        served = client.sweep(
            roles=["dns"],
            max_replicas=2,
            priority="batch",
            deadline_ms=60_000,
        )
        assert served["design_count"] == 2

    def test_unknown_envelope_field_is_invalid_request(self, serial_service):
        _, client = serial_service
        status, body = client.request(
            "POST", "/v1/sweep", {"space": {"roles": ["dns"]}, "bogus": 1}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "bogus" in body["error"]["message"]
        assert set(body["error"]) == {"code", "message", "detail"}

    def test_non_boolean_stream_is_invalid_request(self, serial_service):
        # "false" is a truthy string: it must not switch on NDJSON.
        _, client = serial_service
        status, body = client.request(
            "POST", "/v1/sweep", {"space": {"roles": ["dns"]}, "stream": "false"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "stream" in body["error"]["message"]

    def test_unknown_priority_rejected(self, serial_service):
        _, client = serial_service
        status, body = client.request(
            "POST", "/v1/sweep", {"space": {"roles": ["dns"]}, "priority": "vip"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_over_budget_code(self, serial_service):
        _, client = serial_service
        # 1000 replicas over 4 roles is 10^12 designs: the budget check
        # must answer without enumerating them.
        for max_replicas in (3, 1000):
            status, body = client.request(
                "POST",
                "/v1/sweep",
                {
                    "space": {
                        "roles": ["dns", "web", "app", "db"],
                        "max_replicas": max_replicas,
                    }
                },
            )
            assert status == 400
            assert body["error"]["code"] == "over_budget"
            assert "budget" in body["error"]["message"]

    def test_evaluation_time_validation_error_is_invalid_request(
        self, serial_service
    ):
        """An unknown role only fails once the engine evaluates it, but
        it is still the client's mistake: 400, not 500/internal — also
        when the failure crosses a process pool, and as the error event
        of a stream."""
        _, serial_client = serial_service
        with EvaluationService(
            executor="process", max_designs=8, lanes=1
        ) as process_service:
            process_client = process_service.start_in_thread()
            for client in (serial_client, process_client):
                for stream in (False, True):
                    payload = {"space": {"roles": ["bogus"]}, "stream": stream}
                    if stream:
                        events = list(client._stream("/v1/sweep", payload))
                        kinds = [event["event"] for event in events]
                        assert kinds == ["start", "error"]
                        error = events[-1]["error"]
                    else:
                        status, body = client.request("POST", "/v1/sweep", payload)
                        assert status == 400
                        error = body["error"]
                    assert error["code"] == "invalid_request"
                    assert "unknown role" in error["message"]

    @pytest.mark.parametrize("stream", [False, True])
    def test_unknown_transient_method_is_invalid_request(
        self, serial_service, stream
    ):
        """Rejected while parsing, before the request takes a lane."""
        _, client = serial_service
        computed = client.metrics()["counters"]["computed"]
        status, body = client.request(
            "POST",
            "/v1/timeline",
            {
                "space": {"roles": ["dns"]},
                "options": {"points": 4, "method": "bogus"},
                "stream": stream,
            },
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "method" in body["error"]["message"]
        assert client.metrics()["counters"]["computed"] == computed

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize(
        "options",
        [
            pytest.param({"points": 10**9}, id="points"),
            pytest.param({"times": [0.0] * (MAX_TIME_POINTS + 1)}, id="times"),
        ],
    )
    def test_over_cap_time_grid_is_over_budget(
        self, serial_service, options, stream
    ):
        """Refused before the grid is built: a small body must not stall
        the event loop for every other connection."""
        _, client = serial_service
        start = time.monotonic()
        status, body = client.request(
            "POST",
            "/v1/timeline",
            {"space": {"roles": ["dns"]}, "options": options, "stream": stream},
        )
        assert time.monotonic() - start < 1.0
        assert status == 400
        assert body["error"]["code"] == "over_budget"
        assert "time points" in body["error"]["message"]
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("endpoint", ["/v1/sweep", "/v1/timeline"])
    def test_over_cap_scaled_tiers_is_over_budget(self, serial_service, endpoint):
        """Refused while parsing, before the case study is built on the
        event loop."""
        _, client = serial_service
        computed = client.metrics()["counters"]["computed"]
        start = time.monotonic()
        status, body = client.request(
            "POST", endpoint, {"space": {"scaled": "1x1001"}}
        )
        assert time.monotonic() - start < 1.0
        assert status == 400
        assert body["error"]["code"] == "over_budget"
        assert "tiers" in body["error"]["message"]
        assert client.metrics()["counters"]["computed"] == computed

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param({"options": {"horizon": math.nan}}, id="horizon-nan"),
            pytest.param({"options": {"horizon": math.inf}}, id="horizon-inf"),
            pytest.param({"options": {"times": [0.0, -math.inf]}}, id="times"),
            pytest.param({"deadline_ms": math.nan}, id="deadline-nan"),
        ],
    )
    def test_non_standard_json_numbers_are_invalid_request(
        self, serial_service, fields
    ):
        """NaN and Infinity are not JSON: refused while decoding the
        body, with a valid JSON error envelope."""
        _, client = serial_service
        status, body = client.request(
            "POST", "/v1/timeline", {"space": {"roles": ["dns"]}, **fields}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "not a JSON number" in body["error"]["message"]

    def test_huge_time_point_answers_fast(self, serial_service):
        """A far-future time costs no more than any other time."""
        _, client = serial_service
        start = time.monotonic()
        status, body = client.request(
            "POST",
            "/v1/timeline",
            {
                "space": {"roles": ["dns", "web", "app", "db"], "max_replicas": 1},
                "options": {"times": [0, 1e12]},
            },
        )
        assert time.monotonic() - start < 2.0
        assert status == 200
        for design in body["designs"]:
            assert design["completion_probability"][-1] == 1.0
            assert design["unpatched_fraction"][-1] == 0.0

    def test_v1_unknown_path_is_not_found(self, serial_service):
        _, client = serial_service
        status, body = client.request("GET", "/v1/bogus")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_v1_wrong_method_code(self, serial_service):
        _, client = serial_service
        status, body = client.request("GET", "/v1/sweep")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_client_rejects_unknown_kwarg(self, serial_service):
        _, client = serial_service
        with pytest.raises(Exception, match="unknown sweep field"):
            client.sweep(roles=["dns"], horizon=10)

    def test_shard_option_filters_designs(self, serial_service):
        from repro.evaluation import api

        _, client = serial_service
        designs = list(enumerate_designs(["dns", "web"], max_replicas=2))
        full = client.sweep(roles=["dns", "web"], max_replicas=2)
        parts = [
            client.sweep(
                roles=["dns", "web"],
                max_replicas=2,
                shard={"index": index, "count": 2},
            )
            for index in range(2)
        ]
        assert sum(p["design_count"] for p in parts) == full["design_count"]
        for index, part in enumerate(parts):
            owned = [d for d in designs if api.shard_of(d, 2) == index]
            assert [d["label"] for d in part["designs"]] == [
                d.label for d in owned
            ]


class TestLanes:
    def test_healthz_reports_lane_pool(self, serial_service):
        _, client = serial_service
        lanes = client.healthz()["lanes"]
        assert lanes["max_lanes"] == 2
        assert lanes["active"] >= 1
        contexts = [lane["context"] for lane in lanes["lanes"]]
        assert "default" in contexts
        default = lanes["lanes"][contexts.index("default")]
        assert default["engine"]["executor"] == "serial"
        assert {
            "busy",
            "queued_interactive",
            "queued_batch",
            "completed",
            "preemptions",
            "idle_s",
        } <= set(default)

    def test_scaled_request_runs_on_its_own_lane(self):
        from repro.enterprise import scaled_case_study

        with EvaluationService(
            executor="serial", max_designs=8, lanes=2
        ) as service:
            client = service.start_in_thread()
            served = client.sweep(scaled="3x2")
            case_study, design = scaled_case_study(3, 2)
            expected = sweep_response(
                list(design.roles),
                2,
                None,
                False,
                "serial",
                SweepEngine(case_study=case_study).evaluate([design]),
            )
            assert served == _wire(expected)
            contexts = [
                lane["context"] for lane in client.healthz()["lanes"]["lanes"]
            ]
            assert "scaled:3x2" in contexts

    def test_lane_pool_evicts_idle_lru_lane(self):
        with EvaluationService(
            executor="serial", max_designs=8, lanes=2
        ) as service:
            client = service.start_in_thread()
            client.sweep(scaled="2x2")
            client.sweep(scaled="3x2")  # pool full: default + one scaled
            lanes = client.healthz()["lanes"]
            assert lanes["active"] == 2
            assert lanes["evictions"] >= 1
            contexts = [lane["context"] for lane in lanes["lanes"]]
            assert "scaled:3x2" in contexts

    def test_evicted_lanes_release_their_engines(self):
        """Churning through many contexts keeps at most the live lanes'
        engines alive, not one per context ever seen."""
        engines = weakref.WeakSet()

        class Engine:
            def close(self) -> None:
                pass

        def factory():
            engine = Engine()
            engines.add(engine)
            return engine

        pool = LanePool(2, Engine())
        try:
            for index in range(36):
                future = pool.submit(
                    f"context-{index}",
                    factory,
                    lambda engine, checkpoint=None: engine is not None,
                    "interactive",
                )
                assert future.result(timeout=30)
            assert pool.evictions >= 34
            # Only evicted lanes still draining are kept, never all 34.
            assert len(pool._retired) <= 3
            for lane in pool._retired:
                lane.join(timeout=30)
            gc.collect()
            assert len(engines) <= pool.max_lanes
        finally:
            pool.close(timeout=30)

    def test_lane_pooled_sweep_matches_single_engine_27_designs(self):
        roles = ["dns", "web", "app"]
        with EvaluationService(
            executor="serial", max_designs=64, lanes=2
        ) as service:
            client = service.start_in_thread()
            served = client.sweep(roles=roles, max_replicas=3)
            designs = list(enumerate_designs(roles, max_replicas=3))
            expected = sweep_response(
                roles, 3, None, False, "serial", SweepEngine().evaluate(designs)
            )
            assert served == _wire(expected)
            assert served["design_count"] == 27


def _hold_chunks(monkeypatch) -> threading.Event:
    """Hold every sweep chunk on its lane until the returned event is set."""
    from repro.evaluation import engine as engine_module

    release = threading.Event()
    compute = engine_module.evaluate_designs_shared

    def held(*args, **kwargs):
        release.wait(timeout=60)
        return compute(*args, **kwargs)

    monkeypatch.setattr(engine_module, "evaluate_designs_shared", held)
    return release


def _preempt_held_batch(client, release, interactive) -> threading.Thread:
    """Queue *interactive* behind the batch holding the one lane, then
    release the batch: its next chunk boundary must yield to it.  The
    outcome does not depend on how long either sweep takes."""
    deadline = time.monotonic() + 10.0
    while not any(lane["busy"] for lane in client.healthz()["lanes"]["lanes"]):
        assert time.monotonic() < deadline, "the batch never took the lane"
        time.sleep(0.005)
    thread = threading.Thread(target=interactive)
    thread.start()
    while not any(
        lane["queued_interactive"] for lane in client.healthz()["lanes"]["lanes"]
    ):
        assert time.monotonic() < deadline, "the interactive job never queued"
        time.sleep(0.005)
    release.set()
    return thread


class TestPriorities:
    def test_interactive_preempts_batch_on_shared_lane(self, monkeypatch):
        """A batch sweep yields its lane at a chunk boundary (satellite:
        mixed-priority fairness, same-lane case)."""
        roles = ["dns", "web", "app", "db"]
        release = _hold_chunks(monkeypatch)
        with EvaluationService(
            executor="serial", max_designs=128, lanes=1
        ) as service:
            client = service.start_in_thread()
            done: dict[str, float] = {}

            def run_batch():
                client.sweep(roles=roles, max_replicas=3, priority="batch")
                done["batch"] = time.monotonic()

            def run_interactive():
                client.sweep(roles=["dns"], max_replicas=1)
                done["interactive"] = time.monotonic()

            batch = threading.Thread(target=run_batch)
            batch.start()
            interactive = _preempt_held_batch(client, release, run_interactive)
            interactive.join(timeout=120)
            batch.join(timeout=120)
            assert "batch" in done
            assert done["interactive"] < done["batch"]
            lanes = client.healthz()["lanes"]
            default = next(
                lane
                for lane in lanes["lanes"]
                if lane["context"] == "default"
            )
            assert default["preemptions"] >= 1
            # The lane-wait histogram joined the engine's chunk-wait
            # family with queue="lane" children per priority.
            entry = client.metrics()["registry"][
                "repro_chunk_queue_wait_seconds"
            ]
            waits = {
                series["labels"]["priority"]: series
                for series in entry["series"]
                if series["labels"].get("queue") == "lane"
            }
            assert waits["interactive"]["count"] >= 1
            assert waits["batch"]["count"] >= 1

    def test_preempted_batch_result_matches_uncontended_run(self, monkeypatch):
        """Preemption must not change the batch payload (chunks are
        re-served from the engine memo, not recomputed differently)."""
        roles = ["dns", "web", "app", "db"]
        release = _hold_chunks(monkeypatch)
        with EvaluationService(
            executor="serial", max_designs=128, lanes=1
        ) as service:
            client = service.start_in_thread()
            result: dict[str, dict] = {}

            def run_batch():
                result["batch"] = client.sweep(
                    roles=roles, max_replicas=3, priority="batch"
                )

            batch = threading.Thread(target=run_batch)
            batch.start()
            interactive = _preempt_held_batch(
                client, release, lambda: client.sweep(roles=["web"], max_replicas=1)
            )
            interactive.join(timeout=120)
            batch.join(timeout=120)
            assert client.healthz()["lanes"]["lanes"][0]["preemptions"] >= 1
        designs = list(enumerate_designs(roles, max_replicas=3))
        expected = sweep_response(
            roles, 3, None, False, "serial", SweepEngine().evaluate(designs)
        )
        assert result["batch"] == _wire(expected)

    def test_scaled_batch_does_not_block_interactive(self, monkeypatch):
        """Satellite: a batch --scaled request in flight must not delay an
        interactive 27-design request beyond one chunk boundary — with
        two lanes they never even share a queue.  The batch is a 9x4
        timeline held on its lane until the interactive sweep has
        returned, so the outcome does not depend on how long either
        computation takes."""
        from repro.evaluation import timeline as timeline_module

        release = threading.Event()
        compute = timeline_module.evaluate_timelines_shared

        def held(*args, **kwargs):
            release.wait(timeout=60)
            return compute(*args, **kwargs)

        monkeypatch.setattr(timeline_module, "evaluate_timelines_shared", held)
        with EvaluationService(
            executor="serial", max_designs=64, lanes=2
        ) as service:
            client = service.start_in_thread()
            order: list[str] = []

            def run_batch():
                client.timeline(scaled="9x4", priority="batch")
                order.append("batch")

            batch = threading.Thread(target=run_batch)
            batch.start()
            try:
                # Wait until the batch actually occupies its scaled lane.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and "batch" not in order:
                    lanes = client.healthz()["lanes"]["lanes"]
                    if any(
                        lane["context"] != "default" and lane["busy"]
                        for lane in lanes
                    ):
                        break
                    time.sleep(0.005)
                client.sweep(roles=["dns", "web", "app"], max_replicas=3)
                order.append("interactive")
            finally:
                release.set()
            batch.join(timeout=180)
            assert order[0] == "interactive"
            entry = client.metrics()["registry"][
                "repro_chunk_queue_wait_seconds"
            ]
            interactive_waits = [
                series
                for series in entry["series"]
                if series["labels"].get("queue") == "lane"
                and series["labels"].get("priority") == "interactive"
            ]
            assert interactive_waits
            # The interactive request never queued behind the batch
            # sweep: its lane wait is bounded by scheduling noise, far
            # below one scaled chunk's solve time.
            assert interactive_waits[0]["max"] < 1.0


class TestStreaming:
    def test_sweep_stream_events(self):
        roles = ["dns", "web"]
        with EvaluationService(
            executor="serial", max_designs=16, lanes=1
        ) as service:
            client = service.start_in_thread()
            events = list(client.sweep_stream(roles=roles, max_replicas=2))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "complete"
        assert "chunk" in kinds
        start = events[0]
        assert start["schema_version"] == 3
        assert start["endpoint"] == "/sweep"
        assert start["design_count"] == 4
        streamed = [
            design["label"]
            for event in events
            if event["event"] == "chunk"
            for design in event["designs"]
        ]
        complete = events[-1]["response"]
        assert streamed == [d["label"] for d in complete["designs"]]
        designs = list(enumerate_designs(roles, max_replicas=2))
        expected = sweep_response(
            roles, 2, None, False, "serial", SweepEngine().evaluate(designs)
        )
        assert complete == _wire(expected)

    def test_memoised_designs_do_not_stream_again(self):
        with EvaluationService(
            executor="serial", max_designs=16, lanes=1
        ) as service:
            client = service.start_in_thread()
            first = list(client.sweep_stream(roles=["dns"], max_replicas=2))
            second = list(client.sweep_stream(roles=["dns"], max_replicas=2))
        assert any(event["event"] == "chunk" for event in first)
        # Second run: every design is in the engine memo, so no chunk
        # ever reaches the progress seam — but the complete payload is
        # identical.
        assert not any(event["event"] == "chunk" for event in second)
        assert second[-1]["response"] == first[-1]["response"]

    def test_timeline_stream_events(self):
        with EvaluationService(
            executor="serial", max_designs=16, lanes=1
        ) as service:
            client = service.start_in_thread()
            events = list(
                client.timeline_stream(
                    roles=["dns"], max_replicas=2, horizon=100, points=4
                )
            )
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "complete"
        streamed = [
            design["label"]
            for event in events
            if event["event"] == "chunk"
            for design in event["designs"]
        ]
        complete = events[-1]["response"]
        assert complete["schema_version"] == 3
        assert streamed == [d["label"] for d in complete["designs"]]

    def test_stream_rejects_invalid_space(self, serial_service):
        _, client = serial_service
        with pytest.raises(EvaluationError, match="stream failed"):
            list(client.sweep_stream(roles=[]))


class TestConnectionHandling:
    def test_requests_send_connection_close(self, serial_service, monkeypatch):
        import http.client

        _, client = serial_service
        seen: list[dict] = []
        original = http.client.HTTPConnection.request

        def recording(self, method, url, body=None, headers=None, **kwargs):
            seen.append(dict(headers or {}))
            return original(
                self, method, url, body=body, headers=headers or {}, **kwargs
            )

        monkeypatch.setattr(http.client.HTTPConnection, "request", recording)
        client.healthz()
        client.sweep(roles=["dns"], max_replicas=1)
        assert seen
        assert all(
            headers.get("Connection") == "close" for headers in seen
        )

    def test_client_outlives_drained_server(self):
        """Regression: a client holding the address of a stopped service
        fails fast with a connection error, not a hang or a half-open
        socket reuse."""
        service = EvaluationService(executor="serial", max_designs=8)
        client = service.start_in_thread()
        assert client.healthz()["status"] == "ok"
        service.close()
        with pytest.raises(OSError):
            client.request("GET", "/v1/healthz")
