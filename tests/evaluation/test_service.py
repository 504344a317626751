"""Tests for the resident evaluation service (``repro serve``)."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import EvaluationError
from repro.evaluation import SweepEngine, enumerate_designs
from repro.evaluation.service import (
    EvaluationService,
    ServiceClient,
    sweep_response,
    timeline_response,
)


@pytest.fixture(scope="module")
def serial_service():
    """One in-process service (serial engine) shared by the read-only tests."""
    service = EvaluationService(max_designs=32)
    client = service.start_in_thread()
    yield service, client
    service.close()


def _wire(payload: dict) -> dict:
    """Round-trip a payload the way the HTTP layer does."""
    return json.loads(json.dumps(payload))


class TestEndpoints:
    def test_healthz_shape(self, serial_service):
        _, client = serial_service
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["engine"]) == {"cache_info"}
        assert health["max_designs"] == 32
        assert health["uptime_s"] >= 0
        assert "requests_total" in health["counters"]
        assert "registry" in health

    def test_sweep_matches_cli_payload(self, serial_service):
        _, client = serial_service
        served = client.sweep(roles=["dns", "web"], max_replicas=2)
        designs = list(enumerate_designs(["dns", "web"], max_replicas=2))
        expected = sweep_response(
            ["dns", "web"], 2, None, False, "serial", SweepEngine().evaluate(designs)
        )
        assert served == _wire(expected)

    def test_timeline_matches_cli_payload(self, serial_service):
        from repro.evaluation.timeline import default_time_grid
        from repro.patching.campaign import PatchCampaign

        _, client = serial_service
        served = client.timeline(
            roles=["dns"],
            max_replicas=2,
            horizon=100,
            points=4,
            phases="canary:0.1:48,fleet:1.0",
        )
        times = default_time_grid(100.0, 4)
        campaign = PatchCampaign.parse("canary:0.1:48,fleet:1.0")
        designs = list(enumerate_designs(["dns"], max_replicas=2))
        timelines = SweepEngine().timeline(designs, times, campaign=campaign)
        expected = timeline_response(
            ["dns"], 2, None, False, "serial", campaign, times, timelines
        )
        assert served == _wire(expected)
        assert served["schema_version"] == 3
        assert served["campaign"]["phases"][0]["name"] == "canary"

    def test_variants_space_served(self, serial_service):
        _, client = serial_service
        served = client.sweep(roles=["web"], max_replicas=1, variants=True)
        assert served["variants"] is True
        assert served["design_count"] >= 1
        assert all("variants" in design for design in served["designs"])

    def test_repeat_request_hits_response_memory(self, serial_service):
        _, client = serial_service
        first = client.sweep(roles=["dns"], max_replicas=2)
        before = client.metrics()["counters"]["response_cache_hits"]
        second = client.sweep(roles=["dns"], max_replicas=2)
        after = client.metrics()["counters"]["response_cache_hits"]
        assert second == first
        assert after == before + 1

    def test_roles_accept_comma_string(self, serial_service):
        _, client = serial_service
        served = client.sweep(roles="dns,web", max_replicas=1)
        assert served["roles"] == ["dns", "web"]


class TestValidation:
    def test_unknown_field_is_400(self, serial_service):
        _, client = serial_service
        status, body = client.request("POST", "/v1/sweep", {"bogus": 1})
        assert status == 400
        assert "bogus" in body["error"]["message"]

    def test_budget_enforced(self, serial_service):
        _, client = serial_service
        with pytest.raises(EvaluationError, match="budget"):
            client.sweep(roles=["dns"], max_replicas=9, max_designs=4)

    def test_request_cannot_raise_service_budget(self, serial_service):
        # 4 roles x max_replicas 3 = 81 designs > the service's 32 cap,
        # regardless of the huge per-request budget.
        _, client = serial_service
        with pytest.raises(EvaluationError, match="budget"):
            client.sweep(max_replicas=3, max_designs=10_000)

    def test_campaign_and_phases_exclusive(self, serial_service):
        _, client = serial_service
        status, body = client.request(
            "POST",
            "/v1/timeline",
            {
                "options": {
                    "campaign": {"phases": [{"name": "x"}]},
                    "phases": "x:1",
                }
            },
        )
        assert status == 400
        assert "mutually exclusive" in body["error"]["message"]

    def test_bad_json_body_is_400(self, serial_service):
        import http.client

        service, _ = serial_service
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/sweep",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "invalid JSON" in body["error"]["message"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"roles": 7},
            {"roles": []},
            {"max_replicas": 0},
            {"max_replicas": True},
            {"max_total": -1},
            {"roles": ["dns"], "variants": "false"},
            {"roles": ["dns"], "variants": 1},
        ],
    )
    def test_bad_space_fields_are_400(self, serial_service, payload):
        _, client = serial_service
        status, _ = client.request("POST", "/v1/sweep", {"space": payload})
        assert status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            {"times": []},
            {"times": ["soon"]},
            {"horizon": "late"},
            {"points": 2.5},
            {"phases": ["canary"]},
            {"horizon": -5},
            {"points": 1},
            {"times": [-1.0, 2.0]},
            {"times": ["720"]},
            {"times": [True]},
        ],
    )
    def test_bad_timeline_fields_are_400(self, serial_service, payload):
        _, client = serial_service
        status, _ = client.request("POST", "/v1/timeline", {"options": payload})
        assert status == 400

    def test_unknown_path_is_404(self, serial_service):
        _, client = serial_service
        status, body = client.request("GET", "/nope")
        assert status == 404
        assert "/v1/sweep" in body["error"]["message"]

    @pytest.mark.parametrize(
        "method, path",
        [
            ("POST", "/sweep"),
            ("POST", "/timeline"),
            ("GET", "/healthz"),
            ("GET", "/metrics"),
        ],
    )
    def test_unversioned_path_is_not_found(self, serial_service, method, path):
        _, client = serial_service
        payload = {"roles": ["dns"]} if method == "POST" else None
        status, body = client.request(method, path, payload)
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert set(body["error"]) == {"code", "message", "detail"}

    def test_wrong_method_is_405(self, serial_service):
        _, client = serial_service
        assert client.request("GET", "/v1/sweep")[0] == 405
        assert client.request("POST", "/v1/healthz")[0] == 405


class TestDedup:
    def test_identical_inflight_requests_share_one_computation(self):
        service = EvaluationService(max_designs=32)
        original = service._sweep_job
        started, release = threading.Event(), threading.Event()

        def slow_job(engine, space, designs, **kwargs):
            started.set()
            release.wait(timeout=30)
            return original(engine, space, designs, **kwargs)

        service._sweep_job = slow_job
        client = service.start_in_thread()
        try:
            # Counters are process-wide (registry families): compare deltas.
            before = client.metrics()["counters"]
            results = [None] * 4

            def hit(position):
                results[position] = client.sweep(roles=["dns"], max_replicas=2)

            threads = [
                threading.Thread(target=hit, args=(position,))
                for position in range(4)
            ]
            for thread in threads:
                thread.start()
            assert started.wait(timeout=30)
            time.sleep(0.2)  # let the rest queue up behind the in-flight key
            release.set()
            for thread in threads:
                thread.join(timeout=60)
            counters = client.metrics()["counters"]
            assert counters["computed"] - before["computed"] == 1
            assert (
                counters["dedup_hits"]
                + counters["response_cache_hits"]
                - before["dedup_hits"]
                - before["response_cache_hits"]
                == 3
            )
            assert all(result == results[0] for result in results)
        finally:
            release.set()
            service.close()


class TestLifecycle:
    def test_start_twice_raises(self):
        service = EvaluationService()
        client = service.start_in_thread()
        try:
            with pytest.raises(EvaluationError, match="already started"):
                service.start_in_thread()
            assert client.healthz()["status"] == "ok"
        finally:
            service.close()

    def test_close_is_idempotent_and_frees_the_port(self):
        service = EvaluationService()
        client = service.start_in_thread()
        host, port = service.address
        assert client.healthz()["status"] == "ok"
        service.close()
        service.close()
        probe = ServiceClient(host, port, timeout=5)
        with pytest.raises(EvaluationError):
            probe.wait_until_ready(timeout=1.0, interval=0.1)

    def test_context_manager_closes(self):
        with EvaluationService() as service:
            client = service.start_in_thread()
            assert client.healthz()["status"] == "ok"
        assert service._closed

    def test_invalid_max_designs_rejected(self):
        with pytest.raises(Exception):
            EvaluationService(max_designs=0)

    def test_thread_executor_rejected(self):
        # Every lane evaluates in-process: the service takes no executor.
        for name in ("thread", "process"):
            with pytest.raises(TypeError):
                EvaluationService(executor=name)
        with pytest.raises(TypeError):
            EvaluationService(max_workers=2)

    def test_client_reports_unreachable_service(self):
        client = ServiceClient("127.0.0.1", 1, timeout=2)
        with pytest.raises(EvaluationError, match="not ready"):
            client.wait_until_ready(timeout=0.5, interval=0.1)


class TestObservability:
    def test_metrics_includes_registry(self, serial_service):
        _, client = serial_service
        client.sweep(roles=["dns"], max_replicas=1)
        payload = client.metrics()
        registry = payload["registry"]
        assert "repro_service_requests_total" in registry
        entry = registry["repro_service_requests_total"]
        assert entry["kind"] == "counter"
        assert any(
            series["labels"].get("endpoint") == "/sweep"
            for series in entry["series"]
        )

    def test_latency_aggregate_shape(self, serial_service):
        _, client = serial_service
        client.sweep(roles=["dns"], max_replicas=1)
        stats = client.metrics()["latency"]["/sweep"]
        assert set(stats) == {
            "count",
            "total_s",
            "mean_s",
            "min_s",
            "max_s",
        }
        assert stats["count"] >= 1
        assert 0 <= stats["min_s"] <= stats["mean_s"] <= stats["max_s"]
        assert stats["mean_s"] == pytest.approx(
            stats["total_s"] / stats["count"], abs=1e-5
        )

    def test_counter_monotonicity_across_request_mix(self, serial_service):
        _, client = serial_service
        payload = {"roles": ["web"], "max_replicas": 2}
        client.sweep(**payload)  # computed (or already cached)
        before = client.metrics()["counters"]

        client.sweep(**payload)  # response-memory hit
        status, _ = client.request(  # error
            "POST", "/v1/sweep", {"space": {"roles": []}}
        )
        assert status == 400
        after = client.metrics()["counters"]

        assert after["requests_total"] > before["requests_total"]
        assert after["response_cache_hits"] == before["response_cache_hits"] + 1
        assert after["errors"] == before["errors"] + 1
        assert after["computed"] == before["computed"]
        for key in ("requests_total", "response_cache_hits", "errors"):
            assert after[key] >= before[key]

    def test_error_requests_record_latency(self, serial_service):
        _, client = serial_service
        before = (
            client.metrics()["latency"].get("/sweep#errors", {}).get("count", 0)
        )
        status, _ = client.request("POST", "/v1/sweep", {"space": {"roles": []}})
        assert status == 400
        stats = client.metrics()["latency"]["/sweep#errors"]
        assert stats["count"] == before + 1
        assert stats["min_s"] >= 0

    def test_prometheus_exposition(self, serial_service):
        _, client = serial_service
        client.sweep(roles=["dns"], max_replicas=1)
        text = client.metrics_text()
        lines = text.splitlines()
        assert "# TYPE repro_service_requests_total counter" in lines
        assert any(
            line.startswith("repro_service_requests_total{")
            and 'endpoint="/metrics"' in line
            for line in lines
        )
        assert "# TYPE repro_service_request_seconds histogram" in lines
        assert any(
            line.startswith("repro_service_request_seconds_bucket{")
            and 'le="+Inf"' in line
            for line in lines
        )
        # Every sample line parses as <name>{labels} <number> or <name> <number>
        for line in lines:
            if not line or line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part
            float(value)

    def test_metrics_without_accept_header_stays_json(self, serial_service):
        _, client = serial_service
        status, payload = client.request("GET", "/v1/metrics")
        assert status == 200
        assert isinstance(payload, dict)
        assert set(payload) >= {"counters", "latency", "registry"}

    def test_healthz_reports_registry(self, serial_service):
        _, client = serial_service
        health = client.healthz()
        assert "registry" in health
        assert "repro_service_requests_total" in health["registry"]

    def test_access_log_line_shape(self, serial_service, caplog):
        import logging

        _, client = serial_service
        with caplog.at_level(logging.INFO, logger="repro.serve.access"):
            client.healthz()
            # The access line is written by the server thread after the
            # response; give it a moment to land.
            deadline = time.monotonic() + 5.0
            records = []
            while not records and time.monotonic() < deadline:
                records = [
                    r
                    for r in caplog.records
                    if r.name == "repro.serve.access"
                ]
                if not records:
                    time.sleep(0.01)
        assert records
        line = json.loads(records[-1].getMessage())
        assert line["method"] == "GET"
        assert line["path"] == "/v1/healthz"
        assert line["status"] == 200
        assert line["duration_ms"] >= 0
