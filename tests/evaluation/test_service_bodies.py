"""Answers encoded once, on their lane, and remembered as bytes.

A plain ``/v1`` answer is encoded on the lane thread that computed it;
the shared future, every dedup joiner and the response memory hold the
bytes, and the event loop only writes them.  The response memory is
bounded by count and by summed size, and keeps only answers a later
request can hit.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro import observability
from repro.evaluation import SweepEngine, api
from repro.evaluation import service as service_module
from repro.evaluation.service import EvaluationService
from repro.observability import tracing

ROLES = ["dns", "web", "app", "db"]


def _send(port: int, method: str, path: str, payload=None) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        connection.request(method, path, body=body, headers={"Connection": "close"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _sweep(port: int, roles, max_replicas: int, **fields) -> tuple[int, bytes]:
    payload = {"space": {"roles": list(roles), "max_replicas": max_replicas}}
    return _send(port, "POST", "/v1/sweep", {**payload, **fields})


def _expected_sweep(roles, max_replicas: int) -> bytes:
    designs = api.enumerate_space(
        api.SpaceSpec(roles=tuple(roles), max_replicas=max_replicas)
    )
    payload = api.sweep_response(
        list(roles), max_replicas, None, False, "serial",
        SweepEngine().evaluate(designs),
    )
    return (json.dumps(payload, indent=2) + "\n").encode()


def _response_hits() -> float:
    family = observability.REGISTRY.counter("repro_service_cache_hits_total")
    return family.labels(tier="response").value


def _held(service: EvaluationService) -> int:
    return sum(len(body) for body in service._responses.values())


@pytest.fixture
def bounded_service(monkeypatch):
    """A service whose response memory holds at most 5,000 bytes."""
    monkeypatch.setattr(service_module, "_MAX_REMEMBERED_BYTES", 5_000)
    service = EvaluationService(max_designs=81)
    service.start_in_thread()
    yield service, service.address[1]
    service.close()


class TestResponseMemory:
    def test_total_never_exceeds_the_bound(self, bounded_service):
        service, port = bounded_service
        spaces = [
            (roles, replicas)
            for roles in (["dns"], ["web"], ["dns", "web"], ["app", "db"],
                          ["web", "app"], ["dns", "db"])
            for replicas in (1, 2)
        ]
        sizes = []
        for roles, replicas in spaces:
            status, body = _sweep(port, roles, replicas)
            assert status == 200
            sizes.append(len(body))
            assert _held(service) <= 5_000
            # The newest answer is always kept when it fits.
            assert body in service._responses.values()
        # Together the answers overflow the bound, so some were evicted.
        assert sum(sizes) > 5_000
        assert len(service._responses) < len(spaces)

    def test_oldest_answers_are_evicted_first(self, bounded_service):
        service, port = bounded_service
        for roles in (["dns"], ["web"], ["app"], ["db"], ["dns", "web"]):
            _sweep(port, roles, 2)
        kept = [json.loads(key)["roles"] for key in service._responses]
        assert kept[-1] == ["dns", "web"]
        assert ["dns"] not in kept

    def test_a_repeat_counts_a_response_hit(self, bounded_service):
        service, port = bounded_service
        first = _sweep(port, ["dns", "web"], 2)
        before = _response_hits()
        second = _sweep(port, ["dns", "web"], 2)
        assert _response_hits() == before + 1
        assert second == first
        assert first[1] == _expected_sweep(["dns", "web"], 2)

    def test_an_over_bound_answer_is_served_but_not_kept(self, bounded_service):
        service, port = bounded_service
        _sweep(port, ["dns"], 2)
        remembered = dict(service._responses)
        status, body = _sweep(port, ["dns", "web", "app"], 3)
        assert status == 200
        assert len(body) > 5_000
        assert body == _expected_sweep(["dns", "web", "app"], 3)
        assert service._responses == remembered
        # A repeat is computed again, not a response-memory hit.
        before = _response_hits()
        assert _sweep(port, ["dns", "web", "app"], 3) == (200, body)
        assert _response_hits() == before

    def test_a_deadline_request_leaves_the_memory_unchanged(self, bounded_service):
        service, port = bounded_service
        _sweep(port, ["dns"], 2)
        remembered = dict(service._responses)
        status, body = _sweep(port, ["web"], 2, deadline_ms=60_000)
        assert status == 200
        assert body == _expected_sweep(["web"], 2)
        assert service._responses == remembered


class TestEncodedOnTheLane:
    def test_fresh_and_remembered_bodies_equal_the_cli_bytes(self):
        with EvaluationService() as service:
            service.start_in_thread()
            port = service.address[1]
            fresh = _sweep(port, ["dns", "web"], 2)
            remembered = _sweep(port, ["dns", "web"], 2)
        expected = _expected_sweep(["dns", "web"], 2)
        assert fresh == remembered == (200, expected)

    def test_encode_span_carries_the_body_size(self):
        was_enabled = tracing.set_enabled(True)
        tracing.drain()
        try:
            with EvaluationService() as service:
                service.start_in_thread()
                status, body = _sweep(service.address[1], ["db"], 2)
        finally:
            spans = [e for e in tracing.drain() if e["name"] == "service:encode"]
            tracing.set_enabled(was_enabled)
        assert status == 200
        assert [span["args"]["bytes"] for span in spans] == [len(body)]

    def test_healthz_answers_while_a_large_timeline_is_encoded(self):
        # dns,web,app,db max 3 over 1,000 points: 81,000 cells, a 19 MB
        # body.  Encoded on the event loop, it kept every other
        # connection waiting for 85-90% of the request (a 1.2 s wait on
        # a 1.5 s answer).  Encoded on the lane, a healthz round trip
        # costs a few interpreter-lock handoffs (5 ms each) between the
        # lane, the loop and this process's client threads: 9-15% of
        # the answer's time.  The bound is relative, so a faster or
        # slower host moves both sides alike.
        with EvaluationService(max_designs=81) as service:
            service.start_in_thread()
            port = service.address[1]
            assert _sweep(port, ROLES, 3)[0] == 200  # warm the lane
            answer: dict = {}
            finished = threading.Event()

            def large_timeline() -> None:
                start = time.perf_counter()
                answer["status"], answer["body"] = _send(
                    port, "POST", "/v1/timeline",
                    {"space": {"roles": ROLES, "max_replicas": 3},
                     "options": {"points": 1_000}},
                )
                answer["seconds"] = time.perf_counter() - start
                finished.set()

            thread = threading.Thread(target=large_timeline)
            thread.start()
            waits = []
            while not finished.is_set():
                start = time.perf_counter()
                status, _ = _send(port, "GET", "/v1/healthz")
                waits.append(time.perf_counter() - start)
                assert status == 200
                time.sleep(0.005)
            thread.join(timeout=300)
        assert answer["status"] == 200
        assert len(answer["body"]) > 10_000_000
        assert len(waits) >= 3
        assert max(waits) < 0.5 * answer["seconds"], (max(waits), answer["seconds"])
