"""Resilience behaviour of the evaluation service and its client.

Covers the request-deadline 504 path (answered promptly, within the
acceptance bound of twice the budget), 503 + ``Retry-After`` load
shedding, the client's bounded 503 retry, SIGTERM-style draining and
the bounds on reading a request (408 and 431).
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.errors import DeadlineExceeded, EvaluationError
from repro.evaluation import service as service_module
from repro.evaluation.service import DEFAULT_MAX_QUEUE, EvaluationService, ServiceClient
from repro.resilience import RetryPolicy


@pytest.fixture
def service():
    created = []

    def make(**kwargs) -> tuple[EvaluationService, ServiceClient]:
        kwargs.setdefault("max_designs", 32)
        svc = EvaluationService(**kwargs)
        client = svc.start_in_thread()
        created.append(svc)
        return svc, client

    yield make
    for svc in created:
        svc.close()


def quiet_request(client: ServiceClient, payload: dict):
    """A background request that tolerates a severed connection."""

    def target():
        try:
            client.request("POST", "/v1/sweep", payload)
        except OSError:
            pass  # forced stop severs the transport; that's the point

    return threading.Thread(target=target)


def slow_sweep_job(svc: EvaluationService, release: threading.Event):
    """Replace the sweep job with one that blocks until *release*."""
    original = svc._sweep_job

    def job(engine, space, designs, **kwargs):
        release.wait(timeout=30)
        return original(engine, space, designs, **kwargs)

    svc._sweep_job = job


class TestDeadline504:
    def test_expired_deadline_answers_504_within_twice_the_budget(
        self, service
    ):
        svc, client = service()
        release = threading.Event()
        slow_sweep_job(svc, release)
        try:
            start = time.monotonic()
            status, body = client.request(
                "POST",
                "/v1/sweep",
                {"space": {"roles": ["dns"], "max_replicas": 2}, "deadline_ms": 250},
            )
            elapsed = time.monotonic() - start
        finally:
            release.set()
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"
        assert body["error"]["detail"]["deadline_ms"] == 250
        assert "deadline" in body["error"]["message"]
        assert elapsed < 2 * 0.25 + 0.3  # 2x budget plus transport slack

    def test_client_raises_the_typed_deadline_error(self, service):
        svc, client = service()
        release = threading.Event()
        slow_sweep_job(svc, release)
        try:
            with pytest.raises(DeadlineExceeded):
                client.sweep(roles=["dns"], max_replicas=2, deadline_ms=100)
        finally:
            release.set()
        with pytest.raises(EvaluationError) as excinfo:
            client.sweep(roles=["deadline_exceeded"], max_replicas=1)
        assert not isinstance(excinfo.value, DeadlineExceeded)

    def test_deadline_504_counts_as_an_error(self, service):
        svc, client = service()
        release = threading.Event()
        slow_sweep_job(svc, release)
        try:
            client.request(
                "POST",
                "/v1/sweep",
                {"space": {"roles": ["dns"], "max_replicas": 2}, "deadline_ms": 100},
            )
        finally:
            release.set()
        assert client.metrics()["counters"]["errors"] >= 1

    def test_request_without_deadline_is_unaffected(self, service):
        _, client = service()
        status, body = client.request(
            "POST", "/v1/sweep", {"space": {"roles": ["dns"], "max_replicas": 2}}
        )
        assert status == 200
        assert body["design_count"] > 0

    def test_invalid_deadline_is_a_400(self, service):
        _, client = service()
        for bad in (0, -5, "soon", True):
            status, body = client.request(
                "POST",
                "/v1/sweep",
                {"space": {"roles": ["dns"], "max_replicas": 2}, "deadline_ms": bad},
            )
            assert status == 400, bad
            assert "deadline_ms" in body["error"]["message"]


class TestSaturation503:
    def test_full_queue_sheds_load_with_retry_after(self, service):
        svc, client = service(max_queue=1, retry_after=2.0)
        release = threading.Event()
        slow_sweep_job(svc, release)
        occupier = threading.Thread(
            target=client.request,
            args=(
                "POST",
                "/v1/sweep",
                {"space": {"roles": ["dns"], "max_replicas": 2}},
            ),
        )
        occupier.start()
        try:
            deadline = time.monotonic() + 5
            while not svc._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert svc._inflight, "first request never occupied the queue"
            bare = ServiceClient(*svc.address, retry=None)
            status, body, retry_after = bare._request_once(
                "POST",
                "/v1/sweep",
                {"space": {"roles": ["web"], "max_replicas": 2}},
                None,
            )
        finally:
            release.set()
            occupier.join(timeout=30)
        assert status == 503
        assert body["error"]["code"] == "saturated"
        assert body["error"]["detail"]["retry_after_s"] == 2.0
        assert retry_after == 2.0  # the Retry-After header, parsed
        assert client.metrics()["counters"]["rejected"] >= 1

    def test_duplicate_of_inflight_request_is_still_admitted(self, service):
        # Dedup joins don't occupy new queue slots, so an identical
        # request never gets a 503 — it shares the running computation.
        svc, client = service(max_queue=1)
        release = threading.Event()
        slow_sweep_job(svc, release)
        results = {}

        def hit(name):
            results[name] = client.request(
                "POST", "/v1/sweep", {"space": {"roles": ["dns"], "max_replicas": 2}}
            )

        threads = [
            threading.Thread(target=hit, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert results["a"][0] == 200
        assert results["b"][0] == 200
        assert results["a"][1] == results["b"][1]

    def test_client_retries_503_until_capacity_returns(self, service):
        svc, client = service(max_queue=1, retry_after=1.0)
        release = threading.Event()
        slow_sweep_job(svc, release)
        occupier = threading.Thread(
            target=client.request,
            args=(
                "POST",
                "/v1/sweep",
                {"space": {"roles": ["dns"], "max_replicas": 2}},
            ),
        )
        occupier.start()
        try:
            deadline = time.monotonic() + 5
            while not svc._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            # Free the queue shortly after the retrying client's first
            # 503; its second attempt should then be admitted.
            threading.Timer(0.2, release.set).start()
            retrying = ServiceClient(
                *svc.address,
                retry=RetryPolicy(
                    attempts=5, base_delay=0.3, max_delay=0.3
                ),
            )
            status, body = retrying.request(
                "POST", "/v1/sweep", {"space": {"roles": ["web"], "max_replicas": 2}}
            )
        finally:
            release.set()
            occupier.join(timeout=30)
        assert status == 200
        assert body["design_count"] > 0

    def test_default_queue_bound_is_active(self, service):
        svc, _ = service()
        assert svc.max_queue == DEFAULT_MAX_QUEUE


class TestDrain:
    def test_draining_service_finishes_inflight_then_stops(self, service):
        svc, client = service(drain_grace=10.0)
        release = threading.Event()
        slow_sweep_job(svc, release)
        results = {}

        def hit():
            results["inflight"] = client.request(
                "POST", "/v1/sweep", {"space": {"roles": ["dns"], "max_replicas": 2}}
            )

        inflight = threading.Thread(target=hit)
        inflight.start()
        deadline = time.monotonic() + 5
        while not svc._inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        assert svc._inflight

        # SIGTERM equivalent for a thread-hosted service.
        svc._loop.call_soon_threadsafe(svc._begin_drain)
        deadline = time.monotonic() + 5
        while not svc._draining and time.monotonic() < deadline:
            time.sleep(0.01)

        # Reads still work and report the draining state...
        health = client.healthz()
        assert health["status"] == "draining"
        assert health["resilience"]["draining"] is True
        # ...but new computations are refused.
        bare = ServiceClient(*svc.address, retry=None)
        status, body = bare.request(
            "POST", "/v1/sweep", {"space": {"roles": ["web"], "max_replicas": 2}}
        )
        assert status == 503
        assert body["error"]["code"] == "saturated"
        assert "draining" in body["error"]["message"]

        # The in-flight request completes, then the server stops.
        release.set()
        inflight.join(timeout=30)
        assert results["inflight"][0] == 200
        svc._thread.join(timeout=10)
        assert not svc._thread.is_alive()

    def test_drain_grace_bounds_the_wait(self, service):
        svc, client = service(drain_grace=0.3)
        release = threading.Event()
        slow_sweep_job(svc, release)
        stuck = quiet_request(client, {"space": {"roles": ["dns"], "max_replicas": 2}})
        stuck.start()
        try:
            deadline = time.monotonic() + 5
            while not svc._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            svc._loop.call_soon_threadsafe(svc._begin_drain)
            # The job never finishes, but the grace period expires and
            # the listening socket closes: new connections are refused.
            deadline = time.monotonic() + 5
            bare = ServiceClient(*svc.address, retry=None)
            while time.monotonic() < deadline:
                try:
                    bare.request("GET", "/v1/healthz")
                except OSError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("listener still accepting after drain_grace")
        finally:
            release.set()
            stuck.join(timeout=30)
        svc._thread.join(timeout=10)
        assert not svc._thread.is_alive()


def raw_exchange(address, data: bytes) -> tuple[int, dict]:
    """Send raw request bytes; ``(status, parsed JSON body)`` of the answer.

    The service may answer and close before reading everything sent, so
    a failed send is tolerated: the answer is already on its way.
    """
    with socket.create_connection(address, timeout=30) as sock:
        try:
            sock.sendall(data)
        except OSError:
            pass
        response = b""
        try:
            while chunk := sock.recv(65536):
                response += chunk
        except ConnectionResetError:
            pass
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def healthz_request(header_lines: int) -> bytes:
    """``GET /v1/healthz`` with *header_lines* distinct header lines."""
    headers = "".join(f"X-Filler-{n}: {n}\r\n" for n in range(header_lines))
    return f"GET /v1/healthz HTTP/1.1\r\n{headers}\r\n".encode()


class TestBoundedReads:
    def test_header_count_at_the_cap_is_served(self, service):
        svc, _ = service()
        status, body = raw_exchange(
            svc.address, healthz_request(service_module._MAX_HEADER_LINES)
        )
        assert status == 200
        assert body["status"] == "ok"

    @pytest.mark.parametrize(
        "lines", [service_module._MAX_HEADER_LINES + 1, 20_000]
    )
    def test_too_many_header_lines_answer_431(self, service, lines):
        svc, _ = service()
        status, body = raw_exchange(svc.address, healthz_request(lines))
        assert status == 431
        assert body["error"]["code"] == "invalid_request"
        assert "header lines" in body["error"]["message"]

    def test_over_long_header_line_answers_431(self, service):
        svc, _ = service()
        request = (
            "GET /v1/healthz HTTP/1.1\r\n"
            f"X-Big: {'a' * 70_000}\r\n\r\n"
        ).encode()
        status, body = raw_exchange(svc.address, request)
        assert status == 431
        assert body["error"]["code"] == "invalid_request"
        assert "too long" in body["error"]["message"]

    def test_idle_connection_answers_408(self, service, monkeypatch):
        monkeypatch.setattr(service_module, "_READ_TIMEOUT_S", 0.3)
        svc, _ = service()
        start = time.monotonic()
        status, body = raw_exchange(svc.address, b"")
        elapsed = time.monotonic() - start
        assert status == 408
        assert body["error"]["code"] == "invalid_request"
        assert 0.3 <= elapsed < 0.3 + 5.0

    def test_trickled_body_answers_408(self, service, monkeypatch):
        monkeypatch.setattr(service_module, "_READ_TIMEOUT_S", 0.3)
        svc, _ = service()
        head = (
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"
        ).encode()
        status, body = raw_exchange(svc.address, head)
        assert status == 408
        assert body["error"]["code"] == "invalid_request"

    def test_drain_with_idle_connection_stops_within_read_deadline(
        self, service, monkeypatch
    ):
        read_timeout = 0.5
        monkeypatch.setattr(service_module, "_READ_TIMEOUT_S", read_timeout)
        svc, _ = service(drain_grace=30.0)
        with socket.create_connection(svc.address, timeout=30):
            deadline = time.monotonic() + 5
            while not svc._active_requests and time.monotonic() < deadline:
                time.sleep(0.01)
            assert svc._active_requests == 1
            start = time.monotonic()
            svc._loop.call_soon_threadsafe(svc._begin_drain)
            svc._thread.join(timeout=10)
            elapsed = time.monotonic() - start
        assert not svc._thread.is_alive()
        assert elapsed < read_timeout + 1.0


class TestLifecycleTimeouts:
    def test_timeout_parameters_are_validated(self):
        for field in (
            "startup_timeout",
            "shutdown_timeout",
            "retry_after",
            "drain_grace",
        ):
            with pytest.raises(EvaluationError):
                EvaluationService(**{field: 0})

    def test_stop_raises_descriptively_when_thread_hangs(self, service):
        svc, client = service(shutdown_timeout=0.3)
        blocking = threading.Event()
        original = svc._dispatch

        async def blocked_dispatch(*args):
            # Block the event loop itself: the stop event can be
            # scheduled but never processed, which is exactly the
            # "thread still serving" shape stop() must surface.
            blocking.set()
            time.sleep(1.5)
            return await original(*args)

        svc._dispatch = blocked_dispatch
        thread = svc._thread
        stuck = quiet_request(client, {"space": {"roles": ["dns"], "max_replicas": 2}})
        stuck.start()
        try:
            assert blocking.wait(timeout=5)
            with pytest.raises(EvaluationError, match="shutdown_timeout"):
                svc.stop()
        finally:
            stuck.join(timeout=30)
            thread.join(timeout=30)
