"""One request path: the CLI answers a request as ``repro serve`` does.

``repro sweep|timeline --json`` parses, enumerates and evaluates a
request through :mod:`repro.evaluation.api` and
``SweepEngine.for_space``, as every service lane does, so its output is
the raw ``/v1`` body of the same request, fresh or remembered.  The
service looks a request up before it enumerates anything: a remembered
answer or a joined computation costs no enumeration, yet is still
checked against the request's own design budget.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro import observability
from repro.__main__ import main
from repro.evaluation import api
from repro.evaluation.service import EvaluationService

CAMPAIGN = {
    "name": "two-step",
    "phases": [
        {
            "name": "canary",
            "rate_multiplier": 0.1,
            "duration_hours": 48,
            "canary_hosts": 1,
        },
        {"name": "fleet", "rate_multiplier": 1.0},
    ],
}

#: ``(id, CLI arguments, /v1 path, /v1 body)``; ``CAMPAIGN_FILE`` in the
#: arguments stands for a file holding :data:`CAMPAIGN`.
CASES = [
    (
        "sweep-max-total",
        ["sweep", "--roles", "dns,web,app", "--max-total", "4"],
        "/v1/sweep",
        {"space": {"roles": ["dns", "web", "app"], "max_total": 4}},
    ),
    (
        "sweep-variants",
        ["sweep", "--variants", "--roles", "web,app"],
        "/v1/sweep",
        {"space": {"roles": ["web", "app"], "variants": True}},
    ),
    (
        "sweep-scaled",
        ["sweep", "--scaled", "3x4"],
        "/v1/sweep",
        {"space": {"scaled": "3x4"}},
    ),
    (
        "timeline-phases",
        [
            "timeline", "--roles", "dns,web", "--points", "6",
            "--phases", "canary:0.1:48,fleet:1.0",
        ],
        "/v1/timeline",
        {
            "space": {"roles": ["dns", "web"]},
            "options": {"points": 6, "phases": "canary:0.1:48,fleet:1.0"},
        },
    ),
    (
        "timeline-times",
        ["timeline", "--roles", "dns,web", "--times", "0,1.5,24,100"],
        "/v1/timeline",
        {"space": {"roles": ["dns", "web"]}, "options": {"times": [0, 1.5, 24, 100]}},
    ),
    (
        "timeline-campaign-file",
        [
            "timeline", "--roles", "dns,web", "--points", "5",
            "--campaign", "CAMPAIGN_FILE",
        ],
        "/v1/timeline",
        {
            "space": {"roles": ["dns", "web"]},
            "options": {"points": 5, "campaign": CAMPAIGN},
        },
    ),
]


def _post(port: int, path: str, payload: dict) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        connection.request(
            "POST", path, body=json.dumps(payload).encode(),
            headers={"Connection": "close"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.fixture(scope="module")
def port():
    with EvaluationService() as service:
        service.start_in_thread()
        yield service.address[1]


class TestCliAnswersLikeTheService:
    @pytest.mark.parametrize(
        "argv, path, payload",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_json_output_is_the_v1_body(
        self, argv, path, payload, port, tmp_path, capsys
    ):
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(CAMPAIGN))
        argv = [str(spec) if arg == "CAMPAIGN_FILE" else arg for arg in argv]
        assert main([*argv, "--json"]) == 0
        printed = capsys.readouterr().out.encode()
        fresh = _post(port, path, payload)
        remembered = _post(port, path, payload)
        assert fresh == remembered == (200, printed)


class TestCliRefusesWhatV1Refuses:
    def test_max_total_zero_exits_2(self, capsys):
        assert main(["sweep", "--roles", "dns", "--max-total", "0"]) == 2
        assert "max_total must be a positive integer" in capsys.readouterr().err

    def test_more_than_the_time_point_cap_exits_2(self, capsys):
        points = str(api.MAX_TIME_POINTS + 1)
        assert main(["timeline", "--roles", "dns", "--points", points]) == 2
        assert "time points" in capsys.readouterr().err


@pytest.fixture
def enumerations(monkeypatch):
    """How many times ``api.iter_space`` has been called."""
    calls = []
    iter_space = api.iter_space

    def counted(space):
        calls.append(space)
        return iter_space(space)

    monkeypatch.setattr(api, "iter_space", counted)
    return calls


def _dedup_hits() -> float:
    family = observability.REGISTRY.counter("repro_service_cache_hits_total")
    return family.labels(tier="dedup").value


SPACE = {"space": {"roles": ["dns", "web"], "max_replicas": 2}}
SMALLER_BUDGET = {**SPACE, "options": {"max_designs": 3}}


class TestLookupBeforeEnumeration:
    def test_a_remembered_answer_enumerates_nothing(self, enumerations):
        with EvaluationService() as service:
            service.start_in_thread()
            port = service.address[1]
            fresh = _post(port, "/v1/sweep", SPACE)
            assert len(enumerations) == 1
            assert _post(port, "/v1/sweep", SPACE) == fresh
            status, body = _post(port, "/v1/sweep", SMALLER_BUDGET)
        assert len(enumerations) == 1
        # Four designs are over a budget of three, remembered or not.
        assert status == 400
        assert json.loads(body)["error"]["code"] == "over_budget"

    def test_a_dedup_joiner_enumerates_nothing(self, enumerations):
        service = EvaluationService()
        original = service._sweep_job
        started, release = threading.Event(), threading.Event()

        def slow_job(engine, space, designs, **kwargs):
            started.set()
            release.wait(timeout=30)
            return original(engine, space, designs, **kwargs)

        service._sweep_job = slow_job
        with service:
            service.start_in_thread()
            port = service.address[1]
            answers = []

            def ask() -> None:
                answers.append(_post(port, "/v1/sweep", SPACE))

            first = threading.Thread(target=ask)
            first.start()
            assert started.wait(timeout=30)
            joins = _dedup_hits()
            joiner = threading.Thread(target=ask)
            joiner.start()
            wait_until = time.monotonic() + 30
            while _dedup_hits() == joins and time.monotonic() < wait_until:
                time.sleep(0.01)
            refused = _post(port, "/v1/sweep", SMALLER_BUDGET)
            release.set()
            first.join(timeout=60)
            joiner.join(timeout=60)
        assert _dedup_hits() == joins + 1
        assert len(enumerations) == 1
        assert len(answers) == 2 and answers[0] == answers[1]
        assert answers[0][0] == 200
        assert refused[0] == 400
        assert json.loads(refused[1])["error"]["code"] == "over_budget"
