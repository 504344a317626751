"""Tests for the shard coordinator (``repro shard``)."""

from __future__ import annotations

import json
import socket

import pytest

from repro.errors import EvaluationError, ValidationError
from repro.evaluation import SweepEngine, api, enumerate_designs
from repro.evaluation.api import sweep_response, timeline_response
from repro.evaluation.service import EvaluationService
from repro.evaluation.sharding import ShardCoordinator, parse_endpoint
from repro.resilience.retry import RetryPolicy


@pytest.fixture(scope="module")
def shard_services(tmp_path_factory):
    """Two serial services sharing one sqlite cache (the result tier)."""
    cache = tmp_path_factory.mktemp("shards") / "shared.sqlite"
    services = [
        EvaluationService(
            max_designs=64, cache_path=str(cache)
        )
        for _ in range(2)
    ]
    clients = [service.start_in_thread() for service in services]
    yield services, clients
    for service in services:
        service.close()


def _endpoints(services):
    return [f"{s.address[0]}:{s.address[1]}" for s in services]


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("10.0.0.1:9000") == ("10.0.0.1", 9000)

    def test_bare_port_defaults_host(self):
        assert parse_endpoint("8351") == ("127.0.0.1", 8351)

    def test_invalid(self):
        for text in ("nope", "host:0", "host:notaport"):
            with pytest.raises(ValidationError):
                parse_endpoint(text)


class TestMerge:
    def test_sharded_sweep_is_byte_identical_to_single_engine(
        self, shard_services
    ):
        services, _ = shard_services
        roles = ["dns", "web", "app"]
        coordinator = ShardCoordinator(_endpoints(services))
        merged = coordinator.sweep(roles=roles, max_replicas=3)
        designs = list(enumerate_designs(roles, max_replicas=3))
        expected = sweep_response(
            roles, 3, None, False, "serial", SweepEngine().evaluate(designs)
        )
        assert json.dumps(merged, indent=2) == json.dumps(
            json.loads(json.dumps(expected)), indent=2
        )
        assert merged["design_count"] == 27

    def test_sharded_timeline_is_byte_identical_to_single_engine(
        self, shard_services
    ):
        from repro.evaluation.timeline import default_time_grid
        from repro.patching.campaign import PatchCampaign

        services, _ = shard_services
        coordinator = ShardCoordinator(_endpoints(services))
        merged = coordinator.timeline(
            roles=["dns", "web"],
            max_replicas=2,
            horizon=100,
            points=4,
            phases="canary:0.1:48,fleet:1.0",
        )
        times = default_time_grid(100.0, 4)
        campaign = PatchCampaign.parse("canary:0.1:48,fleet:1.0")
        designs = list(enumerate_designs(["dns", "web"], max_replicas=2))
        timelines = SweepEngine().timeline(designs, times, campaign=campaign)
        expected = timeline_response(
            ["dns", "web"], 2, None, False, "serial", campaign, times, timelines
        )
        assert json.dumps(merged, indent=2) == json.dumps(
            json.loads(json.dumps(expected)), indent=2
        )

    def test_single_endpoint_degenerates_to_plain_request(self, shard_services):
        services, clients = shard_services
        coordinator = ShardCoordinator(_endpoints(services)[:1])
        merged = coordinator.sweep(roles=["dns"], max_replicas=2)
        direct = clients[0].sweep(roles=["dns"], max_replicas=2)
        assert merged == direct

    def test_pareto_front_is_global_not_per_shard(self, shard_services):
        """A shard-local front is too generous; the merge must re-rank."""
        services, clients = shard_services
        roles = ["dns", "web", "app"]
        coordinator = ShardCoordinator(_endpoints(services))
        merged = coordinator.sweep(roles=roles, max_replicas=3)
        per_shard_front = 0
        for index in range(2):
            part = clients[0].sweep(
                roles=roles,
                max_replicas=3,
                shard={"index": index, "count": 2},
            )
            per_shard_front += sum(d["pareto"] for d in part["designs"])
        merged_front = sum(d["pareto"] for d in merged["designs"])
        assert merged_front <= per_shard_front


class TestFailover:
    def test_dead_primary_fails_over_to_survivor(self, shard_services):
        services, _ = shard_services
        # A bound-then-closed socket: connection refused immediately.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        live = _endpoints(services)[0]
        coordinator = ShardCoordinator(
            [live, f"127.0.0.1:{dead_port}"],
            retry=RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05),
        )
        roles = ["dns", "web", "app"]
        merged = coordinator.sweep(roles=roles, max_replicas=3)
        designs = list(enumerate_designs(roles, max_replicas=3))
        expected = sweep_response(
            roles, 3, None, False, "serial", SweepEngine().evaluate(designs)
        )
        assert merged == json.loads(json.dumps(expected))

    def test_all_endpoints_dead_raises_descriptively(self, monkeypatch):
        """The shard requests go out before the space is walked, so a
        10^12-design space fails on the endpoints, never enumerated."""
        real_iter_space = api.iter_space

        def bounded_iter_space(space):
            for count, design in enumerate(real_iter_space(space)):
                if count == 10_000:
                    raise AssertionError("coordinator walked past 10,000 designs")
                yield design

        monkeypatch.setattr(api, "iter_space", bounded_iter_space)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        coordinator = ShardCoordinator(
            [f"127.0.0.1:{dead_port}"],
            timeout=2.0,
            retry=RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05),
        )
        for roles, max_replicas in ((["dns"], 1), (["dns", "web", "app", "db"], 1000)):
            with pytest.raises(EvaluationError, match="failed on every endpoint"):
                coordinator.sweep(roles=roles, max_replicas=max_replicas)

    def test_injected_request_fault_recovers(
        self, shard_services, monkeypatch
    ):
        """A shard.request fault on the first attempt fails over and the
        merged payload stays byte-identical (the chaos-smoke path)."""
        from repro.resilience import faults

        services, _ = shard_services
        monkeypatch.setenv(faults.ENV_PLAN, "shard.request:error@1")
        faults.reset()
        try:
            coordinator = ShardCoordinator(
                _endpoints(services),
                retry=RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05),
            )
            merged = coordinator.sweep(roles=["dns", "web"], max_replicas=2)
        finally:
            monkeypatch.delenv(faults.ENV_PLAN, raising=False)
            faults.reset()
        designs = list(enumerate_designs(["dns", "web"], max_replicas=2))
        expected = sweep_response(
            ["dns", "web"], 2, None, False, "serial",
            SweepEngine().evaluate(designs),
        )
        assert merged == json.loads(json.dumps(expected))

    def test_needs_at_least_one_endpoint(self):
        with pytest.raises(ValidationError, match=">= 1 endpoint"):
            ShardCoordinator([])
