"""Tests for the canonical request/response schema module."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ValidationError
from repro.evaluation import api
from repro.evaluation.sweep import enumerate_designs, pareto_front


class TestErrorEnvelope:
    def test_shape_and_default_detail(self):
        payload = api.error_payload(api.ERROR_SATURATED, "busy")
        assert payload == {
            "error": {"code": "saturated", "message": "busy", "detail": {}}
        }

    def test_detail_passthrough(self):
        payload = api.error_payload(
            api.ERROR_DEADLINE_EXCEEDED, "late", {"deadline_ms": 5.0}
        )
        assert payload["error"]["detail"] == {"deadline_ms": 5.0}


class TestSpaceSpec:
    def test_defaults(self):
        space = api.SpaceSpec.from_payload({})
        assert space.roles == ("dns", "web", "app", "db")
        assert space.max_replicas == 2
        assert space.max_total is None
        assert space.variants is False
        assert space.scaled is None
        assert space.context_label() == "default"

    def test_comma_string_roles(self):
        space = api.SpaceSpec.from_payload({"roles": "dns, web,dns"})
        assert space.roles == ("dns", "web")

    def test_scaled_string_and_list(self):
        for value in ("3x2", [3, 2]):
            space = api.SpaceSpec.from_payload({"scaled": value})
            assert space.scaled == (3, 2)
            assert space.context_label() == "scaled:3x2"

    @pytest.mark.parametrize(
        "value", ["lots", "0x4", "3x0", [3], [3, True], "100000x62"]
    )
    def test_bad_scaled_specs_rejected(self, value):
        # 100000x62 has 10^310 attack paths, more than a float counts.
        with pytest.raises(ValidationError):
            api.SpaceSpec.from_payload({"scaled": value})

    def test_scaled_path_count_bound_is_the_float_range(self):
        # 10^305 paths still fit; 1 host per tier is one path at any depth.
        assert api.parse_scaled("100000x61") == (100000, 61)
        assert api.parse_scaled([1, 1000]) == (1, 1000)
        with pytest.raises(ValidationError, match="attack paths"):
            api.parse_scaled([2, 10**400])

    def test_scaled_excludes_variants(self):
        with pytest.raises(ValidationError, match="mutually exclusive"):
            api.SpaceSpec.from_payload({"scaled": "3x2", "variants": True})

    def test_round_trip(self):
        space = api.SpaceSpec.from_payload(
            {"roles": ["dns"], "max_replicas": 3, "scaled": "2x2"}
        )
        assert api.SpaceSpec.from_payload(space.to_payload()) == space


class TestRequests:
    def test_flat_request_fields_rejected(self):
        with pytest.raises(ValidationError, match="unknown sweep"):
            api.SweepRequest.from_payload({"roles": ["dns"], "max_replicas": 2})
        with pytest.raises(ValidationError, match="unknown timeline"):
            api.TimelineRequest.from_payload({"horizon": 100})

    def test_v1_sweep_envelope(self):
        request = api.SweepRequest.from_payload(
            {
                "space": {"roles": ["dns", "web"], "max_replicas": 3},
                "options": {"max_designs": 5, "shard": {"index": 1, "count": 2}},
                "priority": "batch",
                "deadline_ms": 1500,
                "stream": True,
            }
        )
        assert request.space.roles == ("dns", "web")
        assert request.max_designs == 5
        assert request.shard == api.ShardSpec(index=1, count=2)
        assert request.priority == "batch"
        assert request.deadline_ms == 1500.0
        assert request.stream is True

    def test_v1_sweep_rejects_timeline_options(self):
        with pytest.raises(ValidationError, match="unknown options"):
            api.SweepRequest.from_payload(
                {"space": {}, "options": {"horizon": 100}}
            )

    def test_v1_timeline_options(self):
        request = api.TimelineRequest.from_payload(
            {
                "space": {"roles": ["dns"]},
                "options": {
                    "horizon": 100,
                    "points": 4,
                    "phases": "canary:0.1:48,fleet:1.0",
                },
            }
        )
        assert len(request.times) == 4
        assert request.campaign is not None
        assert "campaign:" in request.context_label()

    def test_canonical_ignores_transport_fields(self):
        base = {"space": {"roles": ["dns"]}}
        plain = api.SweepRequest.from_payload(base)
        tweaked = api.SweepRequest.from_payload(
            {**base, "priority": "batch", "deadline_ms": 1000}
        )
        # priority/deadline change how a request runs, not what it
        # computes — deadline uniqueness is added by the service layer.
        assert plain.canonical() == tweaked.canonical()

    def test_shard_changes_canonical(self):
        plain = api.SweepRequest.from_payload({"space": {"roles": ["dns"]}})
        sharded = api.SweepRequest.from_payload(
            {
                "space": {"roles": ["dns"]},
                "options": {"shard": {"index": 0, "count": 2}},
            }
        )
        assert plain.canonical() != sharded.canonical()

    def test_to_payload_round_trip(self):
        request = api.TimelineRequest.from_payload(
            {
                "space": {"roles": ["dns"], "max_replicas": 2},
                "options": {"times": [1.0, 2.0]},
                "priority": "batch",
            }
        )
        again = api.TimelineRequest.from_payload(request.to_payload())
        assert again == request

    def test_non_finite_numbers_rejected(self):
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="finite horizon"):
                api.parse_times({"horizon": horizon})
            with pytest.raises(ValidationError, match="deadline_ms"):
                api.parse_deadline_ms(horizon)

    def test_time_points_capped(self):
        cap = api.MAX_TIME_POINTS
        assert len(api.parse_times({"points": cap})) == cap
        assert len(api.parse_times({"times": [1.0] * cap})) == cap
        for options in ({"points": cap + 1}, {"times": [1.0] * (cap + 1)}):
            with pytest.raises(api.OverBudgetError, match="time points"):
                api.parse_times(options)
        # Checked before the grid is built: a huge count fails at once.
        with pytest.raises(api.OverBudgetError):
            api.parse_times({"points": 10**12})

    def test_invalid_shard_specs(self):
        for value in ({"index": 2, "count": 2}, {"count": 2, "extra": 1}, {"index": 0}):
            with pytest.raises(ValidationError):
                api.ShardSpec.from_payload(value)


class TestSharding:
    def test_shard_of_partitions_and_is_stable(self):
        designs = list(
            enumerate_designs(["dns", "web", "app"], max_replicas=3)
        )
        assignment = [api.shard_of(d, 3) for d in designs]
        assert assignment == [api.shard_of(d, 3) for d in designs]
        assert set(assignment) <= {0, 1, 2}
        # All shards together cover the space exactly once.
        specs = [api.ShardSpec(index=i, count=3) for i in range(3)]
        owned = [sum(spec.owns(d) for spec in specs) for d in designs]
        assert owned == [1] * len(designs)

    def test_two_way_split_is_nontrivial_on_27_designs(self):
        designs = list(
            enumerate_designs(["dns", "web", "app"], max_replicas=3)
        )
        first = [d for d in designs if api.shard_of(d, 2) == 0]
        assert 0 < len(first) < len(designs)


class TestResponses:
    def test_sweep_response_schema_version_and_order(self):
        from repro.evaluation import SweepEngine

        designs = list(enumerate_designs(["dns"], max_replicas=2))
        evaluations = SweepEngine().evaluate(designs)
        payload = api.sweep_response(["dns"], 2, None, False, "serial", evaluations)
        assert list(payload) == [
            "schema_version",
            "roles",
            "max_replicas",
            "max_total",
            "variants",
            "executor",
            "design_count",
            "designs",
        ]
        assert payload["schema_version"] == api.SCHEMA_VERSION == 3
        assert payload["design_count"] == len(designs)
        round_tripped = api.SweepResponse.from_payload(payload).to_payload()
        assert round_tripped == payload

    def test_pareto_flags_match_pareto_front(self):
        from repro.evaluation import SweepEngine

        designs = list(
            enumerate_designs(["dns", "web", "app"], max_replicas=3)
        )
        engine = SweepEngine()
        evaluations = engine.evaluate(designs)
        payload = api.sweep_response(
            ["dns", "web", "app"], 3, None, False, "serial", evaluations
        )
        front = {id(e) for e in pareto_front(evaluations, after_patch=True)}
        expected = [id(e) in front for e in evaluations]
        wire = json.loads(json.dumps(payload))
        assert api.pareto_flags(wire["designs"]) == expected
        assert [d["pareto"] for d in wire["designs"]] == expected

    def test_pareto_flags_empty(self):
        assert api.pareto_flags([]) == []

    def test_canonical_json_is_order_independent(self):
        a = api.canonical_json({"b": 1, "a": 2})
        b = api.canonical_json({"a": 2, "b": 1})
        assert a == b
