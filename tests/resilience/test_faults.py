"""Unit tests for the deterministic fault-injection harness."""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import FaultInjected, ValidationError
from repro.resilience import FaultPlan, fault_point
from repro.resilience.faults import ENV_PLAN, FaultSpec
from repro.resilience import faults as faults_mod


class TestFaultSpec:
    def test_parse_full_spec(self):
        spec = FaultSpec.parse("cache.write:error@2")
        assert spec == FaultSpec(point="cache.write", action="error", hit=2)

    def test_hit_defaults_to_first_arrival(self):
        assert FaultSpec.parse("cache.write:error").hit == 1

    def test_whitespace_and_case_tolerated(self):
        spec = FaultSpec.parse("  solver.iterative : FAIL @ 3 ")
        assert spec.action == "fail"
        assert spec.hit == 3

    @pytest.mark.parametrize(
        "text",
        [
            "nocolon",
            ":error@1",
            "point:explode@1",
            "point:kill@1",
            "point:error@x",
            "point:error@0",
        ],
    )
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(ValidationError):
            FaultSpec.parse(text)

    def test_token_is_filesystem_safe(self):
        assert os.sep not in FaultSpec.parse("a.b:error@2").token


def plan_for(raw: str) -> FaultPlan:
    specs = [FaultSpec.parse(part) for part in raw.split(";") if part.strip()]
    return FaultPlan(specs)


class TestFaultPlan:
    def test_from_env_without_plan_is_none(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({ENV_PLAN: "  "}) is None

    def test_fires_on_the_named_hit_only(self):
        plan = plan_for("solver.iterative:fail@3")
        plan.trigger("solver.iterative")
        plan.trigger("solver.iterative")
        with pytest.raises(FaultInjected):
            plan.trigger("solver.iterative")

    def test_fires_exactly_once(self):
        plan = plan_for("cache.write:error@1")
        with pytest.raises(FaultInjected):
            plan.trigger("cache.write")
        # Hit counts keep advancing past the armed first hit.
        for _ in range(5):
            plan.trigger("cache.write")

    def test_concurrent_hits_fire_exactly_once(self):
        # The hit counter is kept under the plan's lock, so one of all
        # the threads' arrivals is the armed first hit.
        plan = plan_for("point:fail@1")
        raised = []
        start = threading.Barrier(8)

        def hammer() -> None:
            start.wait()
            for _ in range(100):
                try:
                    plan.trigger("point")
                except FaultInjected:
                    raised.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(raised) == 1

    def test_caller_supplied_error_is_raised(self):
        plan = plan_for("cache.read:error@1")
        with pytest.raises(OSError, match="injected lock"):
            plan.trigger("cache.read", error=OSError("injected lock"))

    def test_unarmed_points_are_free(self):
        plan = plan_for("cache.write:error@1")
        plan.trigger("solver.transient")  # nothing armed here

    def test_separate_specs_for_consecutive_hits(self):
        # The cache chaos drill arms one spec per retry attempt.
        plan = plan_for(
            "cache.write:error@1;cache.write:error@2;cache.write:error@3",
        )
        for _ in range(3):
            with pytest.raises(FaultInjected):
                plan.trigger("cache.write")
        plan.trigger("cache.write")  # fourth attempt sails through


class TestActivePlan:
    def test_fault_point_is_noop_without_a_plan(self):
        fault_point("cache.write")
        fault_point("anything.else")

    def test_fault_point_uses_the_env_plan(self, monkeypatch):
        monkeypatch.setenv(ENV_PLAN, "demo.point:fail@1")
        faults_mod.reset()
        with pytest.raises(FaultInjected):
            fault_point("demo.point")
        fault_point("demo.point")  # one-shot

    def test_plan_is_loaded_once_per_process(self, monkeypatch):
        faults_mod.reset()
        assert faults_mod.active_plan() is None
        # Setting the env after the first load changes nothing...
        monkeypatch.setenv(ENV_PLAN, "late.point:fail@1")
        assert faults_mod.active_plan() is None
        # ...until an explicit reset re-reads it.
        faults_mod.reset()
        assert faults_mod.active_plan() is not None

    def test_kill_action_is_refused(self, monkeypatch):
        # Nothing runs in a separate worker any more, so no action
        # simulates a worker death: the plan is refused when loaded,
        # and an engine is not built under it.
        from repro.evaluation import SweepEngine

        monkeypatch.setenv(ENV_PLAN, "cache.write:kill@1")
        faults_mod.reset()
        with pytest.raises(ValidationError, match="kill"):
            faults_mod.active_plan()
        with pytest.raises(ValidationError, match="kill"):
            SweepEngine()
