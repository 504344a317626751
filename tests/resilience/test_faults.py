"""Unit tests for the deterministic fault-injection harness."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.errors import FaultInjected, ValidationError
from repro.resilience import FaultPlan, fault_point
from repro.resilience.faults import ENV_PLAN, ENV_STATE, FaultSpec
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


def plan_for(raw: str, tmp_path) -> FaultPlan:
    specs = [FaultSpec.parse(part) for part in raw.split(";") if part.strip()]
    return FaultPlan(specs, str(tmp_path))


class TestFaultPlan:
    def test_from_env_without_plan_is_none(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({ENV_PLAN: "  "}) is None

    def test_from_env_materialises_shared_state(self):
        environ = {ENV_PLAN: "cache.write:error@1"}
        plan = FaultPlan.from_env(environ)
        try:
            assert plan is not None
            # The first activating process exports the token dir so the
            # processes it starts inherit one-shot state.
            assert os.path.isdir(os.environ[ENV_STATE])
        finally:
            state = os.environ.pop(ENV_STATE, None)
            if state and os.path.isdir(state):
                os.rmdir(state)

    def test_fires_on_the_named_hit_only(self, tmp_path):
        plan = plan_for("solver.iterative:fail@3", tmp_path)
        plan.trigger("solver.iterative")
        plan.trigger("solver.iterative")
        with pytest.raises(FaultInjected):
            plan.trigger("solver.iterative")

    def test_fires_exactly_once(self, tmp_path):
        plan = plan_for("cache.write:error@1", tmp_path)
        with pytest.raises(FaultInjected):
            plan.trigger("cache.write")
        # Hit counts keep advancing but the one-shot token is spent.
        for _ in range(5):
            plan.trigger("cache.write")

    def test_one_shot_token_is_shared_across_plans(self, tmp_path):
        # Two plans over one state dir model two processes of one tree:
        # whichever arrives at the armed hit first wins the claim.
        first = plan_for("cache.write:error@1", tmp_path)
        second = plan_for("cache.write:error@1", tmp_path)
        with pytest.raises(FaultInjected):
            first.trigger("cache.write")
        second.trigger("cache.write")  # token already claimed: no raise

    def test_caller_supplied_error_is_raised(self, tmp_path):
        plan = plan_for("cache.read:error@1", tmp_path)
        with pytest.raises(OSError, match="injected lock"):
            plan.trigger("cache.read", error=OSError("injected lock"))

    def test_unarmed_points_are_free(self, tmp_path):
        plan = plan_for("cache.write:error@1", tmp_path)
        plan.trigger("solver.transient")  # nothing armed here

    def test_separate_specs_for_consecutive_hits(self, tmp_path):
        # The cache chaos drill arms one spec per retry attempt.
        plan = plan_for(
            "cache.write:error@1;cache.write:error@2;cache.write:error@3",
            tmp_path,
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


class TestStateDirectoryLifetime:
    """The process that creates the token directory removes it at exit;
    a process that inherited it leaves it for its owner."""

    SCRIPT = (
        "import os\n"
        "from repro.resilience import fault_point\n"
        "from repro.errors import FaultInjected\n"
        "try:\n"
        "    fault_point('demo.point')\n"
        "except FaultInjected:\n"
        "    pass\n"
        "print(os.environ['REPRO_FAULTS_STATE'])\n"
    )

    def _child(self, **environ: str) -> str:
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            **environ,
        )
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_owner_removes_its_directory_at_exit(self):
        state = self._child(**{ENV_PLAN: "demo.point:fail@1"})
        assert os.path.basename(state).startswith("repro-faults-")
        assert not os.path.exists(state)

    def test_inherited_directory_is_left_alone(self, tmp_path):
        state = self._child(
            **{ENV_PLAN: "demo.point:fail@1", ENV_STATE: str(tmp_path)}
        )
        assert state == str(tmp_path)
        # The child fired the fault, so its claimed token is still there.
        assert os.listdir(tmp_path) == [FaultSpec.parse("demo.point:fail@1").token]
