"""Tests for staged patch-rollout campaigns through the timeline subsystem."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.enterprise import RedundancyDesign, paper_designs
from repro.errors import EvaluationError
from repro.evaluation import SweepEngine, default_time_grid, evaluate_timeline
from repro.patching import BIG_BANG, CANARY_THEN_FLEET, CampaignPhase, PatchCampaign


@pytest.fixture(scope="module")
def grid():
    return default_time_grid(720.0, 7)


@pytest.fixture(scope="module")
def design_one():
    return paper_designs()[0]


def assert_curves_identical(a, b):
    assert a.coa == b.coa
    assert a.completion_probability == b.completion_probability
    assert a.unpatched_fraction == b.unpatched_fraction
    assert a.mean_time_to_completion == b.mean_time_to_completion
    assert a.steady_coa == b.steady_coa
    assert a.before.as_dict() == b.before.as_dict()
    assert a.after.as_dict() == b.after.as_dict()


class TestSinglePhaseDegeneracy:
    def test_big_bang_bit_identical_to_stationary(self, design_one, grid):
        plain = evaluate_timeline(design_one, grid)
        staged = evaluate_timeline(design_one, grid, campaign=BIG_BANG)
        assert_curves_identical(plain, staged)
        assert plain.campaign is None and plain.phase_starts == ()
        assert staged.campaign == BIG_BANG
        assert staged.phase_starts == (0.0,)

    def test_big_bang_bit_identical_across_executors(self, grid):
        designs = paper_designs()[:3]
        reference = SweepEngine(executor="serial").timeline(designs, grid)
        for executor in ("serial", "thread", "process"):
            with SweepEngine(
                executor=executor,
                max_workers=None if executor == "serial" else 2,
            ) as engine:
                staged = engine.timeline(designs, grid, campaign=BIG_BANG)
            for a, b in zip(reference, staged):
                assert_curves_identical(a, b)


class TestStagedCurves:
    def test_canary_first_slows_rollout_and_softens_dip(self, design_one, grid):
        plain = evaluate_timeline(design_one, grid)
        staged = evaluate_timeline(design_one, grid, campaign=CANARY_THEN_FLEET)
        # throttled phases leave more exposure at every interior time ...
        assert all(
            s >= p - 1e-12
            for p, s in zip(plain.unpatched_fraction, staged.unpatched_fraction)
        )
        assert staged.mean_time_to_completion > plain.mean_time_to_completion
        # ... but dip availability less while the canary runs
        assert staged.min_coa >= plain.min_coa - 1e-12
        assert staged.phase_starts == (0.0, 48.0, 168.0)

    def test_security_curves_are_phase_aware(self, design_one, grid):
        plain = evaluate_timeline(design_one, grid)
        staged = evaluate_timeline(design_one, grid, campaign=CANARY_THEN_FLEET)
        for name, curve in staged.security_curves().items():
            hi = max(plain.security_curve(name)[0], plain.security_curve(name)[-1])
            lo = min(plain.security_curve(name)[0], plain.security_curve(name)[-1])
            assert all(lo - 1e-12 <= value <= hi + 1e-12 for value in curve)
        # interpolation follows the staged (slower) unpatched fraction
        asp = staged.security_curve("ASP")
        before = staged.before.as_dict()["ASP"]
        after = staged.after.as_dict()["ASP"]
        expected = tuple(
            after + (before - after) * fraction
            for fraction in staged.unpatched_fraction
        )
        assert asp == expected

    def test_mean_completion_matches_numerical_integral(self, design_one):
        fine = tuple(np.linspace(0.0, 40_000.0, 2001))
        staged = evaluate_timeline(design_one, fine, campaign=CANARY_THEN_FLEET)
        integral = np.trapezoid(
            1.0 - np.array(staged.completion_probability), fine
        )
        assert staged.mean_time_to_completion == pytest.approx(
            float(integral), rel=1e-3
        )

    def test_campaign_type_validation(self, design_one, grid):
        with pytest.raises(EvaluationError):
            evaluate_timeline(design_one, grid, campaign="canary:0.1:48")

    def test_non_finite_times_rejected(self, design_one):
        for bad in (math.nan, math.inf):
            with pytest.raises(EvaluationError):
                evaluate_timeline(design_one, (0.0, bad))
            with pytest.raises(EvaluationError):
                evaluate_timeline(design_one, (0.0, bad), campaign=BIG_BANG)


class TestCampaignEdgeCases:
    def test_zero_duration_phases_are_no_ops(self, design_one, grid):
        padded = PatchCampaign(
            name="padded",
            phases=(
                CampaignPhase(name="noop", rate_multiplier=9.0, duration_hours=0),
                CampaignPhase(name="canary", rate_multiplier=0.1, duration_hours=48),
                CampaignPhase(name="gap", rate_multiplier=0.0, duration_hours=0),
                CampaignPhase(name="fleet", rate_multiplier=1.0),
            ),
        )
        two_phase = PatchCampaign(
            name="plain",
            phases=(
                CampaignPhase(name="canary", rate_multiplier=0.1, duration_hours=48),
                CampaignPhase(name="fleet", rate_multiplier=1.0),
            ),
        )
        a = evaluate_timeline(design_one, grid, campaign=padded)
        b = evaluate_timeline(design_one, grid, campaign=two_phase)
        assert_curves_identical(a, b)
        assert a.phase_starts == (0.0, 0.0, 48.0, 48.0)

    def test_boundary_exactly_on_grid_point(self, design_one):
        # 48 h boundary is also a requested time: the value must equal the
        # carried vector, i.e. the limit from both sides of the boundary.
        campaign = PatchCampaign(
            name="edge",
            phases=(
                CampaignPhase(name="canary", rate_multiplier=0.1, duration_hours=48),
                CampaignPhase(name="fleet", rate_multiplier=1.0),
            ),
        )
        times = (0.0, 24.0, 48.0, 96.0)
        staged = evaluate_timeline(design_one, times, campaign=campaign)
        # compare against a canary-only (stationary at 0.1) run at t = 48
        canary_only = PatchCampaign(
            name="canary-only",
            phases=(CampaignPhase(name="canary", rate_multiplier=0.1),),
        )
        limit = evaluate_timeline(design_one, (48.0,), campaign=canary_only)
        assert staged.unpatched_fraction[2] == limit.unpatched_fraction[0]
        assert staged.completion_probability[2] == limit.completion_probability[0]
        assert staged.coa[2] == limit.coa[0]

    def test_trigger_fires_at_expected_fraction(self, design_one):
        campaign = PatchCampaign(
            name="trigger",
            phases=(
                CampaignPhase(
                    name="canary", rate_multiplier=0.2, completion_fraction=0.25
                ),
                CampaignPhase(name="fleet", rate_multiplier=1.0),
            ),
        )
        staged = evaluate_timeline(design_one, (0.0, 720.0), campaign=campaign)
        boundary = staged.phase_starts[1]
        assert math.isfinite(boundary) and boundary > 0
        probe = evaluate_timeline(design_one, (boundary,), campaign=campaign)
        assert 1.0 - probe.unpatched_fraction[0] == pytest.approx(0.25, abs=1e-9)

    def test_trigger_already_satisfied_fires_immediately(self, design_one):
        campaign = PatchCampaign(
            name="instant",
            phases=(
                # at t = 0 the patched fraction is 0, and any fraction is
                # reached "at once" only when the threshold is already met;
                # use a second trigger after a long head start instead.
                CampaignPhase(name="head", rate_multiplier=1.0, duration_hours=5000),
                CampaignPhase(
                    name="check", rate_multiplier=1.0, completion_fraction=0.5
                ),
                CampaignPhase(name="fleet", rate_multiplier=2.0),
            ),
        )
        staged = evaluate_timeline(design_one, (0.0, 720.0), campaign=campaign)
        # after 5000 h well over half the fleet is expected patched, so the
        # trigger fires immediately: phase 3 starts with phase 2.
        assert staged.phase_starts == (0.0, 5000.0, 5000.0)

    def test_never_firing_trigger_zero_multiplier(self, design_one):
        frozen = PatchCampaign(
            name="stall",
            phases=(
                CampaignPhase(
                    name="pause", rate_multiplier=0.0, completion_fraction=0.5
                ),
                CampaignPhase(name="fleet", rate_multiplier=1.0),
            ),
        )
        staged = evaluate_timeline(
            design_one, (0.0, 720.0, 50_000.0), campaign=frozen
        )
        assert staged.phase_starts == (0.0, math.inf)
        assert staged.mean_time_to_completion == math.inf
        # nothing ever patches: no exposure decay, no availability dip
        assert staged.unpatched_fraction == (1.0, 1.0, 1.0)
        assert staged.completion_probability == (0.0, 0.0, 0.0)
        assert staged.coa == (1.0, 1.0, 1.0)

    def test_never_firing_trigger_full_fraction(self, design_one, grid):
        asymptotic = PatchCampaign(
            name="asymptote",
            phases=(
                CampaignPhase(
                    name="all", rate_multiplier=1.0, completion_fraction=1.0
                ),
                CampaignPhase(name="faster", rate_multiplier=4.0),
            ),
        )
        staged = evaluate_timeline(design_one, grid, campaign=asymptotic)
        assert staged.phase_starts == (0.0, math.inf)
        # the never-ending multiplier-1 phase is the stationary process
        plain = evaluate_timeline(design_one, grid)
        assert_curves_identical(plain, staged)

    def test_zero_multiplier_finite_phase_pauses_rollout(self, design_one):
        campaign = PatchCampaign(
            name="pause-resume",
            phases=(
                CampaignPhase(name="pause", rate_multiplier=0.0, duration_hours=100),
                CampaignPhase(name="fleet", rate_multiplier=1.0),
            ),
        )
        plain = evaluate_timeline(design_one, (0.0, 100.0, 820.0))
        staged = evaluate_timeline(
            design_one, (0.0, 100.0, 200.0), campaign=campaign
        )
        # during the pause nothing moves ...
        assert staged.unpatched_fraction[1] == 1.0
        assert staged.coa[1] == 1.0
        # ... afterwards the process is the stationary one, time-shifted
        shifted = evaluate_timeline(design_one, (100.0,))
        assert staged.unpatched_fraction[2] == pytest.approx(
            shifted.unpatched_fraction[0], abs=1e-12
        )
        # the pause adds exactly its duration to the mean completion time
        assert staged.mean_time_to_completion == pytest.approx(
            plain.mean_time_to_completion + 100.0
        )

    def test_throttled_terminal_phase_scales_mean_exactly(self, design_one, grid):
        # MTTA(m * Q) = MTTA(Q) / m: a single half-rate open-ended phase
        # must double the stationary mean completion time exactly.
        half = PatchCampaign(
            name="half", phases=(CampaignPhase(name="slow", rate_multiplier=0.5),)
        )
        plain = evaluate_timeline(design_one, grid)
        staged = evaluate_timeline(design_one, grid, campaign=half)
        assert (
            staged.mean_time_to_completion == 2.0 * plain.mean_time_to_completion
        )

    def test_canary_hosts_throttle_scales_with_design(self, grid):
        campaign = PatchCampaign(
            name="one-at-a-time",
            phases=(CampaignPhase(name="drip", rate_multiplier=1.0, canary_hosts=1),),
        )
        small = evaluate_timeline(
            RedundancyDesign({"dns": 1, "web": 1}), grid, campaign=campaign
        )
        large = evaluate_timeline(
            RedundancyDesign({"dns": 2, "web": 2}), grid, campaign=campaign
        )
        # 1-of-2 vs 1-of-4 concurrency: the large fleet is throttled harder
        assert (
            large.mean_time_to_completion
            > 2 * small.mean_time_to_completion
        )


class TestEngineCampaigns:
    def test_memo_and_disk_cache_distinguish_campaigns(self, grid, tmp_path):
        designs = paper_designs()[:2]
        path = str(tmp_path / "cache.sqlite")
        engine = SweepEngine(cache_path=path)
        plain = engine.timeline(designs, grid)
        misses = engine.cache_info["misses"]
        staged = engine.timeline(designs, grid, campaign=CANARY_THEN_FLEET)
        assert engine.cache_info["misses"] > misses
        for a, b in zip(plain, staged):
            assert a.unpatched_fraction != b.unpatched_fraction
        # a fresh engine over the same sqlite file serves both from disk
        rerun = SweepEngine(cache_path=path)
        again_plain = rerun.timeline(designs, grid)
        again_staged = rerun.timeline(designs, grid, campaign=CANARY_THEN_FLEET)
        assert rerun.cache_info["disk_hits"] == 2 * len(designs)
        for a, b in zip(plain, again_plain):
            assert_curves_identical(a, b)
        for a, b in zip(staged, again_staged):
            assert_curves_identical(a, b)
            assert b.campaign == CANARY_THEN_FLEET

    def test_shared_memory_campaign_byte_identity(self, grid):
        designs = paper_designs()
        reference = SweepEngine(executor="serial").timeline(
            designs, grid, campaign=CANARY_THEN_FLEET
        )
        with SweepEngine(executor="process", max_workers=2) as engine:
            shared = engine.timeline(designs, grid, campaign=CANARY_THEN_FLEET)
        for a, b in zip(reference, shared):
            assert_curves_identical(a, b)
            assert a.phase_starts == b.phase_starts


class TestPhasePermutationProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
            min_size=2,
            max_size=4,
        ),
        data=st.data(),
    )
    def test_permuting_identical_phases_leaves_curves_unchanged(
        self, durations, data
    ):
        """Phases that share one multiplier commute: any permutation of
        their durations yields the same piecewise process."""
        design = RedundancyDesign({"dns": 1, "web": 2})
        times = (0.0, 100.0, 400.0, 900.0)
        permutation = data.draw(st.permutations(durations))

        def campaign_for(order):
            phases = tuple(
                CampaignPhase(
                    name="stage", rate_multiplier=0.3, duration_hours=duration
                )
                for duration in order
            ) + (CampaignPhase(name="fleet", rate_multiplier=1.0),)
            return PatchCampaign(name="perm", phases=phases)

        base = evaluate_timeline(design, times, campaign=campaign_for(durations))
        permuted = evaluate_timeline(
            design, times, campaign=campaign_for(permutation)
        )
        np.testing.assert_allclose(
            permuted.unpatched_fraction, base.unpatched_fraction, atol=1e-9
        )
        np.testing.assert_allclose(
            permuted.completion_probability,
            base.completion_probability,
            atol=1e-9,
        )
        np.testing.assert_allclose(permuted.coa, base.coa, atol=1e-9)
        assert permuted.mean_time_to_completion == pytest.approx(
            base.mean_time_to_completion, rel=1e-9, abs=1e-9
        )
