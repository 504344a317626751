"""Tests for the patch-timeline subsystem (transient design-space curves)."""

from __future__ import annotations

import math

import pytest

from repro.enterprise import (
    HeterogeneousDesign,
    RedundancyDesign,
    paper_designs,
    paper_variant_space,
)
from repro.errors import EvaluationError
from repro.evaluation import (
    AvailabilityEvaluator,
    SweepEngine,
    default_time_grid,
    evaluate_timeline,
    evaluate_timelines,
)
from repro.vulnerability.diversity import diversity_database


@pytest.fixture(scope="module")
def grid():
    return default_time_grid(720.0, 7)


@pytest.fixture(scope="module")
def design_one():
    return paper_designs()[0]


@pytest.fixture(scope="module")
def timeline_one(design_one, grid):
    return evaluate_timeline(design_one, grid)


class TestDesignTimeline:
    def test_starts_all_up_and_unpatched(self, timeline_one):
        assert timeline_one.coa[0] == pytest.approx(1.0)
        assert timeline_one.unpatched_fraction[0] == pytest.approx(1.0)
        assert timeline_one.completion_probability[0] == 0.0

    def test_coa_converges_to_steady_state(self, design_one):
        timeline = evaluate_timeline(design_one, [0.0, 50_000.0])
        assert timeline.coa[-1] == pytest.approx(timeline.steady_coa, abs=1e-8)

    def test_completion_probability_monotone_to_one(self, design_one):
        timeline = evaluate_timeline(
            design_one, [0.0, 500.0, 2000.0, 10_000.0, 50_000.0]
        )
        curve = timeline.completion_probability
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
        assert curve[-1] == pytest.approx(1.0, abs=1e-6)

    def test_unpatched_fraction_decays(self, timeline_one):
        curve = timeline_one.unpatched_fraction
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_mean_time_to_completion_closed_form(self, timeline_one):
        # Four independent exponential patch clocks at the same rate:
        # E[max] = (1/lambda) * (1 + 1/2 + 1/3 + 1/4).
        from repro.enterprise import paper_case_study
        from repro.patching import CriticalVulnerabilityPolicy

        evaluator = AvailabilityEvaluator(
            paper_case_study(), CriticalVulnerabilityPolicy()
        )
        rate = evaluator.aggregate("dns").patch_rate
        expected = (1 + 1 / 2 + 1 / 3 + 1 / 4) / rate
        assert timeline_one.mean_time_to_completion == pytest.approx(expected)

    def test_security_curve_interpolates_exposure(self, timeline_one):
        curve = timeline_one.security_curve("ASP")
        before = timeline_one.before.as_dict()["ASP"]
        after = timeline_one.after.as_dict()["ASP"]
        assert curve[0] == pytest.approx(before)
        # decays toward the after-patch value with the unpatched fraction
        assert curve[-1] == pytest.approx(
            after + (before - after) * timeline_one.unpatched_fraction[-1]
        )
        with pytest.raises(EvaluationError):
            timeline_one.security_curve("NOPE")

    def test_security_curves_cover_all_metrics(self, timeline_one):
        curves = timeline_one.security_curves()
        assert set(curves) == set(timeline_one.before.as_dict())

    def test_redundancy_slows_completion(self, grid):
        # more replicas -> later expected completion (max of more clocks)
        single = evaluate_timeline(paper_designs()[0], grid)
        doubled = evaluate_timeline(
            RedundancyDesign({"dns": 2, "web": 2, "app": 2, "db": 2}), grid
        )
        assert (
            doubled.mean_time_to_completion > single.mean_time_to_completion
        )

    def test_validation(self, design_one):
        with pytest.raises(EvaluationError):
            evaluate_timeline(design_one, [])
        with pytest.raises(EvaluationError):
            evaluate_timeline(design_one, [-1.0, 2.0])
        with pytest.raises(EvaluationError):
            default_time_grid(0.0, 5)
        with pytest.raises(EvaluationError):
            default_time_grid(10.0, 1)

    def test_non_finite_horizon_rejected(self):
        for horizon in (math.inf, math.nan):
            with pytest.raises(EvaluationError, match="horizon"):
                default_time_grid(horizon, 5)


class TestHeterogeneousTimeline:
    def test_mixed_variant_design(self, grid):
        space = paper_variant_space()
        design = HeterogeneousDesign(
            {
                "dns": {space["dns"][0]: 1},
                "web": {space["web"][0]: 1, space["web"][1]: 1},
                "app": {space["app"][0]: 1},
                "db": {space["db"][0]: 1, space["db"][1]: 1},
            }
        )
        timeline = evaluate_timeline(design, grid, database=diversity_database())
        assert timeline.coa[0] == pytest.approx(1.0)
        assert timeline.unpatched_fraction[0] == pytest.approx(1.0)
        assert math.isfinite(timeline.mean_time_to_completion)
        # six servers -> six patch clocks: slower than the 4-server base
        base = evaluate_timeline(paper_designs()[0], grid)
        assert timeline.mean_time_to_completion > base.mean_time_to_completion

    def test_completion_chain_groups_per_variant(self):
        from repro.enterprise import paper_case_study
        from repro.patching import CriticalVulnerabilityPolicy

        space = paper_variant_space()
        design = HeterogeneousDesign(
            {"web": {space["web"][0]: 2, space["web"][1]: 1}}
        )
        evaluator = AvailabilityEvaluator(
            paper_case_study(),
            CriticalVulnerabilityPolicy(),
            database=diversity_database(),
        )
        apache, nginx = space["web"]
        assert evaluator._tiers(design) == [
            [
                (2, evaluator.aggregate("web", apache).patch_rate,
                 evaluator.aggregate("web", apache).recovery_rate),
                (1, evaluator.aggregate("web", nginx).patch_rate,
                 evaluator.aggregate("web", nginx).recovery_rate),
            ]
        ]


class TestEngineTimeline:
    def test_chunk_sizes_byte_identical(self, grid):
        designs = paper_designs()
        reference = SweepEngine().timeline(designs, grid)
        chunked = SweepEngine(chunk_size=2).timeline(designs, grid)
        for a, b in zip(reference, chunked):
            assert a.coa == b.coa
            assert a.completion_probability == b.completion_probability
            assert a.unpatched_fraction == b.unpatched_fraction
            assert a.mean_time_to_completion == b.mean_time_to_completion
            assert a.before.as_dict() == b.before.as_dict()

    def test_memoised_per_design_and_grid(self, grid):
        engine = SweepEngine()
        designs = paper_designs()[:2]
        engine.timeline(designs, grid)
        misses = engine.cache_info["misses"]
        engine.timeline(designs, grid)
        assert engine.cache_info["misses"] == misses
        assert engine.cache_info["hits"] >= len(designs)
        # a different grid is a different computation
        engine.timeline(designs, [0.0, 1.0])
        assert engine.cache_info["misses"] > misses

    def test_evaluate_timelines_entrypoint_matches_engine(self, grid):
        designs = paper_designs()[:3]
        direct = evaluate_timelines(designs, grid)
        engine = SweepEngine().timeline(designs, grid)
        for a, b in zip(direct, engine):
            assert a.coa == b.coa
            assert a.completion_probability == b.completion_probability
