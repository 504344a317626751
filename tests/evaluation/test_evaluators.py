"""Tests for the SecurityEvaluator and AvailabilityEvaluator facades."""

from __future__ import annotations

import pytest

from repro.attacktree import PROBABILISTIC
from repro.evaluation import AvailabilityEvaluator, SecurityEvaluator
from repro.harm import PathAggregation
from repro.patching import NoPatchPolicy


class TestSecurityEvaluator:
    def test_before_patch(self, case_study, example_design):
        evaluator = SecurityEvaluator(case_study)
        metrics = evaluator.before_patch(example_design)
        assert metrics.attack_success_probability == 1.0
        assert metrics.number_of_attack_paths == 8

    def test_after_patch(self, case_study, example_design, critical_policy):
        evaluator = SecurityEvaluator(case_study)
        metrics = evaluator.after_patch(example_design, critical_policy)
        assert metrics.number_of_attack_paths == 4

    def test_no_patch_policy_equals_before(
        self, case_study, example_design
    ):
        evaluator = SecurityEvaluator(case_study)
        before = evaluator.before_patch(example_design)
        unpatched = evaluator.after_patch(example_design, NoPatchPolicy())
        assert before.as_dict() == unpatched.as_dict()

    def test_custom_semantics_flow_through(self, case_study, example_design):
        worst = SecurityEvaluator(
            case_study, aggregation=PathAggregation.WORST_CASE
        ).before_patch(example_design)
        independent = SecurityEvaluator(
            case_study, aggregation=PathAggregation.INDEPENDENT_PATHS
        ).before_patch(example_design)
        assert worst.attack_success_probability == 1.0
        assert independent.attack_success_probability == 1.0
        probabilistic = SecurityEvaluator(
            case_study, semantics=PROBABILISTIC
        ).before_patch(example_design)
        assert probabilistic.attack_impact == worst.attack_impact


class TestAvailabilityEvaluator:
    def test_aggregates_cached(self, case_study, critical_policy):
        evaluator = AvailabilityEvaluator(case_study, critical_policy)
        first = evaluator.aggregate("dns")
        second = evaluator.aggregate("dns")
        assert first is second

    def test_coa_matches_closed_form(
        self, availability_evaluator, example_design
    ):
        srn = availability_evaluator.network_model(
            example_design
        ).capacity_oriented_availability()
        closed = availability_evaluator.coa(example_design)
        assert srn == pytest.approx(closed, abs=1e-12)

    def test_system_availability_at_least_coa(
        self, availability_evaluator, example_design
    ):
        coa = availability_evaluator.coa(example_design)
        system = availability_evaluator.system_availability(example_design)
        assert system >= coa

    def test_policy_changes_rates(self, case_study, critical_policy):
        from repro.patching import PatchAllPolicy

        critical_only = AvailabilityEvaluator(case_study, critical_policy)
        patch_all = AvailabilityEvaluator(case_study, PatchAllPolicy())
        # patching everything takes longer per cycle -> slower recovery
        assert (
            patch_all.aggregate("web").recovery_rate
            < critical_only.aggregate("web").recovery_rate
        )
