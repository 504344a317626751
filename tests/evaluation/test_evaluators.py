"""Tests for the SecurityEvaluator and AvailabilityEvaluator facades."""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro.attacktree import PROBABILISTIC, AttackTree
from repro.enterprise import (
    EnterpriseCaseStudy,
    HeterogeneousDesign,
    RedundancyDesign,
    ServerRole,
    paper_variants,
    scaled_case_study,
)
from repro.errors import HarmError, ValidationError
from repro.evaluation import AvailabilityEvaluator, SecurityEvaluator
from repro.evaluation.sweep import enumerate_designs
from repro.harm import PathAggregation
from repro.patching import NoPatchPolicy, PatchAllPolicy


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


    @pytest.mark.parametrize("member", list(PathAggregation))
    def test_aggregation_value_is_coerced_up_front(
        self, case_study, example_design, critical_policy, member
    ):
        by_value = SecurityEvaluator(case_study, aggregation=member.value)
        by_member = SecurityEvaluator(case_study, aggregation=member)
        assert by_value.aggregation is member
        # Patch-all first: it leaves no attack path, so the aggregation
        # is never read there and only an up-front check can tell a bad
        # value.
        patch_all = PatchAllPolicy()
        patched = by_value.after_patch(example_design, patch_all)
        assert patched.number_of_attack_paths == 0
        assert patched == by_member.after_patch(example_design, patch_all)
        assert by_value.before_patch(example_design) == by_member.before_patch(
            example_design
        )
        assert by_value.after_patch(
            example_design, critical_policy
        ) == by_member.after_patch(example_design, critical_policy)

    def test_unknown_aggregation_is_refused_at_construction(self, case_study):
        with pytest.raises(ValidationError) as excinfo:
            SecurityEvaluator(case_study, aggregation="bogus")
        assert str(excinfo.value) == (
            "unknown aggregation 'bogus'; expected one of "
            "'worst_case', 'independent_paths'"
        )


class TestSecurityClasses:
    """The class-level walk: cost, caching and validation."""

    def test_each_stack_tree_built_once_per_evaluator(
        self, case_study, critical_policy, monkeypatch
    ):
        built = []
        original = AttackTree.from_vulnerabilities.__func__

        def counting(cls, vulnerabilities, branches=None):
            built.append(branches)
            return original(cls, vulnerabilities, branches)

        monkeypatch.setattr(AttackTree, "from_vulnerabilities", classmethod(counting))

        def no_host_harm(*args, **kwargs):
            raise AssertionError("metrics must not build a host-level HARM")

        monkeypatch.setattr(SecurityEvaluator, "build_harm", no_host_harm)
        evaluator = SecurityEvaluator(case_study)
        for design in enumerate_designs(["dns", "web", "app", "db"], 3):
            evaluator.before_patch(design)
            evaluator.after_patch(design, critical_policy)
        assert len(built) == 4  # one per role stack

    def test_cost_does_not_depend_on_replica_counts(self):
        case_study, design = scaled_case_study(1000, 3)
        metrics = SecurityEvaluator(case_study).before_patch(design)
        assert metrics.number_of_attack_paths == 1000**3
        assert metrics.number_of_entry_points == 1000
        assert metrics.mean_path_length == 3.0
        assert metrics.shortest_attack_path == 3
        assert metrics.number_of_exploitable_vulnerabilities == 1000 * (1 + 5 + 5)

    @pytest.mark.parametrize(
        "bad",
        [
            "unknown role",
            "role off the topology",
            "variant without records",
            "tree spec naming unknown CVEs",
        ],
    )
    def test_errors_match_the_host_level_builders(self, case_study, bad):
        roles = dict(case_study.roles)
        if bad == "unknown role":
            design = RedundancyDesign({"web": 1, "cache": 1})
        elif bad == "role off the topology":
            design = HeterogeneousDesign({"cache": {paper_variants()["web_apache"]: 1}})
        elif bad == "variant without records":
            design = HeterogeneousDesign(
                {"web": {ServerRole("web_x", "No OS", "No App"): 2}}
            )
        else:
            roles["web"] = replace(roles["web"], attack_tree_spec=("CVE-0000-0001",))
            design = RedundancyDesign({"dns": 1, "web": 2, "db": 1})
        broken = EnterpriseCaseStudy(
            roles=roles, topology=case_study.topology, database=case_study.database
        )
        evaluator = SecurityEvaluator(broken)
        with pytest.raises((ValidationError, HarmError)) as oracle:
            evaluator.build_harm(design)
        with pytest.raises(type(oracle.value)) as raised:
            evaluator.before_patch(design)
        assert type(raised.value) is type(oracle.value)
        assert str(raised.value) == str(oracle.value)


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
