"""Headline reproduction tests: one class per table/figure of the paper.

These tests pin the numbers reported in EXPERIMENTS.md.  Known, documented
deviations (see DESIGN.md):

- NoEV before patch is 26 (the paper prints 25; the after-patch value 11
  confirms per-server-instance counting, so 25 is an arithmetic slip);
- the example network's after-patch ASP is 0.217 under the
  independent-paths aggregation (the paper prints 0.265, unreachable from
  Table I under any standard HARM gate semantics; orderings and region
  selections all reproduce).
"""

from __future__ import annotations

import pytest

from repro.evaluation.requirements import (
    PAPER_REGION_1_MULTI_METRIC,
    PAPER_REGION_1_TWO_METRIC,
    PAPER_REGION_2_MULTI_METRIC,
    PAPER_REGION_2_TWO_METRIC,
    satisfying_designs,
)
from repro.harm import PathAggregation, evaluate_security


class TestTableII:
    """Security metrics of the example network before and after patch."""

    @pytest.fixture(scope="class")
    def before(self, case_study, example_design):
        return evaluate_security(case_study.build_harm(example_design))

    @pytest.fixture(scope="class")
    def after(self, case_study, example_design, critical_policy):
        return evaluate_security(
            case_study.build_harm(example_design, critical_policy)
        )

    def test_aim_before(self, before):
        assert before.attack_impact == pytest.approx(52.2)

    def test_aim_after(self, after):
        assert after.attack_impact == pytest.approx(42.2)

    def test_asp_before(self, before):
        assert before.attack_success_probability == 1.0

    def test_asp_after_drops_sharply(self, after):
        assert after.attack_success_probability == pytest.approx(0.217, abs=5e-4)

    def test_noev(self, before, after):
        assert before.number_of_exploitable_vulnerabilities == 26  # paper: 25
        assert after.number_of_exploitable_vulnerabilities == 11

    def test_noap(self, before, after):
        assert before.number_of_attack_paths == 8
        assert after.number_of_attack_paths == 4

    def test_noep(self, before, after):
        assert before.number_of_entry_points == 3
        assert after.number_of_entry_points == 2

    def test_longest_path_is_dns_web_app_db(self, before):
        longest = max(before.attack_paths, key=len)
        assert [h[:-1] for h in longest] == ["dns", "web", "app", "db"]

    def test_worst_case_single_path_asp(self, case_study, example_design, critical_policy):
        after = evaluate_security(
            case_study.build_harm(example_design, critical_policy),
            aggregation=PathAggregation.WORST_CASE,
        )
        assert after.attack_success_probability == pytest.approx(0.39**3)


class TestSectionIIIExamples:
    """The worked examples of Section III-C."""

    def test_aim_web1_is_12_9(self, case_study, example_design):
        harm = case_study.build_harm(example_design)
        assert harm.tree_for("web1").impact() == pytest.approx(12.9)

    def test_aim_app1_is_16_4(self, case_study, example_design):
        harm = case_study.build_harm(example_design)
        assert harm.tree_for("app1").impact() == pytest.approx(16.4)

    def test_aim_db1_is_12_9(self, case_study, example_design):
        harm = case_study.build_harm(example_design)
        assert harm.tree_for("db1").impact() == pytest.approx(12.9)

    def test_aim_ap1_is_52_2(self, case_study, example_design):
        """aim(ap1) = 10.0 + 12.9 + 16.4 + 12.9 = 52.2."""
        harm = case_study.build_harm(example_design)
        metrics = evaluate_security(harm)
        assert max(metrics.path_impacts) == pytest.approx(52.2)


class TestTableIV:
    """DNS-server SRN inputs."""

    def test_dns_rates(self, case_study, critical_policy):
        params = case_study.server_parameters("dns", critical_policy)
        rates, patch = params.rates, params.patch
        assert 1.0 / rates.hardware_failure == pytest.approx(87600.0)
        assert 1.0 / rates.os_failure == pytest.approx(1440.0)
        assert 1.0 / rates.service_failure == pytest.approx(336.0)
        assert 60.0 / patch.service_patch == pytest.approx(5.0)
        assert 60.0 / patch.os_patch == pytest.approx(20.0)
        assert 60.0 / patch.os_patch_reboot == pytest.approx(10.0)
        assert 60.0 / patch.service_patch_reboot == pytest.approx(5.0)
        assert params.patch_interval_hours == pytest.approx(720.0)


class TestTableV:
    """Aggregated patch/recovery rates per service."""

    EXPECTED = {
        "dns": 1.49992,
        "web": 1.71420,
        "app": 0.99995,
        "db": 1.09085,
    }

    @pytest.mark.parametrize("role", sorted(EXPECTED))
    def test_recovery_rates(self, availability_evaluator, role):
        aggregate = availability_evaluator.aggregate(role)
        assert aggregate.recovery_rate == pytest.approx(
            self.EXPECTED[role], rel=1e-4
        )

    def test_patch_rates_all_equal_tau(self, availability_evaluator):
        for role in self.EXPECTED:
            assert availability_evaluator.aggregate(role).patch_rate == (
                pytest.approx(1.0 / 720.0)
            )

    def test_dns_equation_2_example(self, availability_evaluator):
        """The paper's worked example: mu = 12 * p_prrb / p_pd ~ 1.49992."""
        aggregate = availability_evaluator.aggregate("dns")
        measures = aggregate.measures
        assert measures.patch_down == pytest.approx(0.00092506, rel=3e-3)
        assert measures.patch_ready_to_reboot == pytest.approx(
            0.00011563, rel=3e-3
        )


class TestTableVI:
    """COA of the example network."""

    def test_coa_is_0_99707(self, availability_evaluator, example_design):
        coa = availability_evaluator.coa(example_design)
        assert coa == pytest.approx(0.99707, abs=5e-6)

    def test_srn_and_closed_form_agree(self, availability_evaluator, example_design):
        srn = availability_evaluator.network_model(
            example_design
        ).capacity_oriented_availability()
        closed = availability_evaluator.coa(example_design)
        assert srn == pytest.approx(closed, abs=1e-12)


class TestFigure3:
    """HARM structure before/after patch."""

    def test_before_surface(self, case_study, example_design):
        surface = case_study.build_harm(example_design).attack_surface()
        assert surface.entry_points() == ["dns1", "web1", "web2"]
        assert surface.number_of_attack_paths() == 8

    def test_after_surface_drops_dns(
        self, case_study, example_design, critical_policy
    ):
        surface = case_study.build_harm(
            example_design, critical_policy
        ).attack_surface()
        assert surface.entry_points() == ["web1", "web2"]
        assert surface.number_of_attack_paths() == 4

    def test_tree_shapes_before(self, case_study, example_design):
        harm = case_study.build_harm(example_design)
        assert harm.tree_for("web1").to_expression() == (
            "(CVE-2016-4448 | CVE-2015-4602 | CVE-2015-4603 | "
            "(CVE-2016-4979 & CVE-2016-4805))"
        )

    def test_tree_shapes_after(self, case_study, example_design, critical_policy):
        harm = case_study.build_harm(example_design, critical_policy)
        assert harm.tree_for("web1").to_expression() == (
            "(CVE-2016-4979 & CVE-2016-4805)"
        )
        assert harm.tree_for("db1").to_expression() == (
            "((CVE-2015-3152 & CVE-2016-3471) | CVE-2016-4997)"
        )


class TestFigure6:
    """Scatter comparison and the Eq. (3) regions."""

    EXPECTED_COA = {
        "1 DNS + 1 WEB + 1 APP + 1 DB": 0.995614,
        "2 DNS + 1 WEB + 1 APP + 1 DB": 0.996166,
        "1 DNS + 2 WEB + 1 APP + 1 DB": 0.996097,
        "1 DNS + 1 WEB + 2 APP + 1 DB": 0.996442,
        "1 DNS + 1 WEB + 1 APP + 2 DB": 0.996373,
    }

    def test_per_design_coa(self, design_evaluations):
        for evaluation in design_evaluations:
            assert evaluation.after.coa == pytest.approx(
                self.EXPECTED_COA[evaluation.label], abs=5e-6
            ), evaluation.label

    def test_before_patch_all_asp_one(self, design_evaluations):
        for evaluation in design_evaluations:
            assert evaluation.before.security.attack_success_probability == 1.0

    def test_region_1(self, design_evaluations):
        selected = satisfying_designs(design_evaluations, PAPER_REGION_1_TWO_METRIC)
        assert [e.label for e in selected] == [
            "1 DNS + 1 WEB + 2 APP + 1 DB",
            "1 DNS + 1 WEB + 1 APP + 2 DB",
        ]

    def test_region_2(self, design_evaluations):
        selected = satisfying_designs(design_evaluations, PAPER_REGION_2_TWO_METRIC)
        assert [e.label for e in selected] == ["2 DNS + 1 WEB + 1 APP + 1 DB"]


class TestFigure7:
    """Radar comparison and the Eq. (4) regions."""

    EXPECTED_AFTER = {
        # label: (NoEV, NoAP, NoEP)
        "1 DNS + 1 WEB + 1 APP + 1 DB": (7, 1, 1),
        "2 DNS + 1 WEB + 1 APP + 1 DB": (7, 1, 1),
        "1 DNS + 2 WEB + 1 APP + 1 DB": (9, 2, 2),
        "1 DNS + 1 WEB + 2 APP + 1 DB": (9, 2, 1),
        "1 DNS + 1 WEB + 1 APP + 2 DB": (10, 2, 1),
    }

    EXPECTED_BEFORE = {
        "1 DNS + 1 WEB + 1 APP + 1 DB": (16, 2, 2),
        "2 DNS + 1 WEB + 1 APP + 1 DB": (17, 3, 3),
        "1 DNS + 2 WEB + 1 APP + 1 DB": (21, 4, 3),
        "1 DNS + 1 WEB + 2 APP + 1 DB": (21, 4, 2),
        "1 DNS + 1 WEB + 1 APP + 2 DB": (21, 4, 2),
    }

    def test_count_metrics_after_patch(self, design_evaluations):
        for evaluation in design_evaluations:
            security = evaluation.after.security
            assert (
                security.number_of_exploitable_vulnerabilities,
                security.number_of_attack_paths,
                security.number_of_entry_points,
            ) == self.EXPECTED_AFTER[evaluation.label], evaluation.label

    def test_count_metrics_before_patch(self, design_evaluations):
        for evaluation in design_evaluations:
            security = evaluation.before.security
            assert (
                security.number_of_exploitable_vulnerabilities,
                security.number_of_attack_paths,
                security.number_of_entry_points,
            ) == self.EXPECTED_BEFORE[evaluation.label], evaluation.label

    def test_aim_constant_across_designs(self, design_evaluations):
        """Paper: AIM does not change across design choices."""
        for evaluation in design_evaluations:
            assert evaluation.before.security.attack_impact == pytest.approx(52.2)
            assert evaluation.after.security.attack_impact == pytest.approx(42.2)

    def test_region_1_selects_d4(self, design_evaluations):
        selected = satisfying_designs(
            design_evaluations, PAPER_REGION_1_MULTI_METRIC
        )
        assert [e.label for e in selected] == ["1 DNS + 1 WEB + 2 APP + 1 DB"]

    def test_region_2_selects_d2(self, design_evaluations):
        selected = satisfying_designs(
            design_evaluations, PAPER_REGION_2_MULTI_METRIC
        )
        assert [e.label for e in selected] == ["2 DNS + 1 WEB + 1 APP + 1 DB"]


class TestPaperObservations:
    """Section IV-C: the qualitative design guidance."""

    def test_duplicating_slowest_recovery_tier_maximises_coa(
        self, design_evaluations
    ):
        best = max(design_evaluations[1:], key=lambda e: e.after.coa)
        assert "2 APP" in best.label

    def test_unexploitable_redundancy_is_free_security(self, design_evaluations):
        """Duplicating the (patched) DNS tier leaves every after-patch
        security metric unchanged while improving COA."""
        d1, d2 = design_evaluations[0], design_evaluations[1]
        assert d2.after.security.as_dict() == d1.after.security.as_dict()
        assert d2.after.coa > d1.after.coa
