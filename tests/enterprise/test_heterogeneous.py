"""Tests for heterogeneous (diverse-software) redundancy."""

from __future__ import annotations

import pytest

from repro.availability import NetworkAvailabilityModel
from repro.enterprise import (
    HeterogeneousDesign,
    build_heterogeneous_harm,
    paper_variants,
)
from repro.errors import EvaluationError, ValidationError
from repro.evaluation import AvailabilityEvaluator
from repro.harm import evaluate_security
from repro.vulnerability.diversity import diversity_database


@pytest.fixture(scope="module")
def variants():
    return paper_variants()


@pytest.fixture(scope="module")
def diversity_db():
    return diversity_database()


@pytest.fixture(scope="module")
def diverse_design(variants):
    return HeterogeneousDesign(
        {
            "dns": {variants["dns_ms"]: 1},
            "web": {variants["web_apache"]: 1, variants["web_nginx"]: 1},
            "app": {variants["app_weblogic"]: 1},
            "db": {variants["db_mysql"]: 1},
        }
    )


@pytest.fixture(scope="module")
def homogeneous_design(variants):
    return HeterogeneousDesign(
        {
            "dns": {variants["dns_ms"]: 1},
            "web": {variants["web_apache"]: 2},
            "app": {variants["app_weblogic"]: 1},
            "db": {variants["db_mysql"]: 1},
        }
    )


class TestHeterogeneousDesign:
    def test_total_servers(self, diverse_design):
        assert diverse_design.total_servers == 5

    def test_instances_per_variant(self, diverse_design):
        hosts = diverse_design.instances("web")
        assert set(hosts) == {"web_apache1", "web_nginx1"}

    def test_label_mentions_variants(self, diverse_design):
        assert "web_nginx" in diverse_design.label

    def test_duplicate_variant_name_rejected(self, variants):
        with pytest.raises(ValidationError):
            HeterogeneousDesign(
                {
                    "web": {variants["web_apache"]: 1},
                    "db": {variants["web_apache"]: 1},
                }
            )

    def test_zero_count_rejected(self, variants):
        with pytest.raises(ValidationError):
            HeterogeneousDesign({"web": {variants["web_apache"]: 0}})

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            HeterogeneousDesign({})


class TestHeterogeneousHarm:
    def test_variant_hosts_in_graph(self, case_study, diversity_db, diverse_design):
        harm = build_heterogeneous_harm(case_study, diverse_design, diversity_db)
        assert harm.graph.has_host("web_nginx1")
        assert harm.graph.has_host("web_apache1")

    def test_variants_have_distinct_trees(
        self, case_study, diversity_db, diverse_design
    ):
        harm = build_heterogeneous_harm(case_study, diverse_design, diversity_db)
        apache = harm.tree_for("web_apache1").leaf_names()
        nginx = harm.tree_for("web_nginx1").leaf_names()
        assert not set(apache) & set(nginx)

    def test_nginx_tree_mirrors_paper_shape(
        self, case_study, diversity_db, diverse_design
    ):
        harm = build_heterogeneous_harm(case_study, diverse_design, diversity_db)
        assert harm.tree_for("web_nginx1").to_expression() == (
            "(SYN-NGINX-2016-0001 | (SYN-NGINX-2016-0002 & SYN-UBUNTU-2016-0001))"
        )

    def test_patching_prunes_per_variant(
        self, case_study, diversity_db, diverse_design, critical_policy
    ):
        harm = build_heterogeneous_harm(
            case_study, diverse_design, diversity_db, critical_policy
        )
        # both web variants keep their AND chains after critical patching
        assert harm.tree_for("web_nginx1").to_expression() == (
            "(SYN-NGINX-2016-0002 & SYN-UBUNTU-2016-0001)"
        )
        assert "dns_ms1" not in harm.trees

    def test_diverse_vs_homogeneous_noev(
        self,
        case_study,
        diversity_db,
        diverse_design,
        homogeneous_design,
        critical_policy,
    ):
        """Diversity changes the attack-surface composition: the attacker
        needs distinct exploits per variant."""
        diverse = evaluate_security(
            build_heterogeneous_harm(
                case_study, diverse_design, diversity_db, critical_policy
            )
        )
        uniform = evaluate_security(
            build_heterogeneous_harm(
                case_study, homogeneous_design, diversity_db, critical_policy
            )
        )
        # same path counts, but the diverse web tier exposes distinct CVEs
        assert diverse.number_of_attack_paths == uniform.number_of_attack_paths
        assert diverse.unique_cve_count > uniform.unique_cve_count

    def test_unknown_role_rejected(self, case_study, diversity_db, variants):
        design = HeterogeneousDesign({"cache": {variants["web_nginx"]: 1}})
        with pytest.raises(ValidationError):
            build_heterogeneous_harm(case_study, design, diversity_db)


def _network_model(case_study, database, policy, design):
    evaluator = AvailabilityEvaluator(case_study, policy, database=database)
    return evaluator.network_model(design)


class TestHeterogeneousAvailability:
    def test_model_solves(
        self, case_study, diversity_db, diverse_design, critical_policy
    ):
        model = _network_model(
            case_study, diversity_db, critical_policy, diverse_design
        )
        coa = model.capacity_oriented_availability()
        assert 0.99 < coa < 1.0

    def test_variant_groups_in_tiers(
        self, case_study, diversity_db, diverse_design, critical_policy
    ):
        model = _network_model(
            case_study, diversity_db, critical_policy, diverse_design
        )
        assert set(model.tiers["web"]) == {"web_apache", "web_nginx"}
        assert model.total_servers == 5

    def test_diverse_web_beats_single_web(
        self, case_study, diversity_db, variants, critical_policy
    ):
        """Two diverse web replicas still beat one web server on COA."""
        single = HeterogeneousDesign(
            {
                "dns": {variants["dns_ms"]: 1},
                "web": {variants["web_apache"]: 1},
                "app": {variants["app_weblogic"]: 1},
                "db": {variants["db_mysql"]: 1},
            }
        )
        diverse = HeterogeneousDesign(
            {
                "dns": {variants["dns_ms"]: 1},
                "web": {variants["web_apache"]: 1, variants["web_nginx"]: 1},
                "app": {variants["app_weblogic"]: 1},
                "db": {variants["db_mysql"]: 1},
            }
        )
        coa_single = _network_model(
            case_study, diversity_db, critical_policy, single
        ).system_availability()
        coa_diverse = _network_model(
            case_study, diversity_db, critical_policy, diverse
        ).system_availability()
        assert coa_diverse > coa_single

    def test_missing_aggregate_rejected(self):
        with pytest.raises(EvaluationError):
            NetworkAvailabilityModel({"web": {"ghost": 1}}, {})

    def test_variant_in_two_tiers_rejected(
        self, availability_evaluator, example_design
    ):
        aggregates = availability_evaluator.aggregates_for(example_design)
        with pytest.raises(EvaluationError):
            NetworkAvailabilityModel(
                {"a": {"web": 1}, "b": {"web": 1}}, aggregates
            )
