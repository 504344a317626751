"""Unified DesignSpec pipeline: homogeneous/heterogeneous parity,
heterogeneous enumeration, and mixed-population Pareto ranking."""

from __future__ import annotations

import random

import pytest

from repro.enterprise import (
    DesignSpec,
    HeterogeneousDesign,
    RedundancyDesign,
    ServerRole,
    paper_variant_space,
)
from repro.errors import EvaluationError, ValidationError
from repro.evaluation import (
    AvailabilityEvaluator,
    SweepEngine,
    enumerate_designs,
    enumerate_heterogeneous_designs,
    evaluate_designs,
    pareto_front,
    pareto_front_loop,
)
from repro.evaluation.combined import DesignEvaluation, DesignSnapshot
from repro.harm import SecurityMetrics
from repro.vulnerability.diversity import diversity_database


@pytest.fixture(scope="module")
def variant_space():
    return paper_variant_space()


@pytest.fixture(scope="module")
def diversity_db():
    return diversity_database()


def _mirrored_hetero(case_study, counts):
    """Heterogeneous design whose single variant per role IS the role."""
    return HeterogeneousDesign(
        {role: {case_study.roles[role]: count} for role, count in counts.items()}
    )


class TestDesignSpecProtocol:
    def test_both_kinds_satisfy_protocol(self, case_study):
        homogeneous = RedundancyDesign({"web": 2})
        heterogeneous = _mirrored_hetero(case_study, {"web": 2})
        assert isinstance(homogeneous, DesignSpec)
        assert isinstance(heterogeneous, DesignSpec)

    def test_counts_sum_variants(self, variant_space):
        design = HeterogeneousDesign(
            {
                "web": {variant_space["web"][0]: 1, variant_space["web"][1]: 2},
                "db": {variant_space["db"][0]: 1},
            }
        )
        assert design.counts == {"web": 3, "db": 1}
        assert design.total_servers == 4

    def test_cache_keys_distinguish_kinds(self, case_study):
        homogeneous = RedundancyDesign({"web": 1})
        heterogeneous = _mirrored_hetero(case_study, {"web": 1})
        assert homogeneous.cache_key() != heterogeneous.cache_key()
        assert homogeneous != heterogeneous

    def test_heterogeneous_identity_order_insensitive(self, variant_space):
        apache, nginx = variant_space["web"]
        first = HeterogeneousDesign({"web": {apache: 1, nginx: 1}})
        second = HeterogeneousDesign({"web": {nginx: 1, apache: 1}})
        assert first == second
        assert hash(first) == hash(second)
        assert first.cache_key() == second.cache_key()

    def test_heterogeneous_usable_as_dict_key(self, variant_space):
        apache, nginx = variant_space["web"]
        design = HeterogeneousDesign({"web": {apache: 1, nginx: 1}})
        copy = HeterogeneousDesign({"web": {nginx: 1, apache: 1}})
        assert {design: "seen"}[copy] == "seen"

    def test_tiers_shape(self, variant_space):
        apache, nginx = variant_space["web"]
        design = HeterogeneousDesign({"web": {apache: 2, nginx: 1}})
        assert design.tiers() == {"web": {"web_apache": 2, "web_nginx": 1}}

    def test_unknown_spec_kind_rejected(self, case_study, critical_policy):
        """A third DesignSpec implementation must fail loudly, not fall
        into the homogeneous code path."""
        from repro.evaluation import SecurityEvaluator

        class GhostDesign:
            label = "ghost"
            roles = ["web"]
            counts = {"web": 1}
            total_servers = 1

            def cache_key(self):
                return ("ghost",)

        with pytest.raises(EvaluationError):
            SecurityEvaluator(case_study).before_patch(GhostDesign())
        with pytest.raises(EvaluationError):
            AvailabilityEvaluator(case_study, critical_policy).coa(GhostDesign())


class TestHeterogeneousEnumeration:
    def test_single_variant_degenerates_to_homogeneous_counts(self, case_study):
        variants = {"web": (case_study.roles["web"],)}
        designs = list(enumerate_heterogeneous_designs(["web"], variants, 3))
        assert [d.counts["web"] for d in designs] == [1, 2, 3]

    def test_two_variant_role_assignment_count(self, variant_space):
        designs = list(
            enumerate_heterogeneous_designs(
                ["web"], variant_space, max_replicas=2
            )
        )
        # {a:1} {a:2} {b:1} {b:2} {a:1,b:1}
        assert len(designs) == 5
        labels = {d.label for d in designs}
        assert "web[1 web_apache + 1 web_nginx]" in labels

    def test_full_paper_space_size(self, variant_space):
        designs = list(
            enumerate_heterogeneous_designs(
                ["dns", "web", "app", "db"], variant_space, max_replicas=2
            )
        )
        # dns: 2, web: 5, app: 2, db: 5 assignments -> 100 designs
        assert len(designs) == 100
        assert len(set(designs)) == 100

    def test_max_total_budget(self, variant_space):
        designs = list(
            enumerate_heterogeneous_designs(
                ["web", "db"], variant_space, max_replicas=2, max_total=3
            )
        )
        assert designs
        assert all(d.total_servers <= 3 for d in designs)

    def test_missing_pool_rejected(self, variant_space):
        with pytest.raises(ValidationError):
            list(
                enumerate_heterogeneous_designs(
                    ["cache"], variant_space, max_replicas=2
                )
            )

    def test_invalid_max_replicas(self, variant_space):
        with pytest.raises(ValidationError):
            list(
                enumerate_heterogeneous_designs(
                    ["web"], variant_space, max_replicas=0
                )
            )

    def test_empty_roles(self, variant_space):
        assert (
            list(enumerate_heterogeneous_designs([], variant_space, 2)) == []
        )


class TestVariantDatabaseGuard:
    """Diversity-only variants without a covering database must fail
    loudly, not silently shrink the attack surface."""

    def _nginx_only(self, variant_space):
        return HeterogeneousDesign({"web": {variant_space["web"][1]: 1}})

    def test_security_path_rejects_uncovered_variant(
        self, case_study, variant_space
    ):
        from repro.evaluation import SecurityEvaluator

        evaluator = SecurityEvaluator(case_study)  # paper database only
        with pytest.raises(ValidationError):
            evaluator.before_patch(self._nginx_only(variant_space))

    def test_availability_path_rejects_uncovered_variant(
        self, case_study, critical_policy, variant_space
    ):
        evaluator = AvailabilityEvaluator(case_study, critical_policy)
        with pytest.raises(ValidationError):
            evaluator.coa(self._nginx_only(variant_space))

    def test_covered_variant_accepted(
        self, case_study, critical_policy, variant_space, diversity_db
    ):
        evaluator = AvailabilityEvaluator(
            case_study, critical_policy, database=diversity_db
        )
        assert 0.99 < evaluator.coa(self._nginx_only(variant_space)) < 1.0


class TestHomogeneousHeterogeneousParity:
    """A single-variant-per-role heterogeneous design must be
    byte-identical to the equivalent homogeneous design."""

    COUNTS = {"dns": 1, "web": 2, "app": 2, "db": 1}

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_snapshots_byte_identical(
        self, case_study, critical_policy, executor
    ):
        homogeneous = RedundancyDesign(self.COUNTS)
        heterogeneous = _mirrored_hetero(case_study, self.COUNTS)
        hetero_eval, homog_eval = evaluate_designs(
            [heterogeneous, homogeneous],
            case_study=case_study,
            policy=critical_policy,
            executor=None if executor == "serial" else executor,
            max_workers=2,
        )
        assert hetero_eval.before == homog_eval.before
        assert hetero_eval.after == homog_eval.after
        # Float bit patterns, not approximate equality.
        assert hetero_eval.after.coa.hex() == homog_eval.after.coa.hex()
        assert (
            hetero_eval.after.security.attack_success_probability.hex()
            == homog_eval.after.security.attack_success_probability.hex()
        )

    def test_system_availability_parity(self, case_study, critical_policy):
        evaluator = AvailabilityEvaluator(case_study, critical_policy)
        homogeneous = RedundancyDesign(self.COUNTS)
        heterogeneous = _mirrored_hetero(case_study, self.COUNTS)
        assert evaluator.system_availability(
            heterogeneous
        ) == evaluator.system_availability(homogeneous)

    def test_closed_form_covers_heterogeneous(
        self, case_study, critical_policy
    ):
        evaluator = AvailabilityEvaluator(case_study, critical_policy)
        heterogeneous = _mirrored_hetero(case_study, self.COUNTS)
        srn = evaluator.network_model(
            heterogeneous
        ).capacity_oriented_availability()
        assert evaluator.coa(heterogeneous) == pytest.approx(srn, abs=1e-12)

    def _overridden_case_study(self):
        from repro.availability.parameters import ComponentRates
        from repro.enterprise import EnterpriseCaseStudy, paper_case_study

        base = paper_case_study()
        return EnterpriseCaseStudy(
            roles=base.roles,
            topology=base.topology,
            database=base.database,
            attacker=base.attacker,
            schedule=base.schedule,
            component_rates={"web": ComponentRates(service_failure=1 / 50)},
        )

    def test_parity_survives_component_rate_overrides(self, critical_policy):
        case_study = self._overridden_case_study()
        evaluator = AvailabilityEvaluator(case_study, critical_policy)
        homogeneous = RedundancyDesign(self.COUNTS)
        heterogeneous = _mirrored_hetero(case_study, self.COUNTS)
        assert (
            evaluator.coa(heterogeneous).hex()
            == evaluator.coa(homogeneous).hex()
        )

    def test_variant_inherits_role_rate_override(self, critical_policy):
        """A variant named differently from its role still inherits the
        role's component-rate override."""
        case_study = self._overridden_case_study()
        renamed = ServerRole(
            "web_apache",
            case_study.roles["web"].operating_system,
            case_study.roles["web"].application,
            case_study.roles["web"].attack_tree_spec,
        )
        evaluator = AvailabilityEvaluator(case_study, critical_policy)
        inherited = evaluator.variant_aggregate(renamed, role="web")
        role_aggregate = evaluator.aggregate("web")
        assert inherited.patch_rate == role_aggregate.patch_rate
        assert inherited.recovery_rate == role_aggregate.recovery_rate
        # Without the role context the override must NOT apply.
        bare = evaluator.variant_aggregate(renamed)
        assert bare.recovery_rate != inherited.recovery_rate


class TestUnifiedEngine:
    def test_engine_caches_heterogeneous_designs(
        self, variant_space, diversity_db
    ):
        engine = SweepEngine(database=diversity_db)
        designs = list(
            enumerate_heterogeneous_designs(["web"], variant_space, 2)
        )
        engine.evaluate(designs)
        misses = engine.cache_info["misses"]
        engine.evaluate(designs)
        assert engine.cache_info["misses"] == misses
        assert engine.cache_info["hits"] >= len(designs)

    def test_mixed_population_single_sweep(self, case_study, diversity_db):
        engine = SweepEngine(database=diversity_db)
        mixed = list(enumerate_designs(["dns", "web"], max_replicas=2))
        mixed += list(
            enumerate_heterogeneous_designs(
                ["web"], paper_variant_space(), max_replicas=2
            )
        )
        evaluations = engine.evaluate(mixed)
        assert [e.design for e in evaluations] == mixed
        front = engine.pareto(evaluations)
        assert front
        assert set(front) <= set(evaluations)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_heterogeneous_sweep_matches_serial(
        self, variant_space, diversity_db, executor
    ):
        designs = list(
            enumerate_heterogeneous_designs(["web", "db"], variant_space, 2)
        )
        serial = SweepEngine(database=diversity_db).evaluate(designs)
        with SweepEngine(
            database=diversity_db,
            executor=executor,
            max_workers=2,
            chunk_size=4,
        ) as engine:
            parallel = engine.evaluate(designs)
        assert serial == parallel


def _point(asp: float, coa: float) -> DesignEvaluation:
    metrics = SecurityMetrics(
        attack_impact=0.0,
        attack_success_probability=asp,
        number_of_exploitable_vulnerabilities=0,
        number_of_attack_paths=0,
        number_of_entry_points=0,
        attack_paths=(),
        path_impacts=(),
        path_probabilities=(),
        max_path_probability=0.0,
        shortest_attack_path=0,
        mean_path_length=0.0,
        total_risk=0.0,
        unique_cve_count=0,
    )
    snapshot = DesignSnapshot(security=metrics, coa=coa)
    return DesignEvaluation(
        design=RedundancyDesign({"web": 1}), before=snapshot, after=snapshot
    )


class TestParetoVectorized:
    def test_empty(self):
        assert pareto_front([]) == []

    def test_matches_loop_oracle_on_random_points(self):
        rng = random.Random(42)
        for _ in range(25):
            pool = [
                _point(
                    rng.choice([0.1, 0.2, 0.3, rng.random()]),
                    rng.choice([0.5, 0.9, rng.random()]),
                )
                for _ in range(rng.randrange(1, 40))
            ]
            fast = pareto_front(pool)
            oracle = pareto_front_loop(pool)
            assert [id(e) for e in fast] == [id(e) for e in oracle]

    def test_matches_loop_oracle_on_real_evaluations(self, design_evaluations):
        for after_patch in (True, False):
            fast = pareto_front(design_evaluations, after_patch=after_patch)
            oracle = pareto_front_loop(
                design_evaluations, after_patch=after_patch
            )
            assert [id(e) for e in fast] == [id(e) for e in oracle]

    def test_duplicate_points_all_survive(self):
        a = _point(0.1, 0.9)
        b = _point(0.1, 0.9)
        dominated = _point(0.2, 0.5)
        front = pareto_front([a, b, dominated])
        assert [id(e) for e in front] == [id(a), id(b)]

    def test_input_order_preserved(self):
        points = [_point(0.3, 0.99), _point(0.1, 0.5), _point(0.2, 0.9)]
        front = pareto_front(points)
        assert [id(e) for e in front] == [id(p) for p in points]
