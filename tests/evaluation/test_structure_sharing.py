"""Tests for what sweeps share across designs.

Covers the canonical tier layout every evaluator reads
(:func:`repro.enterprise.heterogeneous.design_tiers`), one evaluator's
aggregates shared across designs, the priming of pool workers with
those aggregates through the pool initializer, the upper-layer
explorations the closed form saves and worker failure reporting.
"""

from __future__ import annotations

import pytest

from repro.enterprise import (
    HeterogeneousDesign,
    RedundancyDesign,
    paper_case_study,
    paper_variant_space,
    scaled_case_study,
)
from repro.enterprise.heterogeneous import design_tiers
from repro.errors import EvaluationError, ValidationError
from repro.evaluation import AvailabilityEvaluator, SweepEngine
from repro.evaluation import engine as engine_module
from repro.evaluation.engine import _chunk, _worker_evaluators
from repro.evaluation.sweep import enumerate_designs
from repro.evaluation.timeline import default_time_grid
from repro.patching import CriticalVulnerabilityPolicy, PatchCampaign
from repro.srn.reachability import exploration_count
from repro.vulnerability.diversity import diversity_database


@pytest.fixture(scope="module")
def space27():
    return list(enumerate_designs(["dns", "web", "app"], max_replicas=3))


@pytest.fixture(scope="module")
def variant_space():
    return paper_variant_space()


class TestCanonicalLayout:
    def test_heterogeneous_tier_coupling_in_layout(
        self, case_study, critical_policy
    ):
        space = paper_variant_space()
        split = HeterogeneousDesign(
            {"web": {space["web"][0]: 1, space["web"][1]: 1}}
        )
        flat = RedundancyDesign({"dns": 1, "web": 1})
        # one tier of two single-server groups != two one-server tiers
        assert [len(groups) for _, groups in design_tiers(split)] == [2]
        assert [len(groups) for _, groups in design_tiers(flat)] == [1, 1]
        evaluator = AvailabilityEvaluator(
            case_study, critical_policy, database=diversity_database()
        )
        assert evaluator.coa(split) > evaluator.coa(flat)

    def test_slots_follow_canonical_order(self):
        tiers = design_tiers(RedundancyDesign({"web": 1, "dns": 2, "app": 2}))
        assert [role for role, _ in tiers] == ["app", "dns", "web"]
        assert [groups for _, groups in tiers] == [
            [(None, 2)],
            [(None, 2)],
            [(None, 1)],
        ]
        space = paper_variant_space()
        nginx, apache = space["web"][1], space["web"][0]
        design = HeterogeneousDesign({"web": {nginx: 2, apache: 1}})
        assert design_tiers(design) == [("web", [(apache, 1), (nginx, 2)])]

    def test_single_variant_maps_like_homogeneous(self, case_study):
        counts = {"dns": 1, "web": 2, "app": 2, "db": 1}
        homog = RedundancyDesign(counts)
        hetero = HeterogeneousDesign(
            {role: {case_study.roles[role]: c} for role, c in counts.items()}
        )
        assert [role for role, _ in design_tiers(homog)] == [
            role for role, _ in design_tiers(hetero)
        ]
        assert [
            [count for _, count in groups] for _, groups in design_tiers(homog)
        ] == [
            [count for _, count in groups] for _, groups in design_tiers(hetero)
        ]


class TestEvaluatorSharing:
    # One evaluator's cached aggregates serve a whole group of designs
    # bit for bit like a fresh evaluator per design.

    def test_grouped_bitwise_equal_to_per_design(
        self, case_study, critical_policy, space27
    ):
        shared = AvailabilityEvaluator(case_study, critical_policy)
        for design in space27:
            fresh = AvailabilityEvaluator(case_study, critical_policy)
            assert shared.coa(design).hex() == fresh.coa(design).hex()
        assert shared.solve_stats["aggregate_solves"] == 3

    def test_transient_bitwise_equal(self, case_study, critical_policy, space27):
        times = [0.0, 24.0, 360.0, 720.0]
        shared = AvailabilityEvaluator(case_study, critical_policy)
        for design in space27[::5]:
            fresh = AvailabilityEvaluator(case_study, critical_policy)
            a = shared.transient_coa(design, times)
            b = fresh.transient_coa(design, times)
            assert a.tobytes() == b.tobytes()

    def test_canonical_close_to_legacy_model(
        self, availability_evaluator, example_design
    ):
        canonical = availability_evaluator.coa(example_design)
        legacy = availability_evaluator.network_model(
            example_design
        ).capacity_oriented_availability()
        assert canonical == pytest.approx(legacy, abs=1e-12)

    def test_mixed_variant_canonical_matches_model(
        self, case_study, critical_policy, variant_space
    ):
        design = HeterogeneousDesign(
            {
                "web": {
                    variant_space["web"][0]: 2,
                    variant_space["web"][1]: 1,
                },
                "db": {variant_space["db"][0]: 1},
            }
        )
        evaluator = AvailabilityEvaluator(
            case_study, critical_policy, database=diversity_database()
        )
        assert evaluator.coa(design) == pytest.approx(
            evaluator.network_model(design).capacity_oriented_availability(),
            abs=1e-12,
        )


class TestWorkerPriming:
    def test_initializer_primes_worker_bitwise(
        self, case_study, critical_policy, space27, monkeypatch
    ):
        designs = space27[:6]
        priming = SweepEngine(
            case_study=case_study, policy=critical_policy
        )._worker_priming(designs)
        monkeypatch.setattr(engine_module, "_WORKER_PAIR", None)
        priming["initializer"](*priming["initargs"])
        before = exploration_count()
        primed = _chunk(_worker_evaluators, "evaluation", (), designs)
        assert exploration_count() == before  # no lower-layer re-solve
        reference = SweepEngine(
            case_study=case_study, policy=critical_policy
        ).evaluate(designs)
        for a, b in zip(primed, reference):
            assert a.after.coa.hex() == b.after.coa.hex()
            assert a.before == b.before and a.after == b.after

    def test_priming_covers_roles_and_variants(
        self, case_study, critical_policy, variant_space
    ):
        engine = SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            database=diversity_database(),
        )
        first = engine._worker_priming([RedundancyDesign({"dns": 1, "web": 2})])
        # Any counts over the primed roles are covered ...
        covered = engine._worker_priming(
            [RedundancyDesign({"web": 3}), RedundancyDesign({"dns": 2})]
        )
        assert covered["key"] == first["key"]
        # ... a new role or a variant stack is not.
        wider = engine._worker_priming([RedundancyDesign({"app": 1})])
        assert wider["key"] != first["key"]
        nginx = variant_space["web"][1]
        variant = engine._worker_priming(
            [HeterogeneousDesign({"web": {nginx: 1}})]
        )
        assert variant["key"] != wider["key"]
        _, _, _, aggregates = variant["initargs"]
        assert set(aggregates) == {
            ("app", None),
            ("dns", None),
            ("web", None),
            ("web", nginx),
        }

    def test_uninitialized_worker_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_WORKER_PAIR", None)
        with pytest.raises(EvaluationError):
            _chunk(
                _worker_evaluators, "evaluation", (), [RedundancyDesign({"dns": 1})]
            )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_pool_workers_never_resolve_lower_layer(
        self, case_study, critical_policy, space27, executor
    ):
        # Byte-identity cannot see this: an unprimed worker re-solves
        # the lower layer and still returns the same bytes.  The count
        # can, because worker metric deltas merge into this registry.
        kwargs = {} if executor == "serial" else {"max_workers": 2, "chunk_size": 1}
        campaign = PatchCampaign.parse("canary:0.1:48:1,ramp:0.5:50%,fleet:1.0")
        runs = (
            lambda engine: engine.evaluate(space27),
            lambda engine: engine.timeline(
                space27[:6], default_time_grid(720.0, 40), campaign=campaign
            ),
        )
        for run in runs:
            with SweepEngine(
                case_study=case_study,
                policy=critical_policy,
                executor=executor,
                **kwargs,
            ) as engine:
                before = exploration_count()
                run(engine)
                # One exploration of the server net serves all 3 roles.
                assert exploration_count() - before == 1

    def test_worker_explorations_reach_the_parent(
        self, case_study, critical_policy, space27
    ):
        # The control for the test above: a fresh evaluator in a
        # worker explores the server net once per design, and it shows.
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
            chunk_size=1,
        ) as engine:
            before = exploration_count()
            engine.map(_fresh_coa, space27[:8])
            assert exploration_count() - before == 8


def _fresh_coa(design):
    return AvailabilityEvaluator(
        paper_case_study(), CriticalVulnerabilityPolicy()
    ).coa(design)


class TestEngineSharingParity:
    @pytest.mark.parametrize("hetero_first", [False, True])
    def test_mixed_population_process_parity(
        self, case_study, critical_policy, variant_space, hetero_first
    ):
        # hetero_first guards the worker priming: role and variant
        # aggregates must both reach the workers, whichever design kind
        # the priming encounters first.
        designs = [
            RedundancyDesign({"dns": 1, "web": 2}),
            HeterogeneousDesign(
                {"web": {variant_space["web"][0]: 1, variant_space["web"][1]: 1}}
            ),
            RedundancyDesign({"dns": 2, "web": 1}),
        ]
        if hetero_first:
            designs = [designs[1], designs[0], designs[2]]
        serial = SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            database=diversity_database(),
        ).evaluate(designs)
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            database=diversity_database(),
            executor="process",
            max_workers=2,
            chunk_size=1,
        ) as engine:
            process = engine.evaluate(designs)
        for a, b in zip(serial, process):
            assert a.after.coa.hex() == b.after.coa.hex()
            assert a.after == b.after


class TestWorkerFailureReporting:
    def test_domain_failure_carries_label_without_traceback(
        self, case_study, critical_policy
    ):
        bad = RedundancyDesign({"dns": 1, "nosuchrole": 1})
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
            chunk_size=1,
        ) as engine, pytest.raises(ValidationError) as excinfo:
            engine.evaluate(
                [RedundancyDesign({"dns": 1}), bad, RedundancyDesign({"web": 1})]
            )
        message = str(excinfo.value)
        assert bad.label in message
        assert "unknown role" in message
        # domain errors stay readable: no traceback dump in the CLI path
        assert "Traceback" not in message

    def test_unexpected_failure_carries_label_and_traceback(
        self, case_study, critical_policy
    ):
        from repro.evaluation.combined import evaluate_designs_shared

        design = RedundancyDesign({"dns": 1})

        class ExplodingSecurity:
            def before_patch(self, design):
                raise TypeError("boom from a plain bug")

        with pytest.raises(EvaluationError) as excinfo:
            evaluate_designs_shared(
                [design],
                case_study,
                critical_policy,
                security_evaluator=ExplodingSecurity(),
            )
        message = str(excinfo.value)
        assert design.label in message
        assert "TypeError" in message
        assert "Traceback" in message

    def test_serial_failure_matches_process_shape(
        self, case_study, critical_policy
    ):
        bad = RedundancyDesign({"nosuchrole": 2})
        with pytest.raises(ValidationError) as excinfo:
            SweepEngine(
                case_study=case_study, policy=critical_policy
            ).evaluate([bad])
        assert bad.label in str(excinfo.value)

    def test_timeline_failure_carries_label(self, case_study, critical_policy):
        bad = RedundancyDesign({"nosuchrole": 2})
        engine = SweepEngine(case_study=case_study, policy=critical_policy)
        with pytest.raises(ValidationError) as excinfo:
            engine.timeline([bad], (0.0, 1.0))
        assert bad.label in str(excinfo.value)

    def test_broken_pool_reports_batch(self, case_study, critical_policy):
        from repro.evaluation.engine import ProcessExecutor

        designs = [RedundancyDesign({"dns": 1}), RedundancyDesign({"web": 1})]

        # os._exit kills the worker without an exception, the classic
        # BrokenProcessPool; the executor must translate it.
        with ProcessExecutor(max_workers=2) as executor, pytest.raises(
            EvaluationError
        ) as excinfo:
            executor.run(_crash_worker, [(designs[:1],), (designs[1:],)])
        assert "worker died" in str(excinfo.value) or "pool broke" in str(
            excinfo.value
        )


def _crash_worker(designs):  # pragma: no cover - runs in the worker
    import os

    os._exit(1)


class TestSolveCountReduction:
    def test_fresh_sweep_explores_the_server_net_once(self):
        designs = list(
            enumerate_designs(["dns", "web", "app", "db"], max_replicas=3)
        )
        assert len(designs) == 81
        before = exploration_count()
        SweepEngine().evaluate(designs)
        assert exploration_count() - before == 1

    def test_scaled_tiers_share_their_stacks(self, critical_policy):
        # 100 tiers cycle through the paper's 4 stacks: 4 solves, not 100.
        case_study, design = scaled_case_study(3, 100)
        evaluator = AvailabilityEvaluator(case_study, critical_policy)
        before = exploration_count()
        evaluator.coa(design)
        assert evaluator.solve_stats["aggregate_solves"] == 4
        assert exploration_count() - before == 1
        aggregates = evaluator.aggregates_for(design)
        assert list(aggregates) == list(design.roles)
        assert all(name == row.name for name, row in aggregates.items())
        assert aggregates["tier05"].recovery_rate == aggregates["tier01"].recovery_rate

    def test_variant_sharing_a_role_stack_shares_its_solve(
        self, case_study, critical_policy, variant_space
    ):
        # web_apache runs the paper's web stack: one solve, two names.
        apache = variant_space["web"][0]
        assert apache.name == "web_apache"
        evaluator = AvailabilityEvaluator(
            case_study, critical_policy, database=diversity_database()
        )
        role = evaluator.aggregates_for(RedundancyDesign({"web": 2}))
        variant = evaluator.aggregates_for(
            HeterogeneousDesign({"web": {apache: 2}})
        )
        assert evaluator.solve_stats["aggregate_solves"] == 1
        assert list(role) == ["web"] and list(variant) == ["web_apache"]
        assert role["web"].name == "web"
        assert variant["web_apache"].name == "web_apache"
        assert role["web"].recovery_rate == variant["web_apache"].recovery_rate
        assert role["web"].measures == variant["web_apache"].measures

    def test_batch_entry_point_solves_missing_stacks_once(
        self, case_study, critical_policy, space27
    ):
        evaluator = AvailabilityEvaluator(case_study, critical_policy)
        groups = evaluator.solve_groups(space27, "evaluating design")
        assert set(groups) == {("app", None), ("dns", None), ("web", None)}
        assert evaluator.solve_stats["aggregate_solves"] == 3
        bad = RedundancyDesign({"nosuchrole": 1})
        with pytest.raises(ValidationError) as excinfo:
            evaluator.solve_groups(space27[:2] + [bad], "evaluating design")
        assert f"evaluating design {bad.label!r} failed" in str(excinfo.value)
        assert evaluator.solve_stats["aggregate_solves"] == 3

    def test_failed_stack_fails_under_its_own_design(
        self, case_study, critical_policy, monkeypatch
    ):
        # A stack whose solve fails is left to each design's own lookup,
        # so the error carries the first design that needs that stack.
        from repro.evaluation import availability as availability_module
        from repro.evaluation.combined import evaluate_designs_shared

        solve = availability_module.aggregate_services

        def failing(solver, stacks):
            if any(stack.name == "web" for stack in stacks):
                raise EvaluationError("server 'web' never enters the pipeline")
            return solve(solver, stacks)

        monkeypatch.setattr(availability_module, "aggregate_services", failing)
        dns, web = RedundancyDesign({"dns": 2}), RedundancyDesign({"web": 1})
        with pytest.raises(EvaluationError) as excinfo:
            evaluate_designs_shared([dns, web], case_study, critical_policy)
        assert f"evaluating design {web.label!r} failed" in str(excinfo.value)

    def test_exploration_counter_reduction(
        self, case_study, critical_policy, space27
    ):
        from repro.srn.reachability import exploration_count

        closed = AvailabilityEvaluator(case_study, critical_policy)
        before = exploration_count()
        for design in space27:
            closed.coa(design)
        closed_explorations = exploration_count() - before

        srn = AvailabilityEvaluator(case_study, critical_policy)
        before = exploration_count()
        for design in space27:
            srn.network_model(design).capacity_oriented_availability()
        srn_explorations = exploration_count() - before

        # Both explore the server SRN once for all 3 roles; only the SRN
        # path explores an upper layer, once per design.
        assert closed_explorations == 1
        assert srn_explorations - 1 == len(space27)
