"""Tests for what sweeps share across designs.

Covers the canonical tier layout the closed-form COA reads
(:func:`repro.evaluation.availability.design_tiers`), one evaluator's
aggregates shared across designs, the shared-memory transport of those
aggregates to pool workers (:mod:`repro.evaluation.shared_memory`), the
upper-layer explorations the closed form saves and worker failure
reporting.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.enterprise import (
    HeterogeneousDesign,
    RedundancyDesign,
    paper_variant_space,
)
from repro.errors import EvaluationError, ValidationError
from repro.evaluation import AvailabilityEvaluator, SweepEngine
from repro.evaluation.availability import design_tiers
from repro.evaluation.engine import _chunk
from repro.evaluation.shared_memory import (
    SharedSweepContext,
    initialize_worker,
    pack_arrays,
    primed_evaluators,
    read_arrays,
)
from repro.evaluation.sweep import enumerate_designs
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


class TestSharedMemoryTransport:
    def test_pack_read_roundtrip(self):
        arrays = {
            "a": np.arange(6, dtype=float).reshape(2, 3),
            "b": np.array([1, 5, 7], dtype=np.intp),
            "c": np.array([], dtype=float),
        }
        segment, index = pack_arrays(arrays)
        try:
            out = read_arrays(segment, index)
            for name, array in arrays.items():
                assert out[name].dtype == array.dtype
                assert out[name].tobytes() == array.tobytes()
                assert out[name].shape == array.shape
        finally:
            segment.close()
            segment.unlink()

    def test_context_primes_worker_bitwise(
        self, case_study, critical_policy, space27
    ):
        designs = space27[:6]
        context = SharedSweepContext.build(
            case_study, critical_policy, None, designs
        )
        try:
            initialize_worker(context.worker_payload())
            shared = _chunk(primed_evaluators, "evaluation", (), designs)
        finally:
            context.unlink()
        reference = SweepEngine(
            case_study=case_study, policy=critical_policy
        ).evaluate(designs)
        for a, b in zip(shared, reference):
            assert a.after.coa.hex() == b.after.coa.hex()
            assert a.before == b.before and a.after == b.after

    def test_context_covers_roles_and_variants(
        self, case_study, critical_policy, variant_space
    ):
        context = SharedSweepContext.build(
            case_study,
            critical_policy,
            None,
            [RedundancyDesign({"dns": 1, "web": 2})],
        )
        try:
            # Any counts over the published roles are covered ...
            assert context.covers(
                [RedundancyDesign({"web": 3}), RedundancyDesign({"dns": 2})]
            )
            # ... a new role or a variant stack is not.
            assert not context.covers([RedundancyDesign({"app": 1})])
            assert not context.covers(
                [HeterogeneousDesign({"web": {variant_space["web"][1]: 1}})]
            )
            assert set(context.describe()) == {
                "segment",
                "bytes",
                "roles",
                "variants",
            }
        finally:
            context.unlink()

    def test_context_unlinks_segment(self, case_study, critical_policy):
        context = SharedSweepContext.build(
            case_study,
            critical_policy,
            None,
            [RedundancyDesign({"dns": 1})],
        )
        name = context.segment_name
        context.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        context.unlink()  # idempotent

    def test_engine_unlinks_after_sweep(
        self, case_study, critical_policy, space27, monkeypatch
    ):
        created: list[str] = []
        original = SharedSweepContext.build.__func__

        def recording_build(cls, *args, **kwargs):
            context = original(cls, *args, **kwargs)
            created.append(context.segment_name)
            return context

        monkeypatch.setattr(
            SharedSweepContext, "build", classmethod(recording_build)
        )
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
            chunk_size=3,
        ) as engine:
            engine.evaluate(space27[:6])
            assert created, "process sweep did not use the shared-memory path"
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_engine_unlinks_when_pool_crashes(
        self, case_study, critical_policy, space27, monkeypatch
    ):
        from repro.evaluation import engine as engine_module

        created: list[str] = []
        original = SharedSweepContext.build.__func__

        def recording_build(cls, *args, **kwargs):
            context = original(cls, *args, **kwargs)
            created.append(context.segment_name)
            return context

        monkeypatch.setattr(
            SharedSweepContext, "build", classmethod(recording_build)
        )

        def broken_run(self, fn, batches, **priming):
            raise RuntimeError("worker pool exploded")
            yield

        monkeypatch.setattr(
            engine_module.ProcessExecutor, "iter_run", broken_run
        )
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
            chunk_size=3,
        ) as engine:
            with pytest.raises(RuntimeError):
                engine.evaluate(space27[:6])
        assert created
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_uninitialized_worker_fails_loudly(self, monkeypatch):
        from repro.evaluation import shared_memory as sm

        monkeypatch.setattr(sm, "_WORKER", None)
        with pytest.raises(EvaluationError):
            _chunk(
                primed_evaluators, "evaluation", (), [RedundancyDesign({"dns": 1})]
            )


class TestEngineSharingParity:
    @pytest.mark.parametrize("hetero_first", [False, True])
    def test_mixed_population_process_parity(
        self, case_study, critical_policy, variant_space, hetero_first
    ):
        # hetero_first guards the shared-memory aggregate-table layout:
        # variant rows must never displace the role-row block, whichever
        # design kind the precompute encounters first.
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

        # Both explore the 3 lower-layer server SRNs; only the SRN path
        # explores an upper layer, once per design.
        assert closed_explorations == 3
        assert srn_explorations - 3 == len(space27)
