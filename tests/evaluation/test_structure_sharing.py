"""Tests for the structure-sharing sweep pipeline.

Covers the canonical pattern layer (:mod:`repro.availability.grouped`),
the shared-memory transport (:mod:`repro.evaluation.shared_memory`), the
engine wiring (sharing on/off x serial/thread/process byte-identity),
the solve-count reduction and worker failure reporting.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.availability.grouped import (
    CoaStructure,
    build_canonical_net,
    coa_structure,
    design_layout,
)
from repro.enterprise import (
    HeterogeneousDesign,
    RedundancyDesign,
    paper_variant_space,
)
from repro.errors import EvaluationError, ValidationError
from repro.evaluation import AvailabilityEvaluator, SweepEngine
from repro.evaluation.engine import _chunk
from repro.evaluation.shared_memory import (
    SharedSweepContext,
    initialize_worker,
    pack_arrays,
    primed_evaluators,
    read_arrays,
)
from repro.evaluation.sweep import enumerate_designs
from repro.srn import explore
from repro.vulnerability.diversity import diversity_database


@pytest.fixture(scope="module")
def space27():
    return list(enumerate_designs(["dns", "web", "app"], max_replicas=3))


@pytest.fixture(scope="module")
def variant_space():
    return paper_variant_space()


class TestCanonicalLayout:
    def test_same_counts_multiset_shares_layout(self):
        a, _ = design_layout(RedundancyDesign({"dns": 1, "web": 2}))
        b, _ = design_layout(RedundancyDesign({"dns": 2, "web": 1}))
        assert a == b

    def test_different_multisets_differ(self):
        a, _ = design_layout(RedundancyDesign({"dns": 1, "web": 2}))
        b, _ = design_layout(RedundancyDesign({"dns": 2, "web": 2}))
        assert a != b

    def test_heterogeneous_tier_coupling_in_layout(self):
        space = paper_variant_space()
        split = HeterogeneousDesign(
            {"web": {space["web"][0]: 1, space["web"][1]: 1}}
        )
        flat = RedundancyDesign({"dns": 1, "web": 1})
        # one tier of two single-server groups != two one-server tiers
        assert design_layout(split)[0] != design_layout(flat)[0]

    def test_slots_follow_canonical_order(self):
        layout, slots = design_layout(
            RedundancyDesign({"dns": 2, "web": 1, "app": 2})
        )
        assert layout.counts == (1, 2, 2)
        assert [slot.role for slot in slots] == ["web", "dns", "app"]

    def test_single_variant_maps_like_homogeneous(self, case_study):
        counts = {"dns": 1, "web": 2, "app": 2, "db": 1}
        homog = RedundancyDesign(counts)
        hetero = HeterogeneousDesign(
            {role: {case_study.roles[role]: c} for role, c in counts.items()}
        )
        assert design_layout(homog)[0] == design_layout(hetero)[0]
        assert [s.count for s in design_layout(homog)[1]] == [
            s.count for s in design_layout(hetero)[1]
        ]

    def test_27_designs_10_patterns(self, space27):
        layouts = {design_layout(d)[0] for d in space27}
        assert len(layouts) == 10


class TestCoaStructure:
    def test_edges_match_exploration_rates(self, availability_evaluator):
        design = RedundancyDesign({"dns": 1, "web": 2, "app": 2})
        layout, slots = design_layout(design)
        rates = availability_evaluator.slot_rates(slots)
        pairs = [
            (float(rates[2 * i]), float(rates[2 * i + 1]))
            for i in range(len(slots))
        ]
        structure = coa_structure(layout, pairs)
        graph = explore(build_canonical_net(layout, pairs))
        values = structure.rate_values(rates)
        assert {
            (int(s), int(d)): v
            for s, d, v in zip(structure.src, structure.dst, values)
        } == graph.rates

    def test_array_roundtrip(self, availability_evaluator):
        design = RedundancyDesign({"dns": 2, "web": 1})
        structure, rates = availability_evaluator.coa_structure_for(design)
        rebuilt = CoaStructure.from_arrays(
            structure.layout, structure.to_arrays()
        )
        assert rebuilt.coa(rates).hex() == structure.coa(rates).hex()

    def test_rate_vector_shape_checked(self, availability_evaluator):
        design = RedundancyDesign({"dns": 1})
        structure, _ = availability_evaluator.coa_structure_for(design)
        with pytest.raises(EvaluationError):
            structure.rate_values([1.0, 2.0, 3.0])


class TestEvaluatorSharing:
    def test_grouped_bitwise_equal_to_per_design(
        self, case_study, critical_policy, space27
    ):
        shared = AvailabilityEvaluator(case_study, critical_policy)
        fresh = AvailabilityEvaluator(
            case_study, critical_policy, structure_sharing=False
        )
        for design in space27:
            assert shared.coa(design).hex() == fresh.coa(design).hex()
        assert shared.solve_stats["structure_builds"] == 10
        assert fresh.solve_stats["structure_builds"] == len(space27)

    def test_transient_bitwise_equal(self, case_study, critical_policy, space27):
        times = [0.0, 24.0, 360.0, 720.0]
        shared = AvailabilityEvaluator(case_study, critical_policy)
        fresh = AvailabilityEvaluator(
            case_study, critical_policy, structure_sharing=False
        )
        for design in space27[::5]:
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
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_sweep_byte_identical_on_vs_off(
        self, case_study, critical_policy, space27, executor
    ):
        designs = space27[:9]
        kwargs = (
            {} if executor == "serial" else {"max_workers": 2, "chunk_size": 3}
        )
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor=executor,
            **kwargs,
        ) as engine:
            on = engine.evaluate(designs)
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor=executor,
            structure_sharing=False,
            **kwargs,
        ) as engine:
            off = engine.evaluate(designs)
        for a, b in zip(on, off):
            assert a.after.coa.hex() == b.after.coa.hex()
            assert a.before == b.before and a.after == b.after

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_timeline_byte_identical_on_vs_off(
        self, case_study, critical_policy, space27, executor
    ):
        designs = space27[:6]
        times = (0.0, 120.0, 720.0)
        kwargs = (
            {} if executor == "serial" else {"max_workers": 2, "chunk_size": 2}
        )
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor=executor,
            **kwargs,
        ) as engine:
            on = engine.timeline(designs, times)
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor=executor,
            structure_sharing=False,
            **kwargs,
        ) as engine:
            off = engine.timeline(designs, times)
        for a, b in zip(on, off):
            assert a.coa == b.coa
            assert a.completion_probability == b.completion_probability
            assert a.unpatched_fraction == b.unpatched_fraction
            assert a.mean_time_to_completion == b.mean_time_to_completion
            assert a.before == b.before and a.after == b.after

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

        shared = AvailabilityEvaluator(case_study, critical_policy)
        before = exploration_count()
        for design in space27:
            shared.coa(design)
        shared_explorations = exploration_count() - before

        fresh = AvailabilityEvaluator(
            case_study, critical_policy, structure_sharing=False
        )
        before = exploration_count()
        for design in space27:
            fresh.coa(design)
        fresh_explorations = exploration_count() - before

        # lower-layer server SRNs add a constant 3 explorations to each
        assert shared_explorations < fresh_explorations
        assert shared_explorations - 3 == 10
        assert fresh_explorations - 3 == len(space27)
