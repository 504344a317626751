"""Cross-layer instrumentation tests.

Asserts the observability guarantees the subsystem promises: layer
counters actually tick, sweep/timeline results are byte-identical with
tracing and metrics on or off across all executors, a process-pool
sweep's merged trace contains worker-side solver spans, and the
disabled tracing path costs (near) nothing.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.ctmc import Ctmc
from repro.ctmc.transient import BatchTransientSolver
from repro.evaluation import SweepEngine
from repro.evaluation.sweep import enumerate_designs
from repro.observability import REGISTRY, tracing
from repro.srn import StochasticRewardNet, explore
from repro.srn.reachability import exploration_count


@pytest.fixture(autouse=True)
def _clean_tracing():
    tracing.disable()
    tracing.drain()
    yield
    tracing.disable()
    tracing.drain()


@pytest.fixture(scope="module")
def space():
    return list(enumerate_designs(["dns", "web"], max_replicas=2))


def _counter_value(name, **labels):
    return REGISTRY.counter(name).labels(**labels).value


def _transient_solve(rate):
    """One uniformised transient solve of an up/down chain (a picklable
    task for pool workers)."""
    chain = Ctmc.from_rates({("up", "down"): rate, ("down", "up"): 8.0})
    return float(BatchTransientSolver(chain).distributions({"up": 1.0}, [1.0])[0, 0])


def _updown_net():
    net = StochasticRewardNet()
    net.add_place("up", tokens=1)
    net.add_place("down")
    net.add_timed_transition("fail", rate=2.0)
    net.add_arc("up", "fail")
    net.add_arc("fail", "down")
    net.add_timed_transition("repair", rate=8.0)
    net.add_arc("down", "repair")
    net.add_arc("repair", "up")
    return net


class TestLayerCounters:
    def test_explore_ticks_exploration_counters(self):
        before = exploration_count()
        vanishing_before = _counter_value("repro_srn_vanishing_eliminated_total")
        graph = explore(_updown_net())
        assert exploration_count() == before + 1
        assert (
            _counter_value("repro_srn_vanishing_eliminated_total")
            == vanishing_before + graph.vanishing_count
        )

    def test_sweep_ticks_solver_and_cache_counters(self, case_study, space):
        solves_before = REGISTRY.counter("repro_steady_solves_total")
        total_before = sum(
            child.value for child in solves_before.series().values()
        )
        lookups = REGISTRY.counter("repro_engine_cache_requests_total")
        misses_before = lookups.labels(tier="memo", outcome="miss").value
        hits_before = lookups.labels(tier="memo", outcome="hit").value

        engine = SweepEngine(case_study=case_study)
        engine.evaluate(space)
        total_after = sum(
            child.value for child in solves_before.series().values()
        )
        assert total_after > total_before
        assert (
            lookups.labels(tier="memo", outcome="miss").value
            == misses_before + len(space)
        )
        engine.evaluate(space)
        assert (
            lookups.labels(tier="memo", outcome="hit").value
            == hits_before + len(space)
        )

    def test_transient_solve_ticks_method_counter(self):
        family = REGISTRY.counter("repro_transient_solves_total")
        before = family.labels(method="uniformisation").value
        _transient_solve(2.0)
        assert family.labels(method="uniformisation").value > before


class TestByteIdentityWithInstrumentation:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_sweep_identical_tracing_on_vs_off(
        self, case_study, critical_policy, space, executor
    ):
        kwargs = (
            {} if executor == "serial" else {"max_workers": 2, "chunk_size": 2}
        )

        def run():
            with SweepEngine(
                case_study=case_study,
                policy=critical_policy,
                executor=executor,
                **kwargs,
            ) as engine:
                return engine.evaluate(space)

        tracing.disable()
        off = run()
        tracing.enable()
        on = run()
        tracing.disable()
        for a, b in zip(off, on):
            assert a.after.coa.hex() == b.after.coa.hex()
            assert a.before == b.before and a.after == b.after

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_timeline_identical_tracing_on_vs_off(
        self, case_study, critical_policy, space, executor
    ):
        designs = space[:4]
        times = (0.0, 120.0, 720.0)
        kwargs = (
            {} if executor == "serial" else {"max_workers": 2, "chunk_size": 2}
        )

        def run():
            with SweepEngine(
                case_study=case_study,
                policy=critical_policy,
                executor=executor,
                **kwargs,
            ) as engine:
                return engine.timeline(designs, times)

        tracing.disable()
        off = run()
        tracing.enable()
        on = run()
        tracing.disable()
        for a, b in zip(off, on):
            assert a.coa == b.coa
            assert a.completion_probability == b.completion_probability
            assert a.before == b.before and a.after == b.after


class TestWorkerTelemetryMerge:
    def test_process_sweep_trace_contains_worker_spans(
        self, case_study, critical_policy, space
    ):
        tracing.enable()
        tracing.drain()
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
            chunk_size=2,
        ) as engine:
            engine.evaluate(space)
        spans = tracing.drain()
        tracing.disable()
        parent = os.getpid()
        worker_spans = [e for e in spans if e["pid"] != parent]
        assert worker_spans, "no worker-side spans were merged"
        assert any(
            e["name"] in ("ctmc:steady", "srn:explore", "chunk:evaluate")
            for e in worker_spans
        )
        # Parent-side engine spans are present in the same trace.
        assert any(e["name"] == "engine:evaluate" for e in spans)

    def test_process_sweep_merges_worker_counters(self, case_study, critical_policy):
        # The mapped task runs its transient solves in pool workers
        # only; the parent-visible count must still rise via telemetry
        # merge.
        solves = REGISTRY.counter("repro_transient_solves_total").labels(
            method="uniformisation"
        )
        before = solves.value
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
            chunk_size=2,
        ) as engine:
            engine.map(_transient_solve, [1.0, 2.0, 3.0, 4.0])
        assert solves.value > before

    def test_chunk_queue_wait_observed_for_process_chunks(
        self, case_study, critical_policy, space
    ):
        hist = REGISTRY.histogram("repro_chunk_queue_wait_seconds").labels()
        before = hist.count
        with SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
            chunk_size=2,
        ) as engine:
            engine.evaluate(space)
        assert hist.count > before


class TestDisabledOverhead:
    def test_disabled_span_overhead_is_negligible(self):
        def bare():
            total = 0
            for i in range(200):
                total += i * i
            return total

        def instrumented():
            with tracing.span("hot"):
                total = 0
                for i in range(200):
                    total += i * i
                return total

        # Warm-up, then measure; generous bound (the contract is <2% on
        # real sweeps, where spans wrap whole solves, not a 200-iteration
        # toy loop).
        for _ in range(100):
            bare()
            instrumented()
        start = time.perf_counter()
        for _ in range(2000):
            bare()
        bare_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(2000):
            instrumented()
        span_s = time.perf_counter() - start
        assert span_s < bare_s * 2 + 0.05
