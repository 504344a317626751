"""Scalability: upper-layer SRN state space, solve time and reward paths.

The paper's Section V plans larger networks; this bench grows every tier
to n replicas and measures the exact-solution pipeline.  State count is
(n+1)^4, so n=6 already means 2401 tangible states — comfortably solved
by the sparse pipeline.

Two engine-era measurements ride along:

* ``test_reward_vectorized_speedup`` times the vectorized reward path
  (cached per-marking vector + numpy dot) against the original
  per-marking Python loop on the 2401-state model and asserts the
  >= 3x speedup the sweep engine relies on (measured ~10-100x).
* ``test_sweep_engine_design_space`` sweeps a 64-design space through
  :class:`repro.evaluation.engine.SweepEngine` — the batched path that
  replaced the serial per-design loop.
"""

from __future__ import annotations

import time

from repro.availability import NetworkAvailabilityModel
from repro.availability.coa import coa_reward
from repro.evaluation import SweepEngine, enumerate_designs, pareto_front
from tests.oracles.srn import expected_reward_loop


def _solve_uniform_design(aggregates, replicas):
    counts = {role: replicas for role in ("dns", "web", "app", "db")}
    model = NetworkAvailabilityModel(counts, aggregates)
    coa = model.capacity_oriented_availability()
    return model.solve().graph.number_of_states, coa


def test_scalability_srn_replicas_4(
    benchmark, availability_evaluator, example_design
):
    aggregates = availability_evaluator.aggregates_for(example_design)
    states, coa = benchmark(_solve_uniform_design, aggregates, 4)
    assert states == 5**4
    assert 0.998 < coa < 1.0
    print(f"\n[scalability] n=4 replicas/tier: {states} states, COA={coa:.8f}")


def test_scalability_srn_replicas_6(
    benchmark, availability_evaluator, example_design
):
    aggregates = availability_evaluator.aggregates_for(example_design)
    states, coa = benchmark(_solve_uniform_design, aggregates, 6)
    assert states == 7**4
    assert 0.998 < coa < 1.0
    print(f"\n[scalability] n=6 replicas/tier: {states} states, COA={coa:.8f}")


def test_scalability_coa_monotone_in_replicas(
    availability_evaluator, example_design
):
    aggregates = availability_evaluator.aggregates_for(example_design)
    coas = [
        _solve_uniform_design(aggregates, replicas)[1] for replicas in (1, 2, 3, 4)
    ]
    assert coas == sorted(coas)


def test_reward_vectorized_speedup(availability_evaluator, example_design):
    """Vectorized reward path must beat the loop path >= 3x (acceptance)."""
    aggregates = availability_evaluator.aggregates_for(example_design)
    counts = {role: 6 for role in ("dns", "web", "app", "db")}
    model = NetworkAvailabilityModel(counts, aggregates)
    solution = model.solve()
    reward = coa_reward(counts)
    repetitions = 25
    trials = 3

    def _timed(fn):
        # Min over trials: robust to scheduler preemption on shared CI.
        best, values = float("inf"), None
        for _ in range(trials):
            start = time.perf_counter()
            values = [fn(reward) for _ in range(repetitions)]
            best = min(best, time.perf_counter() - start)
        return best, values

    loop_time, loop_values = _timed(
        lambda reward: expected_reward_loop(solution, reward)
    )
    vec_time, vec_values = _timed(solution.expected_reward)

    assert abs(loop_values[0] - vec_values[0]) < 1e-12
    speedup = loop_time / vec_time
    print(
        f"\n[scalability] reward path over {len(solution.markings)} states, "
        f"{repetitions} evaluations: loop {loop_time * 1e3:.1f} ms, "
        f"vectorized {vec_time * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 3.0, f"vectorized reward only {speedup:.2f}x faster"


def test_sweep_engine_design_space(benchmark, case_study, critical_policy):
    """64-design sweep through the engine (the Figs. 6-7 scale-up path)."""
    designs = list(enumerate_designs(["dns", "web", "app"], max_replicas=4))
    assert len(designs) == 64

    def _sweep():
        engine = SweepEngine(case_study=case_study, policy=critical_policy)
        return engine.evaluate(designs)

    evaluations = benchmark(_sweep)
    assert len(evaluations) == 64
    front = pareto_front(evaluations)
    assert 0 < len(front) <= 64
    print(
        f"\n[scalability] engine sweep: {len(evaluations)} designs, "
        f"Pareto front size {len(front)}"
    )
