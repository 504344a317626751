"""Extension: staged patch-rollout campaigns by piecewise uniformisation.

The PR 5 tentpole acceptance bench: transient COA curves for a whole
design space (27 designs x 32 time points) under a three-phase staged
rollout (canary -> ramp -> fleet), served by
:func:`repro.ctmc.transient.transient_piecewise` — one uniformised
batch pass per campaign phase, the state vector carried across phase
boundaries — against the brute-force per-phase re-uniformised oracle
that, for every single time point, re-propagates the state vector
through each earlier phase and runs one more single-time pass.

Each phase's chain is the design's upper-layer SRN
(:meth:`~repro.availability.NetworkAvailabilityModel.build_srn`) with
its patch rates scaled by the phase multiplier.

Three assertions:

* **determinism** — the piecewise batch result is byte-identical to the
  per-time oracle (independently constructed solvers), and the
  single-phase degenerate campaign is byte-identical to the stationary
  timeline across the whole space;
* **closed form** — the evaluators' closed-form stationary and staged
  COA curves match the uniformised curves within 1e-9;
* **speedup** — the piecewise path is >= 5x faster than the brute-force
  oracle (measured ~10-25x: 3 passes per design instead of ~60+),
  printed as a ``BENCH`` JSON line for the CI trajectory artifact.
"""

from __future__ import annotations

import json
import math
import time
from types import SimpleNamespace

import numpy as np

from repro.availability import NetworkAvailabilityModel, coa_reward
from repro.ctmc.transient import BatchTransientSolver, transient_piecewise
from repro.evaluation import (
    default_time_grid,
    enumerate_designs,
    evaluate_timeline,
)
from repro.patching import BIG_BANG, CANARY_THEN_FLEET
from repro.srn import explore

ROLES = ("dns", "web", "app")
MAX_REPLICAS = 3
POINTS = 32

#: The staged rollout under test: multipliers and durations of
#: CANARY_THEN_FLEET (48 h canary at x0.1, 120 h ramp at x0.5, fleet).
PHASES = [
    (phase.rate_multiplier, phase.duration_hours)
    for phase in CANARY_THEN_FLEET.phases[:-1]
] + [(CANARY_THEN_FLEET.phases[-1].rate_multiplier, math.inf)]


def _prepared_chains(availability_evaluator):
    """Per design: all-up start, COA reward and one generator per phase.

    A phase's generator comes from the design's upper-layer SRN with
    every patch rate scaled by the phase multiplier; the nets share one
    state order, so the distribution carries across phases.
    """
    prepared = []
    for design in enumerate_designs(ROLES, max_replicas=MAX_REPLICAS):
        aggregates = availability_evaluator.aggregates_for(design)
        generators = []
        for multiplier, _ in PHASES:
            model = NetworkAvailabilityModel(
                design.counts,
                {
                    role: SimpleNamespace(
                        patch_rate=multiplier * aggregate.patch_rate,
                        recovery_rate=aggregate.recovery_rate,
                    )
                    for role, aggregate in aggregates.items()
                },
            )
            graph = explore(model.build_srn())
            generators.append(graph.generator())
        reward = coa_reward(design.counts)
        rewards = np.array([reward(marking) for marking in graph.tangible])
        prepared.append(
            (design, graph.initial_distribution, rewards, generators)
        )
    return prepared


def _phase_solvers(generators):
    """One uniformised transient solver per campaign phase."""
    return [
        (BatchTransientSolver.from_generator(generator), duration)
        for generator, (_, duration) in zip(generators, PHASES)
    ]


def test_campaign_piecewise_speedup(availability_evaluator):
    """Piecewise >= 5x the brute-force per-time oracle, bit-identical."""
    prepared = _prepared_chains(availability_evaluator)
    times = list(default_time_grid(720.0, POINTS))
    assert len(prepared) == 27 and len(PHASES) == 3  # acceptance shape

    boundaries = []
    start = 0.0
    for _, duration in PHASES[:-1]:
        start += duration
        boundaries.append(start)

    def oracle_sweep():
        """Per time point: re-propagate through every earlier phase."""
        curves = []
        for _, initial, rewards, generators in prepared:
            segments = _phase_solvers(generators)
            values = np.empty(len(times))
            for i, t in enumerate(times):
                carry = initial
                start = 0.0
                for position, (solver, duration) in enumerate(segments):
                    last = position == len(segments) - 1
                    end = math.inf if last else start + duration
                    if start <= t < end:
                        dist = solver.distributions(carry, [t - start])[0]
                        values[i] = float(dist @ rewards)
                        break
                    carry = solver.propagate(carry, duration)
                    start = end
            curves.append(values)
        return curves

    def piecewise_sweep():
        """One batch pass per phase, boundaries carried in-pass."""
        curves = []
        for _, initial, rewards, generators in prepared:
            segments = _phase_solvers(generators)
            dists = transient_piecewise(segments, initial, times)
            values = np.empty(len(times))
            for i in range(len(dists)):
                values[i] = float(dists[i] @ rewards)
            curves.append(values)
        return curves

    def timed(fn, trials=3):
        # Min over trials: robust to scheduler preemption on shared CI.
        best, values = float("inf"), None
        for _ in range(trials):
            start = time.perf_counter()
            values = fn()
            best = min(best, time.perf_counter() - start)
        return best, values

    oracle_time, oracle_curves = timed(oracle_sweep)
    piecewise_time, piecewise_curves = timed(piecewise_sweep, trials=5)

    # determinism: piecewise == brute-force oracle, byte for byte
    for oracle_curve, piecewise_curve in zip(oracle_curves, piecewise_curves):
        assert piecewise_curve.tobytes() == oracle_curve.tobytes()
    # the staged curves really are staged: all-up at t = 0, and during
    # the canary phase COA sits strictly above the stationary curve
    assert all(curve[0] == 1.0 for curve in piecewise_curves)
    for (_, initial, rewards, generators), curve in zip(
        prepared[:3], piecewise_curves[:3]
    ):
        stationary = BatchTransientSolver.from_generator(generators[-1]).rewards(
            initial, rewards, times[:2]
        )
        assert curve[1] > stationary[1]
    # closed form: the evaluators' curves match the uniformised ones
    multipliers = [multiplier for multiplier, _ in PHASES]
    durations = [duration for _, duration in PHASES]
    for (design, initial, rewards, generators), curve in zip(
        prepared, piecewise_curves
    ):
        staged = availability_evaluator.transient_coa_piecewise(
            design, times, multipliers, durations
        )
        np.testing.assert_allclose(staged, curve, rtol=0.0, atol=1e-9)
        stationary = BatchTransientSolver.from_generator(generators[-1]).rewards(
            initial, rewards, times
        )
        np.testing.assert_allclose(
            availability_evaluator.transient_coa(design, times),
            stationary,
            rtol=0.0,
            atol=1e-9,
        )

    speedup = oracle_time / piecewise_time
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "campaign_piecewise_transient",
                "designs": len(prepared),
                "phases": len(PHASES),
                "time_points": len(times),
                "oracle_s": round(oracle_time, 4),
                "piecewise_s": round(piecewise_time, 4),
                "speedup": round(speedup, 1),
            }
        )
    )
    assert speedup >= 5.0, f"piecewise campaign only {speedup:.1f}x faster"


def test_single_phase_campaign_degenerates_bitwise(case_study, critical_policy):
    """BIG_BANG timelines equal the stationary ones across the space."""
    designs = list(enumerate_designs(ROLES, max_replicas=2))
    times = default_time_grid(720.0, 8)
    for design in designs:
        plain = evaluate_timeline(
            design, times, case_study=case_study, policy=critical_policy
        )
        staged = evaluate_timeline(
            design,
            times,
            case_study=case_study,
            policy=critical_policy,
            campaign=BIG_BANG,
        )
        assert staged.coa == plain.coa
        assert staged.completion_probability == plain.completion_probability
        assert staged.unpatched_fraction == plain.unpatched_fraction
        assert staged.mean_time_to_completion == plain.mean_time_to_completion


def test_staged_campaign_timeline_sweep(case_study, critical_policy):
    """The full pipeline: 27-design staged-campaign sweep, phase-aware."""
    designs = list(enumerate_designs(ROLES, max_replicas=MAX_REPLICAS))
    times = default_time_grid(720.0, POINTS)
    from repro.evaluation import evaluate_timelines

    staged = evaluate_timelines(
        designs, times, case_study, critical_policy, campaign=CANARY_THEN_FLEET
    )
    plain = evaluate_timelines(designs, times, case_study, critical_policy)
    assert len(staged) == 27
    for s, p in zip(staged, plain):
        assert s.phase_starts == (0.0, 48.0, 168.0)
        # canary-first: slower exposure decay, later completion
        assert all(
            b >= a - 1e-12
            for a, b in zip(p.unpatched_fraction, s.unpatched_fraction)
        )
        assert s.mean_time_to_completion > p.mean_time_to_completion
