"""Scalability frontier: SRN solves an order of magnitude past the
paper's 2401-state model.

:func:`repro.enterprise.scaled_case_study` generates chain enterprises
whose availability CTMC has ``(hosts + 1) ** tiers`` states; this bench
runs the batched transient COA solve (exact uniformisation) and the
steady-state solve at the paper scale (2401 states), 10,000 states
(9 hosts x 4 tiers) and 28,561 states (12 x 4), and emits one BENCH JSON
line per (size, solve) cell for the CI trajectory gate.

Acceptance gates asserted here:

* every solve of a >= 10,000-state design finishes in under 30 s on
  one CPU;
* the closed-form COA curve the evaluators use matches the uniformised
  SRN curve within 1e-9 at every size, and the closed-form steady COA
  matches the SRN's steady state within 1e-9 (the iterative path above
  5,000 states, the direct factorisation below).

Each chain is the design's upper-layer SRN
(:meth:`~repro.availability.NetworkAvailabilityModel.build_srn`),
explored once per size.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.availability import coa_reward
from repro.ctmc import steady_state
from repro.ctmc.transient import BatchTransientSolver
from repro.enterprise import scaled_case_study
from repro.evaluation import AvailabilityEvaluator
from repro.observability import REGISTRY
from repro.patching import CriticalVulnerabilityPolicy
from repro.srn import explore

#: (hosts_per_tier, tiers) -> states = (hosts + 1) ** tiers
SIZES = (
    (6, 4),  # 2401 states — the paper model's scale
    (9, 4),  # 10000 states — the 10x frontier gate
    (12, 4),  # 28561 states
)
TIMES = [0.0, 24.0, 72.0, 168.0]
FRONTIER_BUDGET_S = 30.0


def _emit(payload):
    print("\nBENCH " + json.dumps(payload))


def _upper_layer_graph(hosts, tiers):
    """The scaled design, its evaluator, its explored upper-layer SRN
    and the COA reward vector over the SRN's tangible markings."""
    case_study, design = scaled_case_study(hosts, tiers)
    evaluator = AvailabilityEvaluator(case_study, CriticalVulnerabilityPolicy())
    graph = explore(evaluator.network_model(design).build_srn())
    reward = coa_reward(design.counts)
    rewards = np.fromiter(
        (reward(marking) for marking in graph.tangible),
        dtype=float,
        count=len(graph.tangible),
    )
    return evaluator, design, graph, rewards


def _counter_delta(snapshots, name, **labels):
    """Total increment of counter *name* between two registry snapshots
    over the series carrying *labels*."""
    before, after = snapshots
    return round(
        sum(
            entry["value"] - before.get(key, {}).get("value", 0.0)
            for key, entry in after.items()
            if key[0] == name
            and entry["kind"] == "counter"
            and all(dict(key[1]).get(k) == v for k, v in labels.items())
        )
    )


def _timed(solve):
    """``(result, seconds, registry snapshots around it)`` of one solve."""
    before = REGISTRY.state()
    start = time.perf_counter()
    result = solve()
    return result, time.perf_counter() - start, (before, REGISTRY.state())


def test_scalability_frontier():
    for hosts, tiers in SIZES:
        build_start = time.perf_counter()
        evaluator, design, graph, rewards = _upper_layer_graph(hosts, tiers)
        build_s = time.perf_counter() - build_start
        states = len(graph.tangible)
        assert states == (hosts + 1) ** tiers
        cell = {
            "states": states,
            "hosts_per_tier": hosts,
            "tiers": tiers,
            "build_s": round(build_s, 4),
        }

        solver = BatchTransientSolver.from_generator(graph.generator())
        curve, transient_s, counters = _timed(
            lambda: solver.rewards(graph.initial_distribution, rewards, TIMES)
        )
        # One unique bench name per (size, solve) cell: the CI
        # trajectory diff keys baselines by the name, so sharing one
        # would compare unrelated cells against each other.
        _emit(
            {
                "bench": f"scalability_frontier_{states}_uniformisation",
                **cell,
                "method": "uniformisation",
                "solve_s": round(transient_s, 4),
                # Solver-path counters from the observability registry
                # (non-_s fields: informational, exempt from the CI
                # trajectory slowdown gate).
                "transient_solves": _counter_delta(
                    counters, "repro_transient_solves_total"
                ),
                "uniformisation_iterations": _counter_delta(
                    counters, "repro_transient_uniformisation_iterations_total"
                ),
            }
        )

        chain = graph.to_ctmc()
        pi, steady_s, counters = _timed(lambda: steady_state(chain))
        _emit(
            {
                "bench": f"scalability_frontier_{states}_steady",
                **cell,
                "method": "steady",
                "solve_s": round(steady_s, 4),
                **{
                    f"steady_solves_{path}": _counter_delta(
                        counters, "repro_steady_solves_total", path=path
                    )
                    for path in ("direct", "iterative", "power")
                },
            }
        )

        if states >= 10_000:
            for label, seconds in (("transient", transient_s), ("steady", steady_s)):
                assert seconds < FRONTIER_BUDGET_S, (
                    f"{label} solve took {seconds:.1f}s on {states} states"
                )
        assert curve[0] == 1.0
        np.testing.assert_allclose(
            evaluator.transient_coa(design, TIMES), curve, rtol=0.0, atol=1e-9
        )
        assert abs(float(pi @ rewards) - evaluator.coa(design)) <= 1e-9
