"""Scalability frontier: transient solves an order of magnitude past the
paper's 2401-state model.

:func:`repro.enterprise.scaled_case_study` generates chain enterprises
whose availability CTMC has ``(hosts + 1) ** tiers`` states; this bench
runs the batched transient COA solve at the paper scale (2401 states),
10,000 states (9 hosts x 4 tiers) and 28,561 states (12 x 4) under each
propagation backend — exact uniformisation and adaptive
steady-state-detecting uniformisation — and emits one BENCH JSON line
per (size, method) cell for the CI trajectory gate.

Acceptance gates asserted here:

* the >= 10,000-state design solves transiently in under 30 s per
  method on one CPU;
* adaptive stays within tolerance of the exact sum at every size, and
  ``auto`` dispatch is bit-identical to the default on the 2401-state
  paper-scale model.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.enterprise import scaled_case_study
from repro.evaluation import AvailabilityEvaluator
from repro.observability import REGISTRY
from repro.patching import CriticalVulnerabilityPolicy

#: (hosts_per_tier, tiers) -> states = (hosts + 1) ** tiers
SIZES = (
    (6, 4),  # 2401 states — the paper model's scale
    (9, 4),  # 10000 states — the 10x frontier gate
    (12, 4),  # 28561 states
)
METHODS = ("uniformisation", "adaptive")
TIMES = [0.0, 24.0, 72.0, 168.0]
FRONTIER_BUDGET_S = 30.0


def _emit(payload):
    print("\nBENCH " + json.dumps(payload))


def _counter_delta(delta, name):
    """Total increment of counter *name* in a registry delta (all labels)."""
    return round(
        sum(
            entry["value"]
            for (family, _labels), entry in delta.items()
            if family == name and entry["kind"] == "counter"
        )
    )


def test_scalability_frontier():
    for hosts, tiers in SIZES:
        build_start = time.perf_counter()
        case_study, design = scaled_case_study(hosts, tiers)
        evaluator = AvailabilityEvaluator(
            case_study, CriticalVulnerabilityPolicy()
        )
        structure, rates = evaluator.coa_structure_for(design)
        build_s = time.perf_counter() - build_start
        states = structure.n_states
        assert states == (hosts + 1) ** tiers

        curves = {}
        for method in METHODS:
            before = REGISTRY.state()
            start = time.perf_counter()
            curves[method] = structure.transient_coa(
                rates, TIMES, method=method
            )
            solve_s = time.perf_counter() - start
            counters = REGISTRY.delta_since(before)
            if states >= 10_000:
                assert solve_s < FRONTIER_BUDGET_S, (
                    f"{method} took {solve_s:.1f}s on {states} states"
                )
            # One unique bench name per (size, method) cell: the CI
            # trajectory diff keys baselines by the name, so sharing one
            # would compare unrelated cells against each other.
            _emit(
                {
                    "bench": f"scalability_frontier_{states}_{method}",
                    "states": states,
                    "hosts_per_tier": hosts,
                    "tiers": tiers,
                    "method": method,
                    "build_s": round(build_s, 4),
                    "solve_s": round(solve_s, 4),
                    # Solver-path counters from the observability
                    # registry (non-_s fields: informational, exempt
                    # from the CI trajectory slowdown gate).
                    "transient_solves": _counter_delta(
                        counters, "repro_transient_solves_total"
                    ),
                    "uniformisation_iterations": _counter_delta(
                        counters,
                        "repro_transient_uniformisation_iterations_total",
                    ),
                    "adaptive_exits": _counter_delta(
                        counters, "repro_transient_adaptive_exits_total"
                    ),
                }
            )

        exact = curves["uniformisation"]
        assert exact[0] == 1.0
        np.testing.assert_allclose(
            curves["adaptive"], exact, rtol=0.0, atol=1e-8
        )


def test_auto_dispatch_bit_identical_at_paper_scale():
    """``auto`` resolves to the exact path below the cutoff — and the
    2401-state paper-scale model sits below it, so the result must be
    byte for byte the default's."""
    case_study, design = scaled_case_study(6, 4)
    evaluator = AvailabilityEvaluator(case_study, CriticalVulnerabilityPolicy())
    structure, rates = evaluator.coa_structure_for(design)
    assert structure.n_states == 2401
    exact = structure.transient_coa(rates, TIMES)
    auto = structure.transient_coa(rates, TIMES, method="auto")
    assert np.array_equal(auto, exact)
    solver = structure.transient_solver(rates, method="auto")
    assert solver.resolved_method == "uniformisation"
