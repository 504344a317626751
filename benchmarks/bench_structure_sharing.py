"""Tentpole bench: the structure-sharing sweep pipeline.

Process-executor sweeps used to re-pickle the case study per chunk and
re-solve every lower-layer SRN in every chunk, and every design's
availability SRN was explored from scratch even when dozens of designs
share one transition pattern.  The structure-sharing pipeline solves the
per-role aggregate table and one canonical structure per pattern once,
publishes the numeric arrays to pool workers over
``multiprocessing.shared_memory``, and pattern-groups the upper-layer
solves — results byte-identical to the naive path.

Three assertions on the paper's 27-design sweep (dns/web/app x 1..3):

* **speedup** — the shared process-executor sweep is >= 5x faster than
  the per-chunk re-solving baseline (``structure_sharing=False``),
  measured as min-over-trials on reused engines (result memo cleared
  each trial, so the parent's one-time precompute amortises exactly as
  it does across repeated CLI/cached sweeps);
* **solve-count reduction** — 27 designs collapse to 10 distinct
  transition patterns: the shared pipeline runs 10 upper-layer
  reachability explorations instead of 27;
* **byte-identity** — sweep and timeline results with sharing on equal
  the sharing-off baseline bit for bit, across serial, thread and
  process executors.
"""

from __future__ import annotations

import json
import time

from repro.evaluation.engine import SweepEngine
from repro.evaluation.sweep import enumerate_designs
from repro.availability.grouped import design_layout
from repro.observability import REGISTRY
from repro.srn.reachability import exploration_count

ROLES = ("dns", "web", "app")
MAX_REPLICAS = 3
TRIALS = 5

#: Reduced grid for the <60s CI smoke (identity + solve counts only).
SMOKE_ROLES = ("dns", "web")
SMOKE_REPLICAS = 2


def _space():
    return list(enumerate_designs(ROLES, max_replicas=MAX_REPLICAS))


def _assert_identical(reference, results):
    assert len(reference) == len(results)
    for a, b in zip(reference, results):
        assert a.design == b.design
        assert a.before == b.before
        assert a.after == b.after
        assert a.after.coa.hex() == b.after.coa.hex()


def test_structure_sharing_speedup(case_study, critical_policy):
    """Shared process sweep >= 5x the per-chunk re-solving baseline."""
    designs = _space()
    assert len(designs) == 27  # the acceptance space

    patterns = {design_layout(design)[0] for design in designs}
    assert len(patterns) < len(designs)
    assert len(patterns) == 10

    def engine(**kwargs):
        return SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
            chunk_size=1,
            **kwargs,
        )

    def timed(sweep_engine):
        best, results = float("inf"), None
        for _ in range(TRIALS):
            sweep_engine.clear_cache()
            start = time.perf_counter()
            results = sweep_engine.evaluate(designs)
            best = min(best, time.perf_counter() - start)
        return best, results

    with engine(structure_sharing=False) as baseline_engine:
        baseline_s, baseline_results = timed(baseline_engine)
    with engine() as shared_engine:
        shared_s, shared_results = timed(shared_engine)

    # byte-identity before anything else: speed means nothing otherwise
    _assert_identical(baseline_results, shared_results)

    # solve counts, measured in-process on serial engines
    def solve_counts(structure_sharing):
        serial = SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            structure_sharing=structure_sharing,
        )
        steady = REGISTRY.counter("repro_steady_solves_total")
        steady_before = sum(c.value for c in steady.series().values())
        before = exploration_count()
        serial.evaluate(designs)
        steady_after = sum(c.value for c in steady.series().values())
        return exploration_count() - before, round(
            steady_after - steady_before
        )

    lower_layer = len(ROLES)  # one server SRN per role, in both modes
    shared_explorations, shared_steady = solve_counts(True)
    baseline_explorations, baseline_steady = solve_counts(False)
    assert shared_explorations == len(patterns) + lower_layer
    assert baseline_explorations == len(designs) + lower_layer

    speedup = baseline_s / shared_s
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "structure_sharing_sweep",
                "designs": len(designs),
                "patterns": len(patterns),
                "baseline_s": round(baseline_s, 4),
                "shared_s": round(shared_s, 4),
                "speedup": round(speedup, 1),
                "upper_explorations_shared": shared_explorations - lower_layer,
                "upper_explorations_baseline": (
                    baseline_explorations - lower_layer
                ),
                "steady_solves_shared": shared_steady,
                "steady_solves_baseline": baseline_steady,
            }
        )
    )
    assert speedup >= 5.0, f"structure sharing only {speedup:.1f}x faster"


def test_sweep_identity_across_executors(case_study, critical_policy):
    """Sharing on == off, byte for byte, on every executor (reduced grid)."""
    designs = list(
        enumerate_designs(SMOKE_ROLES, max_replicas=SMOKE_REPLICAS)
    )
    reference = SweepEngine(
        case_study=case_study,
        policy=critical_policy,
        structure_sharing=False,
    ).evaluate(designs)
    for executor in ("serial", "thread", "process"):
        for sharing in (True, False):
            kwargs = (
                {}
                if executor == "serial"
                else {"max_workers": 2, "chunk_size": 1}
            )
            with SweepEngine(
                case_study=case_study,
                policy=critical_policy,
                executor=executor,
                structure_sharing=sharing,
                **kwargs,
            ) as sweep_engine:
                results = sweep_engine.evaluate(designs)
            _assert_identical(reference, results)


def test_timeline_identity_across_executors(case_study, critical_policy):
    """Timeline parity: sharing on == off across executors (reduced grid)."""
    designs = list(
        enumerate_designs(SMOKE_ROLES, max_replicas=SMOKE_REPLICAS)
    )
    times = tuple(float(t) for t in (0.0, 90.0, 360.0, 720.0))
    reference = SweepEngine(
        case_study=case_study,
        policy=critical_policy,
        structure_sharing=False,
    ).timeline(designs, times)
    for executor in ("serial", "thread", "process"):
        for sharing in (True, False):
            kwargs = (
                {}
                if executor == "serial"
                else {"max_workers": 2, "chunk_size": 1}
            )
            with SweepEngine(
                case_study=case_study,
                policy=critical_policy,
                executor=executor,
                structure_sharing=sharing,
                **kwargs,
            ) as sweep_engine:
                results = sweep_engine.timeline(designs, times)
            for a, b in zip(reference, results):
                assert a.coa == b.coa
                assert a.completion_probability == b.completion_probability
                assert a.unpatched_fraction == b.unpatched_fraction
                assert a.mean_time_to_completion == b.mean_time_to_completion
                assert a.before == b.before
                assert a.after == b.after


def test_smoke_solve_count_reduction(case_study, critical_policy):
    """CI smoke: the reduced grid still shares structures (4 designs,
    3 patterns) and never exceeds the baseline exploration count."""
    designs = list(
        enumerate_designs(SMOKE_ROLES, max_replicas=SMOKE_REPLICAS)
    )
    patterns = {design_layout(design)[0] for design in designs}
    assert len(patterns) < len(designs)

    before = exploration_count()
    SweepEngine(case_study=case_study, policy=critical_policy).evaluate(
        designs
    )
    shared = exploration_count() - before

    before = exploration_count()
    SweepEngine(
        case_study=case_study,
        policy=critical_policy,
        structure_sharing=False,
    ).evaluate(designs)
    baseline = exploration_count() - before

    lower_layer = len(SMOKE_ROLES)
    assert shared == len(patterns) + lower_layer
    assert baseline == len(designs) + lower_layer
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "structure_sharing_smoke",
                "designs": len(designs),
                "patterns": len(patterns),
                "upper_explorations_shared": shared - lower_layer,
                "upper_explorations_baseline": baseline - lower_layer,
            }
        )
    )
