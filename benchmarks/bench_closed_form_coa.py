"""Closed-form COA against the upper-layer SRN on whole design spaces.

The evaluators compute COA in closed form
(:mod:`repro.availability.product_form`); the paper's upper-layer SRN
(:meth:`~repro.evaluation.AvailabilityEvaluator.network_model`) stays
the oracle.  This bench gates the two against each other on the 27-design
``dns,web,app`` space, the 100-design variant space and the 256-design
``dns,web,app,db`` space (at most 4 replicas): every design must agree
within 1e-12 relative.  Emits one BENCH JSON line per space with both
timings and the largest relative difference.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.enterprise import paper_variant_space
from repro.evaluation import AvailabilityEvaluator
from repro.evaluation.sweep import (
    enumerate_designs,
    enumerate_heterogeneous_designs,
)
from repro.vulnerability.diversity import diversity_database

TOLERANCE = 1e-12


def _spaces():
    variants = paper_variant_space()
    return {
        "roles3_max3": (list(enumerate_designs(["dns", "web", "app"], 3)), None),
        "variants_max2": (
            list(
                enumerate_heterogeneous_designs(
                    list(variants), variants, max_replicas=2
                )
            ),
            diversity_database(),
        ),
        "roles4_max4": (
            list(enumerate_designs(["dns", "web", "app", "db"], 4)),
            None,
        ),
    }


@pytest.mark.parametrize("space", ["roles3_max3", "variants_max2", "roles4_max4"])
def test_closed_form_matches_srn(space, case_study, critical_policy):
    designs, database = _spaces()[space]
    evaluator = AvailabilityEvaluator(case_study, critical_policy, database=database)
    for design in designs:  # solve the lower layer outside the timings
        evaluator.aggregates_for(design)

    start = time.perf_counter()
    closed = [evaluator.coa(design) for design in designs]
    closed_s = time.perf_counter() - start
    start = time.perf_counter()
    srn = [
        evaluator.network_model(design).capacity_oriented_availability()
        for design in designs
    ]
    srn_s = time.perf_counter() - start

    worst = max(abs(a - b) / b for a, b in zip(closed, srn))
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": f"closed_form_coa_{space}",
                "designs": len(designs),
                "closed_ms": round(1e3 * closed_s, 3),
                "srn_ms": round(1e3 * srn_s, 1),
                "max_rel_error": worst,
            }
        )
    )
    assert worst <= TOLERANCE, f"closed form off the SRN by {worst:.3g} relative"
