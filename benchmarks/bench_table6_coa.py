"""Table VI: the COA reward and the example network's availability.

Solves the upper-layer SRN for 1 DNS + 2 WEB + 2 APP + 1 DB under the
Table VI reward; the paper reports COA ~= 0.99707.  The closed form the
evaluators use must agree to solver precision.
"""

from __future__ import annotations

from repro.availability import NetworkAvailabilityModel


def _solve_network(aggregates):
    model = NetworkAvailabilityModel(
        {"dns": 1, "web": 2, "app": 2, "db": 1}, aggregates
    )
    return model, model.capacity_oriented_availability()


def test_table6_coa(benchmark, availability_evaluator, example_design):
    aggregates = availability_evaluator.aggregates_for(example_design)
    model, coa = benchmark(_solve_network, aggregates)

    assert abs(coa - 0.99707) < 5e-6
    closed = availability_evaluator.coa(example_design)
    assert abs(coa - closed) < 1e-12

    print("\n[Table VI] capacity oriented availability, example network")
    print(f"  COA (SRN)          = {coa:.6f}  (paper ~0.99707)")
    print(f"  COA (product form) = {closed:.6f}")
    print(f"  system availability = {model.system_availability():.6f}")
    print(f"  expected up servers = {model.expected_running_servers():.4f} / 6")
