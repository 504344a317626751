"""Extension: survivability (time to first patch-induced outage).

The single-replica DNS and DB tiers race to their monthly patch window,
so the example network's expected time to first whole-tier outage is
close to 720/2 = 360 hours; full 2x redundancy pushes it past 5 years.
"""

from __future__ import annotations

from repro.availability import mean_time_to_outage
from repro.enterprise import RedundancyDesign


def _design_outage_time(availability_evaluator, design):
    """Per-design expected time to the first whole-tier outage."""
    return mean_time_to_outage(availability_evaluator.network_model(design))


def _outage_times(availability_evaluator):
    designs = {
        "example (1/2/2/1)": RedundancyDesign(
            {"dns": 1, "web": 2, "app": 2, "db": 1}
        ),
        "no redundancy": RedundancyDesign({"dns": 1, "web": 1, "app": 1, "db": 1}),
        "full 2x redundancy": RedundancyDesign(
            {"dns": 2, "web": 2, "app": 2, "db": 2}
        ),
    }
    times = [
        _design_outage_time(availability_evaluator, design)
        for design in designs.values()
    ]
    return dict(zip(designs, times))


def test_extension_survivability(benchmark, availability_evaluator):
    times = benchmark(_outage_times, availability_evaluator)

    assert abs(times["example (1/2/2/1)"] - 360.0) / 360.0 < 0.01
    assert times["no redundancy"] < times["example (1/2/2/1)"]
    assert times["full 2x redundancy"] > 50_000.0

    print("\n[extension] mean time to first whole-tier outage")
    for label, hours in times.items():
        print(f"  {label:<22} {hours:12.1f} h  ({hours / 8760:8.2f} years)")
