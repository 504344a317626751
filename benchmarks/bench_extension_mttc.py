"""Extension: mean time to compromise (attacker-progression CTMC).

MTTC adds a time dimension to the static HARM metrics: patching slows
the attacker (ASP drops, exploits take longer to land); extra replicas
of exploitable tiers speed the attacker up (parallel targets race);
extra replicas of the patched DNS tier change nothing.
"""

from __future__ import annotations

from repro.harm import mean_time_to_compromise


def _design_mttc(case_study, critical_policy, design):
    """Per-design MTTC pair, before and after patching."""
    before = mean_time_to_compromise(case_study.build_harm(design))
    after = mean_time_to_compromise(
        case_study.build_harm(design, critical_policy)
    )
    return design.label, (before, after)


def _mttc_per_design(case_study, five_designs, critical_policy):
    pairs = [
        _design_mttc(case_study, critical_policy, design) for design in five_designs
    ]
    return dict(pairs)


def test_extension_mttc(benchmark, case_study, five_designs, critical_policy):
    results = benchmark(_mttc_per_design, case_study, five_designs, critical_policy)

    for label, (before, after) in results.items():
        assert after > before, label
    d1_after = results["1 DNS + 1 WEB + 1 APP + 1 DB"][1]
    d2_after = results["2 DNS + 1 WEB + 1 APP + 1 DB"][1]
    d3_after = results["1 DNS + 2 WEB + 1 APP + 1 DB"][1]
    assert d2_after == d1_after  # DNS replicas off the surface after patch
    assert d3_after < d1_after  # extra web replica races the attacker in

    print("\n[extension] mean time to compromise (unit exploit rate)")
    print("  design                          before     after")
    for label, (before, after) in results.items():
        print(f"  {label:<30} {before:8.3f}  {after:8.3f}")
