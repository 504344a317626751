"""Heterogeneous redundancy: diverse software stacks within a tier.

The paper evaluates identical replicas and defers heterogeneous
redundancy to future work.  This example compares three web-tier
strategies on the paper's network — single Apache, dual Apache
(the paper's third design), and Apache + nginx diversity — plus a
diverse database tier, reporting the security metrics and COA for each.

It then shows the unified ``DesignSpec`` pipeline: the sweep engine
evaluates the whole diversity design space (every variant-count
assignment over the paper's variant pools) next to the homogeneous
replica-count space, and ranks the *mixed* population on one
(ASP, COA) Pareto front — the ``repro sweep --variants`` CLI does the
same from the command line.

Usage::

    python examples/heterogeneous_redundancy.py
"""

from __future__ import annotations

from repro.enterprise import (
    HeterogeneousDesign,
    build_heterogeneous_harm,
    paper_case_study,
    paper_variant_space,
    paper_variants,
)
from repro.evaluation import (
    AvailabilityEvaluator,
    SweepEngine,
    enumerate_designs,
    pareto_front,
)
from repro.evaluation.sweep import enumerate_heterogeneous_designs
from repro.harm import evaluate_security
from repro.patching import CriticalVulnerabilityPolicy
from repro.vulnerability.diversity import diversity_database


def main() -> None:
    case_study = paper_case_study()
    database = diversity_database()
    policy = CriticalVulnerabilityPolicy()
    availability = AvailabilityEvaluator(case_study, policy, database=database)
    variants = paper_variants()

    def base_tiers():
        return {
            "dns": {variants["dns_ms"]: 1},
            "app": {variants["app_weblogic"]: 1},
            "db": {variants["db_mysql"]: 1},
        }

    designs = {
        "single Apache web": HeterogeneousDesign(
            {**base_tiers(), "web": {variants["web_apache"]: 1}}
        ),
        "dual Apache web": HeterogeneousDesign(
            {**base_tiers(), "web": {variants["web_apache"]: 2}}
        ),
        "Apache + nginx web": HeterogeneousDesign(
            {**base_tiers(), "web": {variants["web_apache"]: 1,
                                     variants["web_nginx"]: 1}}
        ),
        "diverse web + diverse db": HeterogeneousDesign(
            {
                "dns": {variants["dns_ms"]: 1},
                "app": {variants["app_weblogic"]: 1},
                "web": {variants["web_apache"]: 1, variants["web_nginx"]: 1},
                "db": {variants["db_mysql"]: 1, variants["db_postgres"]: 1},
            }
        ),
    }

    print("after-patch comparison (critical-vulnerability policy):")
    print(
        f"{'strategy':<26} {'ASP':>7} {'NoEV':>5} {'NoAP':>5} {'uCVE':>5}"
        f" {'COA':>9} {'sysA':>9}"
    )
    for name, design in designs.items():
        harm = build_heterogeneous_harm(case_study, design, database, policy)
        metrics = evaluate_security(harm)
        # The upper-layer SRN: one server group per variant.
        model = availability.network_model(design)
        print(
            f"{name:<26}"
            f" {metrics.attack_success_probability:7.4f}"
            f" {metrics.number_of_exploitable_vulnerabilities:5d}"
            f" {metrics.number_of_attack_paths:5d}"
            f" {metrics.unique_cve_count:5d}"
            f" {model.capacity_oriented_availability():9.6f}"
            f" {model.system_availability():9.6f}"
        )

    print()
    print("observations:")
    print(" - any second web replica (identical or diverse) lifts COA and")
    print("   system availability by removing the web single point of failure;")
    print(" - identical replicas add attack paths using the *same* exploits,")
    print("   while diverse replicas force the attacker to hold distinct")
    print("   exploits per stack (see the unique-CVE column);")
    print(" - diversity is not free: each extra stack contributes its own")
    print("   exploitable vulnerabilities to the attack surface.")

    # -- the unified sweep: replica counts AND stacks on one front --------
    roles = ["dns", "web", "app", "db"]
    engine = SweepEngine(database=database)
    mixed = list(enumerate_designs(roles, max_replicas=2))
    mixed += list(
        enumerate_heterogeneous_designs(
            roles, paper_variant_space(), max_replicas=2
        )
    )
    evaluations = engine.evaluate(mixed)
    front = pareto_front(evaluations)
    print()
    print(
        f"unified sweep: {len(evaluations)} designs "
        f"({sum(isinstance(e.design, HeterogeneousDesign) for e in evaluations)}"
        " heterogeneous), Pareto front on (ASP down, COA up):"
    )
    for evaluation in front:
        after = evaluation.after
        print(
            f"  ASP={after.security.attack_success_probability:.4f}"
            f" COA={after.coa:.6f}  {evaluation.label}"
        )
    print("(the CLI equivalent: python -m repro sweep --variants --json)")


if __name__ == "__main__":
    main()
