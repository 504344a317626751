"""Enterprise-network modeling and the paper's case study.

:class:`ServerRole` describes one tier (products, attack-tree shape);
:class:`NetworkTopology` captures role-level reachability;
:class:`RedundancyDesign` assigns a replica count to each role; and
:class:`EnterpriseCaseStudy` bundles everything for the paper's example
network, expanding designs into concrete host-level HARMs and
availability models.
"""

from repro.enterprise.attacker import AttackerModel
from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import (
    DesignSpec,
    RedundancyDesign,
    example_network_design,
    paper_designs,
)
from repro.enterprise.heterogeneous import (
    HeterogeneousDesign,
    build_heterogeneous_harm,
    paper_variant_space,
    paper_variants,
)
from repro.enterprise.roles import ServerRole
from repro.enterprise.scaled import scaled_case_study, scaled_design
from repro.enterprise.topology import NetworkTopology

__all__ = [
    "ServerRole",
    "NetworkTopology",
    "AttackerModel",
    "DesignSpec",
    "RedundancyDesign",
    "paper_designs",
    "example_network_design",
    "EnterpriseCaseStudy",
    "paper_case_study",
    "scaled_case_study",
    "scaled_design",
    "HeterogeneousDesign",
    "build_heterogeneous_harm",
    "paper_variants",
    "paper_variant_space",
]
