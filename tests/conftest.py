"""Shared fixtures: the paper's case study and evaluated designs.

Session-scoped because the availability pipeline solves four lower-layer
SRNs; every test that needs the paper numbers reuses one evaluation.
"""

from __future__ import annotations

import pytest

from repro.enterprise import (
    example_network_design,
    paper_case_study,
    paper_designs,
)
from repro.evaluation import AvailabilityEvaluator, evaluate_designs
from repro.patching import CriticalVulnerabilityPolicy
from repro.vulnerability import paper_database


@pytest.fixture(scope="session")
def case_study():
    """The paper's example enterprise network."""
    return paper_case_study()


@pytest.fixture(scope="session")
def critical_policy():
    """The paper's patch policy (base score > 8.0)."""
    return CriticalVulnerabilityPolicy()


@pytest.fixture(scope="session")
def vulnerability_db():
    """The embedded Table I catalog."""
    return paper_database()


@pytest.fixture(scope="session")
def example_design():
    """1 DNS + 2 WEB + 2 APP + 1 DB."""
    return example_network_design()


@pytest.fixture(scope="session")
def five_designs():
    """The paper's five design choices, in order."""
    return paper_designs()


@pytest.fixture(scope="session")
def design_evaluations(case_study, critical_policy, five_designs):
    """Before/after snapshots of the five paper designs."""
    return evaluate_designs(
        five_designs, case_study=case_study, policy=critical_policy
    )


@pytest.fixture(scope="session")
def availability_evaluator(case_study, critical_policy):
    """Shared availability evaluator with cached per-role aggregates."""
    return AvailabilityEvaluator(case_study, critical_policy)

