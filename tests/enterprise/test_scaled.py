"""Tests for the scaled case-study generator (large-state-space designs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.enterprise import paper_case_study, scaled_case_study
from repro.enterprise.scaled import scaled_design
from repro.errors import ValidationError
from repro.evaluation import AvailabilityEvaluator
from repro.patching import CriticalVulnerabilityPolicy
from repro.srn import explore


def _upper_layer_graph(hosts, tiers):
    """The scaled design's explored upper-layer SRN and its evaluator."""
    case_study, design = scaled_case_study(hosts_per_tier=hosts, tiers=tiers)
    evaluator = AvailabilityEvaluator(case_study, CriticalVulnerabilityPolicy())
    model = evaluator.network_model(design)
    return explore(model.build_srn()), evaluator, design


class TestShapes:
    def test_tier_names_and_counts(self):
        case_study, design = scaled_case_study(hosts_per_tier=3, tiers=5)
        assert list(case_study.roles) == [
            "tier01",
            "tier02",
            "tier03",
            "tier04",
            "tier05",
        ]
        assert design.counts == {name: 3 for name in case_study.roles}

    def test_roles_cycle_paper_stacks(self):
        paper = paper_case_study()
        case_study, _ = scaled_case_study(hosts_per_tier=2, tiers=6)
        # tier05 wraps around to the dns stack, tier06 to web.
        dns = paper.roles["dns"]
        wrapped = case_study.roles["tier05"]
        assert wrapped.name == "tier05"
        assert wrapped.products == dns.products

    def test_chain_topology(self):
        case_study, _ = scaled_case_study(hosts_per_tier=2, tiers=4)
        topology = case_study.topology
        assert list(topology.entry_roles) == ["tier01"]
        assert list(topology.target_roles) == ["tier04"]
        assert case_study.attacker.goal_roles == ("tier04",)

    def test_scaled_design_helper(self):
        case_study, _ = scaled_case_study(hosts_per_tier=2, tiers=3)
        design = scaled_design(case_study, 7)
        assert design.counts == {f"tier{k:02d}": 7 for k in (1, 2, 3)}


class TestValidation:
    @pytest.mark.parametrize("tiers", [0, -1, 2.5, "four"])
    def test_bad_tiers_rejected(self, tiers):
        with pytest.raises(ValidationError, match="tiers"):
            scaled_case_study(hosts_per_tier=2, tiers=tiers)

    @pytest.mark.parametrize("hosts", [0, -3, 1.5, "six"])
    def test_bad_hosts_rejected(self, hosts):
        with pytest.raises(ValidationError, match="hosts_per_tier"):
            scaled_case_study(hosts_per_tier=hosts, tiers=2)


class TestStateCounts:
    def test_small_design_state_count(self):
        # (hosts + 1) ** tiers: 2 hosts over 3 tiers -> 27 states.
        graph, _, _ = _upper_layer_graph(2, 3)
        assert len(graph.tangible) == 27

    def test_paper_dimensions_recover_paper_state_count(self):
        graph, _, _ = _upper_layer_graph(6, 4)
        assert len(graph.tangible) == 2401


class TestEndToEnd:
    def test_coa_and_timeline_smoke(self):
        case_study, design = scaled_case_study(hosts_per_tier=2, tiers=3)
        evaluator = AvailabilityEvaluator(case_study, CriticalVulnerabilityPolicy())
        coa = evaluator.coa(design)
        assert 0.0 < coa <= 1.0
        curve = evaluator.transient_coa(design, [0.0, 24.0, 720.0])
        assert curve.shape == (3,)
        assert curve[0] == pytest.approx(1.0)
        # the long-horizon point approaches the stationary COA
        assert curve[2] == pytest.approx(coa, abs=1e-3)

    def test_methods_agree_on_scaled_design(self):
        from repro.availability import coa_reward
        from repro.ctmc.transient import BatchTransientSolver

        graph, evaluator, design = _upper_layer_graph(2, 3)
        times = [0.0, 24.0, 168.0]
        exact = evaluator.transient_coa(design, times)
        reward = coa_reward(design.counts)
        rewards = np.array([reward(m) for m in graph.tangible])
        for method in ("uniformisation", "adaptive", "auto"):
            solver = BatchTransientSolver.from_generator(
                graph.generator(), method=method
            )
            other = solver.rewards(graph.initial_distribution, rewards, times)
            np.testing.assert_allclose(other, exact, rtol=0.0, atol=1e-8)
