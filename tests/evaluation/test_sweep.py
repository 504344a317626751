"""Tests for design-space sweeps and Pareto analysis."""

from __future__ import annotations

import pytest

from repro.enterprise import RedundancyDesign
from repro.evaluation import enumerate_designs, evaluate_designs, pareto_front
from repro.errors import ValidationError


class TestEnumeration:
    def test_counts(self):
        designs = list(enumerate_designs(["a", "b"], max_replicas=2))
        assert len(designs) == 4

    def test_max_total_budget(self):
        designs = list(enumerate_designs(["a", "b"], max_replicas=3, max_total=4))
        assert all(d.total_servers <= 4 for d in designs)
        assert len(designs) == 6  # (1,1)(1,2)(1,3)(2,1)(2,2)(3,1)

    def test_small_total_never_walks_the_replica_range(self):
        # 1000 replicas over 4 roles is 10^12 candidates; a total of 4
        # admits one design, found without visiting the rest.
        designs = list(
            enumerate_designs(
                ["dns", "web", "app", "db"], max_replicas=1000, max_total=4
            )
        )
        assert designs == [
            RedundancyDesign({"dns": 1, "web": 1, "app": 1, "db": 1})
        ]

    def test_empty_roles(self):
        assert list(enumerate_designs([], max_replicas=2)) == []

    def test_invalid_max_replicas(self):
        with pytest.raises(ValidationError):
            list(enumerate_designs(["a"], max_replicas=0))

    def test_paper_roles_exhaustive(self):
        designs = list(
            enumerate_designs(["dns", "web", "app", "db"], max_replicas=2)
        )
        assert len(designs) == 16
        assert RedundancyDesign({"dns": 1, "web": 1, "app": 1, "db": 1}) in designs


class TestSweepAndPareto:
    def test_sweep_evaluates_all(self, case_study, critical_policy):
        designs = [
            RedundancyDesign({"dns": 1, "web": 1, "app": 1, "db": 1}),
            RedundancyDesign({"dns": 1, "web": 1, "app": 2, "db": 1}),
        ]
        evaluations = evaluate_designs(
            designs, case_study=case_study, policy=critical_policy
        )
        assert [e.design for e in evaluations] == designs

    def test_pareto_front_of_paper_designs(self, design_evaluations):
        front = pareto_front(design_evaluations)
        labels = {e.label for e in front}
        # D1 (lowest ASP, lowest COA), D2 (same ASP, better COA) and D4
        # (higher ASP, best COA) are non-dominated; D1 is dominated by D2.
        assert "2 DNS + 1 WEB + 1 APP + 1 DB" in labels
        assert "1 DNS + 1 WEB + 2 APP + 1 DB" in labels
        assert "1 DNS + 1 WEB + 1 APP + 1 DB" not in labels

    def test_dominated_designs_excluded(self, design_evaluations):
        front = pareto_front(design_evaluations)
        # D3 is dominated by D4 (same ASP, higher COA) and D5 likewise.
        labels = {e.label for e in front}
        assert "1 DNS + 2 WEB + 1 APP + 1 DB" not in labels
        assert "1 DNS + 1 WEB + 1 APP + 2 DB" not in labels

    def test_pareto_front_before_patch(self, design_evaluations):
        front = pareto_front(design_evaluations, after_patch=False)
        # before patch ASP = 1.0 everywhere: only max-COA survives
        assert [e.label for e in front] == ["1 DNS + 1 WEB + 2 APP + 1 DB"]
