"""Tests for the COA sensitivity analysis."""

from __future__ import annotations

import pytest

from repro.errors import EvaluationError
from repro.evaluation import coa_sensitivity
from repro.evaluation.sensitivity import PARAMETERS
from repro.srn.reachability import exploration_count


@pytest.fixture(scope="module")
def tornado(case_study, example_design, critical_policy):
    return coa_sensitivity(case_study, example_design, critical_policy)


class TestTornado:
    def test_all_parameters_scanned(self, tornado):
        assert {entry.parameter for entry in tornado} == set(PARAMETERS)

    def test_sorted_by_swing(self, tornado):
        swings = [entry.swing for entry in tornado]
        assert swings == sorted(swings, reverse=True)

    def test_patch_interval_dominates(self, tornado):
        """The patch cadence is the biggest availability lever."""
        assert tornado[0].parameter == "patch_interval"

    def test_longer_interval_raises_coa(self, tornado):
        entry = next(e for e in tornado if e.parameter == "patch_interval")
        assert entry.coa_high > entry.coa_baseline > entry.coa_low

    def test_longer_patches_lower_coa(self, tornado):
        entry = next(e for e in tornado if e.parameter == "patch_durations")
        assert entry.coa_high < entry.coa_baseline < entry.coa_low

    def test_failure_rates_do_not_move_coa(self, tornado):
        """The upper-layer model captures patch downtime only, so the
        component failure rates barely touch COA (they enter only via
        the Eq. 2 ratio)."""
        for name in ("software_failure_rate", "hardware_failure_rate"):
            entry = next(e for e in tornado if e.parameter == name)
            assert entry.swing < 1e-4

    def test_baseline_matches_paper(self, tornado):
        for entry in tornado:
            assert entry.coa_baseline == pytest.approx(0.99707, abs=5e-6)


class TestExplorations:
    def test_tornado_explores_each_layer_once(
        self, case_study, example_design, critical_policy
    ):
        # 11 scenarios x 4 roles share one server-net exploration, and
        # the 11 upper-layer nets one family exploration.
        before = exploration_count()
        coa_sensitivity(case_study, example_design, critical_policy)
        assert exploration_count() - before == 2


class TestInterface:
    def test_subset_of_parameters(self, case_study, example_design, critical_policy):
        entries = coa_sensitivity(
            case_study,
            example_design,
            critical_policy,
            parameters=["patch_interval"],
        )
        assert [entry.parameter for entry in entries] == ["patch_interval"]

    def test_unknown_parameter_rejected(
        self, case_study, example_design, critical_policy
    ):
        with pytest.raises(EvaluationError):
            coa_sensitivity(
                case_study, example_design, critical_policy, parameters=["ghost"]
            )

    def test_bad_factors_rejected(self, case_study, example_design, critical_policy):
        with pytest.raises(EvaluationError):
            coa_sensitivity(
                case_study, example_design, critical_policy, low=0.0
            )
