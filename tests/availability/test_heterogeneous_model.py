"""Cross-checks for tiers of several server groups in the network model."""

from __future__ import annotations

import pytest

from repro.availability import NetworkAvailabilityModel


@pytest.fixture(scope="module")
def aggregates(availability_evaluator, example_design):
    return availability_evaluator.aggregates_for(example_design)


class TestHomogeneousEquivalence:
    """One-group tiers written out as groups are the homogeneous model."""

    def test_example_network_coa(self, aggregates):
        capacities = {"dns": 1, "web": 2, "app": 2, "db": 1}
        homogeneous = NetworkAvailabilityModel(capacities, aggregates)
        grouped = NetworkAvailabilityModel(
            {role: {role: count} for role, count in capacities.items()},
            aggregates,
        )
        assert (
            grouped.capacity_oriented_availability()
            == homogeneous.capacity_oriented_availability()
        )

    def test_system_availability(self, aggregates):
        capacities = {"dns": 1, "web": 2, "app": 2, "db": 1}
        homogeneous = NetworkAvailabilityModel(capacities, aggregates)
        grouped = NetworkAvailabilityModel(
            {role: {role: count} for role, count in capacities.items()},
            aggregates,
        )
        assert grouped.system_availability() == homogeneous.system_availability()


class TestVariantSplit:
    def test_splitting_a_tier_across_identical_variants_is_neutral(
        self, aggregates
    ):
        """2 servers of one variant == 1+1 of two identically-rated
        variants: the COA cannot tell them apart."""
        base = dict(aggregates)
        base["web_b"] = aggregates["web"]
        merged = NetworkAvailabilityModel(
            {"dns": 1, "web": 2, "db": 1},
            base,
        )
        split = NetworkAvailabilityModel(
            {"dns": 1, "web": {"web": 1, "web_b": 1}, "db": 1},
            base,
        )
        assert split.capacity_oriented_availability() == pytest.approx(
            merged.capacity_oriented_availability(), abs=1e-12
        )

    def test_total_servers(self, aggregates):
        model = NetworkAvailabilityModel(
            {"web": {"web": 2}, "db": {"db": 1}}, aggregates
        )
        assert model.total_servers == 3
        assert model.tiers == {"web": {"web": 2}, "db": {"db": 1}}

    def test_solution_cached(self, aggregates):
        model = NetworkAvailabilityModel(
            {"web": {"web": 1}, "db": {"db": 1}}, aggregates
        )
        assert model.solve() is model.solve()
