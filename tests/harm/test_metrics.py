"""Tests for HARM security metrics."""

from __future__ import annotations

import random

import pytest

from repro.attackgraph import AttackGraph
from repro.attacktree import AttackTree
from repro.attacktree.nodes import LeafNode
from repro.errors import ValidationError
from repro.harm import Harm, PathAggregation, evaluate_security
from repro.harm.metrics import reduce_paths


def tree(name: str, impact=10.0, probability=1.0):
    return AttackTree.single(LeafNode(name, impact, probability))


@pytest.fixture
def two_path_harm():
    """A -> web1/web2 -> db, each host one vulnerability (p=0.5)."""
    graph = AttackGraph(targets=["db"])
    for web in ("web1", "web2"):
        graph.add_entry_point(web)
        graph.add_reachability(web, "db")
    return Harm(
        graph,
        {
            "web1": tree("v1", impact=3.0, probability=0.5),
            "web2": tree("v2", impact=7.0, probability=0.5),
            "db": tree("v3", impact=10.0, probability=0.5),
        },
    )


class TestPathMetrics:
    def test_attack_impact_is_max_path_sum(self, two_path_harm):
        metrics = evaluate_security(two_path_harm)
        assert metrics.attack_impact == pytest.approx(17.0)  # web2 + db

    def test_path_probabilities_multiply(self, two_path_harm):
        """Each path's probability is its hosts' product, 0.5 x 0.5."""
        metrics = evaluate_security(two_path_harm)
        assert metrics.max_path_probability == pytest.approx(0.25)
        assert metrics.total_risk == pytest.approx(0.25 * (13.0 + 17.0))

    def test_worst_case_network_asp(self, two_path_harm):
        metrics = evaluate_security(
            two_path_harm, aggregation=PathAggregation.WORST_CASE
        )
        assert metrics.attack_success_probability == pytest.approx(0.25)

    def test_independent_paths_network_asp(self, two_path_harm):
        metrics = evaluate_security(
            two_path_harm, aggregation=PathAggregation.INDEPENDENT_PATHS
        )
        assert metrics.attack_success_probability == pytest.approx(
            1 - (1 - 0.25) ** 2
        )

    def test_independent_paths_at_least_worst_case(self, two_path_harm):
        worst = evaluate_security(
            two_path_harm, aggregation=PathAggregation.WORST_CASE
        )
        independent = evaluate_security(
            two_path_harm, aggregation=PathAggregation.INDEPENDENT_PATHS
        )
        assert (
            independent.attack_success_probability
            >= worst.attack_success_probability
        )


class TestCountMetrics:
    def test_counts(self, two_path_harm):
        metrics = evaluate_security(two_path_harm)
        assert metrics.number_of_exploitable_vulnerabilities == 3
        assert metrics.number_of_attack_paths == 2
        assert metrics.number_of_entry_points == 2
        assert metrics.unique_cve_count == 3

    def test_as_dict_keys(self, two_path_harm):
        assert set(evaluate_security(two_path_harm).as_dict()) == {
            "AIM",
            "ASP",
            "NoEV",
            "NoAP",
            "NoEP",
        }

    def test_extras(self, two_path_harm):
        metrics = evaluate_security(two_path_harm)
        assert metrics.shortest_attack_path == 2
        assert metrics.mean_path_length == pytest.approx(2.0)
        assert metrics.max_path_probability == pytest.approx(0.25)
        assert metrics.total_risk == pytest.approx(0.25 * 13.0 + 0.25 * 17.0)


class TestDegenerateCases:
    def test_unreachable_target(self):
        graph = AttackGraph(targets=["db"])
        graph.add_entry_point("web")
        harm = Harm(graph, {"web": tree("v1"), "db": tree("v2")})
        metrics = evaluate_security(harm)
        assert metrics.number_of_attack_paths == 0
        assert metrics.attack_success_probability == 0.0
        assert metrics.attack_impact == 0.0

    def test_fully_patched_network(self):
        graph = AttackGraph(targets=["db"])
        graph.add_entry_point("web")
        graph.add_reachability("web", "db")
        harm = Harm(graph, {"web": None, "db": None})
        metrics = evaluate_security(harm)
        assert metrics.number_of_exploitable_vulnerabilities == 0
        assert metrics.number_of_attack_paths == 0
        assert metrics.number_of_entry_points == 0

    def test_target_unexploitable_breaks_paths(self):
        graph = AttackGraph(targets=["db"])
        graph.add_entry_point("web")
        graph.add_reachability("web", "db")
        harm = Harm(graph, {"web": tree("v1"), "db": None})
        metrics = evaluate_security(harm)
        assert metrics.number_of_attack_paths == 0

    def test_max_path_length_bounds_enumeration(self, two_path_harm):
        metrics = evaluate_security(two_path_harm, max_path_length=1)
        assert metrics.number_of_attack_paths == 0


class TestReducePaths:
    """The one reduction both the host-level and the class-level route use."""

    PATHS = [
        (13.0, 0.25, 2, 1),
        (17.0, 0.25, 2, 1),
        (13.0, 0.25, 2, 1),
        (40.1, 0.39**3, 3, 1),
        (52.2, 0.39**3, 4, 1),
    ]

    def reduce(self, paths, aggregation):
        return reduce_paths(
            paths,
            aggregation,
            exploitable_vulnerabilities=7,
            unique_cves=5,
            entry_points=2,
        )

    @pytest.mark.parametrize("aggregation", list(PathAggregation))
    def test_depends_only_on_the_multiset_of_paths(self, aggregation):
        rng = random.Random(3)
        paths = [
            # Small probabilities keep ASP off 1.0, so order would show.
            (
                rng.choice([3.0, 12.9, 16.4]),
                rng.random() / 50,
                rng.randint(1, 6),
                rng.randint(1, 4),
            )
            for _ in range(40)
        ]
        expected = self.reduce(paths, aggregation)
        # The same multiset, split into unit weights and shuffled.
        units = [(i, p, n, 1) for i, p, n, w in paths for _ in range(w)]
        for _ in range(20):
            rng.shuffle(units)
            assert self.reduce(units, aggregation) == expected
        merged = [(13.0, 0.25, 2, 2)] + self.PATHS[1:2] + self.PATHS[3:]
        assert self.reduce(merged, aggregation) == self.reduce(
            self.PATHS, aggregation
        )

    def test_weights_count_paths_exactly(self):
        metrics = self.reduce(
            [(1.0, 0.5, 3, 10**12), (2.0, 0.5, 5, 10**12)],
            PathAggregation.INDEPENDENT_PATHS,
        )
        assert metrics.number_of_attack_paths == 2 * 10**12
        assert metrics.mean_path_length == 4.0
        assert metrics.shortest_attack_path == 3
        assert metrics.attack_success_probability == 1.0
        assert metrics.total_risk == pytest.approx(1.5 * 10**12)

    def test_no_paths(self):
        metrics = self.reduce([], PathAggregation.INDEPENDENT_PATHS)
        assert metrics.number_of_attack_paths == 0
        assert metrics.attack_impact == metrics.attack_success_probability == 0.0
        assert metrics.mean_path_length == 0.0
        assert metrics.number_of_exploitable_vulnerabilities == 7
        assert metrics.unique_cve_count == 5
        assert metrics.number_of_entry_points == 2


class TestAggregationValues:
    """An aggregation is a :class:`PathAggregation` member or its value;
    anything else is refused before any path is reduced."""

    @pytest.mark.parametrize("member", list(PathAggregation))
    def test_values_reduce_like_their_members(self, two_path_harm, member):
        assert evaluate_security(
            two_path_harm, aggregation=member.value
        ) == evaluate_security(two_path_harm, aggregation=member)

    def test_unknown_value_raises_validation_error_naming_the_choices(
        self, two_path_harm
    ):
        message = (
            "unknown aggregation 'bogus'; expected one of "
            "'worst_case', 'independent_paths'"
        )
        with pytest.raises(ValidationError) as excinfo:
            evaluate_security(two_path_harm, aggregation="bogus")
        assert str(excinfo.value) == message
        # Even with no path to reduce.
        with pytest.raises(ValidationError) as excinfo:
            reduce_paths([], "bogus", 0, 0, 0)
        assert str(excinfo.value) == message
