"""Property-based tests for what sweeps share across designs.

The load-bearing invariants: one evaluator's cached lower-layer
aggregates serve arbitrary mixed populations of homogeneous and
heterogeneous designs **bit-identically** to a fresh evaluator per
design, and solving a family of structurally identical nets together
(:func:`repro.srn.solve_family`, once per signature group) is
bit-identical to solving each net on its own.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.enterprise import (
    HeterogeneousDesign,
    RedundancyDesign,
    paper_case_study,
    paper_variant_space,
)
from repro.evaluation import AvailabilityEvaluator
from repro.patching import CriticalVulnerabilityPolicy
from repro.srn import StochasticRewardNet, family_signature, solve, solve_family
from repro.vulnerability.diversity import diversity_database

_CASE_STUDY = paper_case_study()
_POLICY = CriticalVulnerabilityPolicy()
_SPACE = paper_variant_space()
_DATABASE = diversity_database()

_ROLES = ("dns", "web", "app", "db")


def _homogeneous(draw):
    roles = draw(
        st.lists(
            st.sampled_from(_ROLES), min_size=1, max_size=3, unique=True
        )
    )
    counts = {
        role: draw(st.integers(min_value=1, max_value=3)) for role in roles
    }
    return RedundancyDesign(counts)


def _heterogeneous(draw):
    roles = draw(
        st.lists(
            st.sampled_from(_ROLES), min_size=1, max_size=2, unique=True
        )
    )
    assignment = {}
    for role in roles:
        pool = _SPACE[role]
        chosen = draw(
            st.lists(
                st.sampled_from(range(len(pool))),
                min_size=1,
                max_size=len(pool),
                unique=True,
            )
        )
        assignment[role] = {
            pool[index]: draw(st.integers(min_value=1, max_value=2))
            for index in chosen
        }
    return HeterogeneousDesign(assignment)


@st.composite
def design_populations(draw):
    population = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        if draw(st.booleans()):
            population.append(_homogeneous(draw))
        else:
            population.append(_heterogeneous(draw))
    return population


def _fresh():
    return AvailabilityEvaluator(_CASE_STUDY, _POLICY, database=_DATABASE)


class TestGroupedSolveParity:
    @given(design_populations())
    @settings(max_examples=15, deadline=None)
    def test_grouped_coa_bit_identical_to_per_design(self, population):
        shared = _fresh()
        for design in population:
            assert shared.coa(design).hex() == _fresh().coa(design).hex()

    @given(design_populations(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_grouped_transient_bit_identical(self, population, points):
        times = tuple(float(24 * 30 * i) for i in range(points + 1))
        shared = _fresh()
        for design in population:
            a = shared.transient_coa(design, times)
            b = _fresh().transient_coa(design, times)
            assert a.tobytes() == b.tobytes()


class TestSolveFamiliesParity:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),  # tokens
                st.floats(min_value=0.01, max_value=50.0),  # down rate
                st.floats(min_value=0.01, max_value=50.0),  # up rate
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_families_bit_identical_to_solo_solves(self, specs):
        nets = []
        for i, (tokens, down_rate, up_rate) in enumerate(specs):
            net = StochasticRewardNet(f"net{i}")
            net.add_place("Pup", tokens=tokens)
            net.add_place("Pdown")

            def down(m, _r=down_rate):
                return _r * m["Pup"]

            def up(m, _r=up_rate):
                return _r * m["Pdown"]

            net.add_timed_transition("Td", rate=down)
            net.add_arc("Pup", "Td")
            net.add_arc("Td", "Pdown")
            net.add_timed_transition("Tu", rate=up)
            net.add_arc("Pdown", "Tu")
            net.add_arc("Tu", "Pup")
            nets.append(net)

        groups: dict = {}
        for net in nets:
            groups.setdefault(family_signature(net), []).append(net)
        solved = [
            pair
            for members in groups.values()
            for pair in zip(members, solve_family(members))
        ]
        assert len(solved) == len(nets)
        for net, solution in solved:
            reference = solve(net)
            assert (
                solution.probabilities.tobytes()
                == reference.probabilities.tobytes()
            )
            assert np.array_equal(
                solution.graph.initial_distribution,
                reference.graph.initial_distribution,
            )
