"""Property-based tests for the SRN engine on random safe nets."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.srn import StochasticRewardNet, explore, solve


@st.composite
def cyclic_nets(draw):
    """A ring of places with one token and random extra transitions.

    The ring guarantees liveness and irreducibility; extra chords add
    conflict and branching.  Some transitions are immediate, exercising
    vanishing-marking elimination.  Immediate chords only point forward,
    so every net drawn has an acyclic vanishing graph: its elimination
    is the back-substitution, never the sparse factor.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    net = StochasticRewardNet("random")
    for i in range(n):
        net.add_place(f"p{i}", tokens=1 if i == 0 else 0)
    for i in range(n):
        rate = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        net.add_timed_transition(f"ring{i}", rate=rate)
        net.add_arc(f"p{i}", f"ring{i}")
        net.add_arc(f"ring{i}", f"p{(i + 1) % n}")
    chord_count = draw(st.integers(min_value=0, max_value=3))
    for c in range(chord_count):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        if src == dst:
            continue
        immediate = draw(st.booleans())
        name = f"chord{c}"
        if immediate and src < dst:
            # Immediate chords only point "forward" (src < dst), so no
            # cycle of immediate transitions — and hence no timeless
            # trap — can form.
            weight = draw(st.floats(min_value=0.5, max_value=5.0))
            net.add_immediate_transition(name, weight=weight)
        else:
            rate = draw(st.floats(min_value=0.1, max_value=10.0))
            net.add_timed_transition(name, rate=rate)
        net.add_arc(f"p{src}", name)
        net.add_arc(name, f"p{dst}")
    return net


class TestStateSpaceProperties:
    @given(cyclic_nets())
    @settings(max_examples=50, deadline=None)
    def test_token_conservation(self, net):
        graph = explore(net)
        for marking in graph.tangible:
            assert sum(marking.tokens) == 1

    @given(cyclic_nets())
    @settings(max_examples=50, deadline=None)
    def test_tangible_markings_have_no_enabled_immediates(self, net):
        graph = explore(net)
        for marking in graph.tangible:
            assert not net.is_vanishing(marking)

    @given(cyclic_nets())
    @settings(max_examples=50, deadline=None)
    def test_initial_distribution_is_stochastic(self, net):
        graph = explore(net)
        dist = graph.initial_distribution
        assert np.all(dist >= 0.0)
        assert abs(dist.sum() - 1.0) < 1e-9

    @given(cyclic_nets())
    @settings(max_examples=50, deadline=None)
    def test_effective_rates_non_negative(self, net):
        graph = explore(net)
        assert all(rate >= 0.0 for rate in graph.rates.values())


class TestSolutionProperties:
    @given(cyclic_nets())
    @settings(max_examples=30, deadline=None)
    def test_steady_state_is_distribution(self, net):
        solution = solve(net)
        assert np.all(solution.probabilities >= 0.0)
        assert abs(solution.probabilities.sum() - 1.0) < 1e-9

    @given(cyclic_nets())
    @settings(max_examples=30, deadline=None)
    def test_expected_tokens_bounded(self, net):
        solution = solve(net)
        total = sum(solution.expected_tokens(p.name) for p in net.places)
        assert abs(total - 1.0) < 1e-9

    @given(cyclic_nets())
    @settings(max_examples=20, deadline=None)
    def test_probability_of_complementary_predicates(self, net):
        solution = solve(net)
        p = solution.probability_of(lambda m: m["p0"] == 1)
        q = solution.probability_of(lambda m: m["p0"] == 0)
        assert abs(p + q - 1.0) < 1e-9
