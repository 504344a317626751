"""Property-based tests for the CTMC solvers."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ctmc import Ctmc, aggregate_two_state, steady_state
from repro.ctmc.steady import steady_state_direct, steady_state_gth
from repro.ctmc.transient import transient_distribution


@st.composite
def irreducible_chains(draw, max_states=7):
    """Random chains made irreducible by a base cycle."""
    n = draw(st.integers(min_value=2, max_value=max_states))
    chain = Ctmc(list(range(n)))
    # base cycle guarantees a single recurrent class
    for i in range(n):
        chain.add_rate(
            i,
            (i + 1) % n,
            draw(st.floats(min_value=0.01, max_value=100.0, allow_nan=False)),
        )
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            ),
            max_size=12,
        )
    )
    for src, dst, rate in extra:
        if src != dst:
            chain.add_rate(src, dst, rate)
    return chain


@st.composite
def arbitrary_chains(draw, max_states=8):
    """Chains of any shape: isolated and absorbing states, repeated
    (accumulated) rates and rates over many orders of magnitude."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    chain = Ctmc(list(range(n)))
    rates = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=1e-300, max_value=1e300),
                    st.integers(min_value=1, max_value=1000),
                ),
            ),
            max_size=30,
        )
    )
    for src, dst, rate in rates:
        if src != dst:
            chain.add_rate(src, dst, rate)
    return chain


class TestDenseGenerator:
    @given(arbitrary_chains())
    @settings(max_examples=200, deadline=None)
    def test_dense_generator_equals_the_sparse_one(self, chain):
        dense = chain.dense_generator()
        sparse = chain.generator().toarray()
        assert dense.dtype == sparse.dtype
        assert np.array_equal(dense, sparse)


class TestSteadyStateProperties:
    @given(irreducible_chains())
    @settings(max_examples=60, deadline=None)
    def test_distribution_properties(self, chain):
        pi = steady_state(chain)
        assert pi.shape == (chain.number_of_states(),)
        assert np.all(pi >= 0.0)
        assert abs(pi.sum() - 1.0) < 1e-9
        residual = pi @ chain.dense_generator()
        assert np.abs(residual).max() < 1e-7

    @given(irreducible_chains())
    @settings(max_examples=40, deadline=None)
    def test_gth_matches_direct(self, chain):
        gth = steady_state_gth(chain)
        direct = steady_state_direct(chain)
        assert np.abs(gth - direct).max() < 1e-7

    @given(irreducible_chains(), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_transient_is_distribution(self, chain, t):
        initial = {chain.states[0]: 1.0}
        pi_t = transient_distribution(chain, initial, t)
        assert np.all(pi_t >= 0.0)
        assert abs(pi_t.sum() - 1.0) < 1e-9

    @given(irreducible_chains())
    @settings(max_examples=30, deadline=None)
    def test_transient_converges_to_steady_state(self, chain):
        initial = {chain.states[0]: 1.0}
        pi = steady_state(chain)
        # time constant: a few multiples of the slowest rate scale
        horizon = 200.0 / max(
            min(rate for _, _, rate in chain.transitions()), 1e-2
        )
        pi_t = transient_distribution(chain, initial, horizon)
        assert np.abs(pi_t - pi).max() < 1e-5


class TestAggregationProperties:
    @given(irreducible_chains())
    @settings(max_examples=40, deadline=None)
    def test_aggregate_preserves_up_probability(self, chain):
        n = chain.number_of_states()
        is_up = lambda s: s < max(1, n // 2)  # noqa: E731 - concise predicate
        aggregate = aggregate_two_state(chain, is_up)
        # the two-state equivalent reproduces the original P(up)
        assert abs(aggregate.availability - aggregate.up_probability) < 1e-9

    @given(irreducible_chains())
    @settings(max_examples=40, deadline=None)
    def test_aggregate_rates_positive(self, chain):
        aggregate = aggregate_two_state(chain, lambda s: s == 0)
        assert aggregate.failure_rate > 0.0
        assert aggregate.repair_rate > 0.0
        assert 0.0 < aggregate.availability < 1.0


class TestBatchTransientProperties:
    @given(irreducible_chains(), st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_batch_rows_are_distributions_matching_reference(self, chain, times):
        from repro.ctmc.transient import BatchTransientSolver

        initial = {chain.states[0]: 1.0}
        dists = BatchTransientSolver(chain).distributions(initial, times)
        assert np.all(dists >= 0.0)
        assert np.abs(dists.sum(axis=1) - 1.0).max() < 1e-9
        for row, t in zip(dists, times):
            reference = transient_distribution(chain, initial, t)
            assert np.abs(row - reference).max() < 1e-8

    @given(irreducible_chains(), st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_batch_is_bit_identical_to_per_time_loop(self, chain, times):
        from repro.ctmc.transient import BatchTransientSolver, transient_rewards

        initial = {chain.states[0]: 1.0}
        rewards = np.arange(chain.number_of_states(), dtype=float)
        batch = BatchTransientSolver(chain).rewards(initial, rewards, times)
        oracle = transient_rewards(chain, initial, rewards, times)
        assert batch.tobytes() == oracle.tobytes()

    @given(irreducible_chains())
    @settings(max_examples=20, deadline=None)
    def test_batch_converges_to_steady_state(self, chain):
        from repro.ctmc.transient import BatchTransientSolver

        initial = {chain.states[0]: 1.0}
        pi = steady_state(chain)
        horizon = 200.0 / max(
            min(rate for _, _, rate in chain.transitions()), 1e-2
        )
        dists = BatchTransientSolver(chain).distributions(initial, [horizon])
        assert np.abs(dists[0] - pi).max() < 1e-5

    @given(
        st.floats(min_value=0.05, max_value=30.0),
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_absorption_is_monotone(self, rate, tokens, times):
        from repro.ctmc.transient import BatchTransientSolver

        # pure-death chain: tokens, tokens-1, ..., 0 (absorbing)
        chain = Ctmc(list(range(tokens, -1, -1)))
        for k in range(tokens, 0, -1):
            chain.add_rate(k, k - 1, rate * k)
        times = sorted(times)
        dists = BatchTransientSolver(chain).distributions({tokens: 1.0}, times)
        absorbed = dists[:, chain.index_of(0)]
        assert np.all(np.diff(absorbed) >= -1e-12)
