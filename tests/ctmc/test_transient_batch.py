"""Tests for the batched uniformisation solver.

The contract under test: a batched call over a set of times is
**bit-identical** to the per-time loop (:func:`transient_rewards`), and
both agree with the independent single-time implementation
(:func:`transient_distribution`) to solver tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmc import Ctmc, steady_state
from repro.ctmc.transient import (
    BatchTransientSolver,
    _poisson_weights,
    transient_distribution,
    transient_rewards,
)
from repro.errors import SolverError


def updown(failure=2.0, repair=8.0):
    return Ctmc.from_rates({("up", "down"): failure, ("down", "up"): repair})


def stiff_chain():
    """A chain whose uniformisation series needs thousands of terms.

    Rates mimic the paper's network model: slow patching (~1/720 h)
    against fast recovery (~1/h), so ``Lambda t`` is large at monthly
    horizons — the regime the batch solver exists for.
    """
    rates = {}
    states = [(i, j) for i in range(3) for j in range(3)]
    for i in range(3):
        for j in range(3):
            if i < 2:
                rates[((i, j), (i + 1, j))] = 0.0014 * (2 - i)
            if i > 0:
                rates[((i, j), (i - 1, j))] = 1.5 * i
            if j < 2:
                rates[((i, j), (i, j + 1))] = 0.0014 * (2 - j)
            if j > 0:
                rates[((i, j), (i, j - 1))] = 0.9 * j
    return Ctmc.from_rates(rates, states=states)


class TestBitIdentityWithPerTimeLoop:
    """The acceptance contract: batch == per-time loop, byte for byte."""

    @pytest.mark.parametrize(
        "times",
        [
            [0.0, 0.5, 1.0, 5.0],
            [720.0, 0.0, 24.0, 168.0, 360.0],  # unsorted, paper horizon
            [1000.0],
            [0.0],
        ],
    )
    def test_stiff_chain(self, times):
        chain = stiff_chain()
        initial = {(2, 2): 1.0}
        rewards = np.array([float(i + j) for i, j in chain.states])
        batch = BatchTransientSolver(chain).rewards(initial, rewards, times)
        oracle = transient_rewards(chain, initial, rewards, times)
        assert batch.tobytes() == oracle.tobytes()

    def test_two_state(self):
        chain = updown()
        times = [0.0, 0.1, 2.0, 100.0]
        rewards = np.array([1.0, 0.0])
        batch = BatchTransientSolver(chain).rewards(chain_initial(chain), rewards, times)
        oracle = transient_rewards(chain, chain_initial(chain), rewards, times)
        assert batch.tobytes() == oracle.tobytes()

    def test_distributions_match_single_time_calls(self):
        chain = stiff_chain()
        initial = {(2, 2): 1.0}
        times = [12.0, 300.0, 720.0]
        solver = BatchTransientSolver(chain)
        together = solver.distributions(initial, times)
        for i, t in enumerate(times):
            alone = solver.distributions(initial, [t])
            assert together[i].tobytes() == alone[0].tobytes()

    def test_sparse_path_bit_identity(self):
        # Force the sparse (sequential) accumulation path via a chain
        # above the dense cutoff equivalent: patch the cutoff boundary
        # by using the from_generator construction on a csr matrix.
        chain = stiff_chain()
        q = chain.generator().tocsr().astype(float)
        solver = BatchTransientSolver.from_generator(q, states=chain.states)
        solver._powers = None  # exercise the sequential branch
        initial = {(2, 2): 1.0}
        times = [3.0, 40.0]
        together = solver.distributions(initial, times)
        for i, t in enumerate(times):
            alone = solver.distributions(initial, [t])
            assert together[i].tobytes() == alone[0].tobytes()


class TestAccuracy:
    def test_matches_transient_distribution(self):
        chain = stiff_chain()
        initial = {(2, 2): 1.0}
        times = [0.0, 1.0, 24.0, 168.0, 720.0]
        dists = BatchTransientSolver(chain).distributions(initial, times)
        for row, t in zip(dists, times):
            reference = transient_distribution(chain, initial, t)
            assert row == pytest.approx(reference, abs=1e-9)

    def test_rows_are_distributions(self):
        chain = stiff_chain()
        dists = BatchTransientSolver(chain).distributions(
            {(2, 2): 1.0}, [0.0, 7.0, 900.0]
        )
        assert np.all(dists >= 0.0)
        assert dists.sum(axis=1) == pytest.approx([1.0, 1.0, 1.0])

    def test_converges_to_steady_state(self):
        chain = updown()
        pi = steady_state(chain)
        dists = BatchTransientSolver(chain).distributions({"down": 1.0}, [1000.0])
        assert dists[0] == pytest.approx(pi, abs=1e-8)

    def test_absorbing_chain_accumulates_mass(self):
        # a -> b -> c (absorbing); steady state is ill-posed, transient is not
        chain = Ctmc.from_rates({("a", "b"): 1.0, ("b", "c"): 2.0})
        dists = BatchTransientSolver(chain).distributions(
            {"a": 1.0}, [0.0, 1.0, 5.0, 200.0]
        )
        absorbed = dists[:, 2]
        assert np.all(np.diff(absorbed) >= -1e-12)  # monotone absorption
        assert absorbed[0] == 0.0
        assert absorbed[-1] == pytest.approx(1.0, abs=1e-9)

    def test_frozen_chain(self):
        chain = Ctmc(["a", "b"])
        dists = BatchTransientSolver(chain).distributions({"a": 1.0}, [0.0, 50.0])
        assert dists[0].tolist() == [1.0, 0.0]
        assert dists[1].tolist() == [1.0, 0.0]


class TestManyRewards:
    def test_reward_matrix_shape_and_values(self):
        chain = updown()
        times = [0.0, 0.5, 3.0]
        rewards = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        out = BatchTransientSolver(chain).rewards({"up": 1.0}, rewards, times)
        assert out.shape == (3, 3)
        assert out[:, 0] + out[:, 1] == pytest.approx([1.0, 1.0, 1.0])
        assert out[:, 2] == pytest.approx([2.0, 2.0, 2.0])

    def test_vector_reward_keeps_legacy_shape(self):
        chain = updown()
        out = BatchTransientSolver(chain).rewards(
            {"up": 1.0}, np.array([1.0, 0.0]), [0.0, 100.0]
        )
        assert out.shape == (2,)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.8, abs=1e-8)


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(SolverError):
            BatchTransientSolver(updown()).distributions({"up": 1.0}, [1.0, -0.5])

    def test_bad_initial_rejected(self):
        with pytest.raises(SolverError):
            BatchTransientSolver(updown()).distributions(np.array([0.7, 0.7]), [1.0])

    def test_bad_reward_shape_rejected(self):
        with pytest.raises(SolverError):
            BatchTransientSolver(updown()).rewards(
                {"up": 1.0}, np.array([1.0, 2.0, 3.0]), [1.0]
            )

    def test_bad_tolerance_rejected(self):
        with pytest.raises(SolverError):
            BatchTransientSolver(updown(), tolerance=0.0)

    def test_mismatched_rows_rejected(self):
        solver = BatchTransientSolver(updown())
        rows = solver.poisson_rows([1.0])
        with pytest.raises(SolverError):
            solver.distributions({"up": 1.0}, [1.0, 2.0], rows=rows)

    def test_from_generator_mapping_needs_states(self):
        q = updown().generator()
        solver = BatchTransientSolver.from_generator(q)
        with pytest.raises(SolverError):
            solver.distributions({"up": 1.0}, [1.0])
        # with labels the mapping works
        labelled = BatchTransientSolver.from_generator(q, states=["up", "down"])
        dists = labelled.distributions({"up": 1.0}, [0.0])
        assert dists[0].tolist() == [1.0, 0.0]


class TestPoissonWeights:
    @pytest.mark.parametrize("mean", [0.0, 0.3, 1.0, 7.7, 171.8, 5154.8])
    def test_against_scipy(self, mean):
        from scipy import stats

        weights, left = _poisson_weights(mean, 1e-10)
        reference = stats.poisson.pmf(np.arange(left, left + len(weights)), mean)
        assert weights == pytest.approx(reference, abs=1e-12)
        assert weights.sum() == pytest.approx(1.0)

    def test_zero_mean(self):
        weights, left = _poisson_weights(0.0, 1e-10)
        assert left == 0
        assert weights.tolist() == [1.0]

    def test_covers_requested_mass(self):
        weights, _ = _poisson_weights(50.0, 1e-8)
        assert weights.sum() == pytest.approx(1.0)
        assert len(weights) < 50 + 200  # truncation actually truncates


def chain_initial(chain):
    return {chain.states[0]: 1.0}
