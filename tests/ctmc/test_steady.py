"""Tests for steady-state solvers: all methods agree with closed forms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmc import Ctmc
from repro.ctmc.steady import (
    steady_state,
    steady_state_direct,
    steady_state_gth,
    steady_state_power,
)
from repro.errors import SolverError

METHODS = [steady_state_direct, steady_state_gth, steady_state_power]


def updown(failure=2.0, repair=8.0):
    return Ctmc.from_rates({("up", "down"): failure, ("down", "up"): repair})


def cyclic(n=5, rate=3.0):
    chain = Ctmc(list(range(n)))
    for i in range(n):
        chain.add_rate(i, (i + 1) % n, rate)
    return chain


class TestAgainstClosedForms:
    @pytest.mark.parametrize("solver", METHODS)
    def test_two_state(self, solver):
        pi = solver(updown())
        assert pi == pytest.approx([0.8, 0.2], abs=1e-9)

    @pytest.mark.parametrize("solver", METHODS)
    def test_uniform_cycle(self, solver):
        pi = solver(cyclic())
        assert pi == pytest.approx([0.2] * 5, abs=1e-9)

    @pytest.mark.parametrize("solver", METHODS)
    def test_birth_death_detailed_balance(self, solver):
        chain = Ctmc(list(range(4)))
        birth, death = 1.0, 2.0
        for i in range(3):
            chain.add_rate(i, i + 1, birth)
            chain.add_rate(i + 1, i, death)
        pi = solver(chain)
        weights = np.array([(birth / death) ** k for k in range(4)])
        assert pi == pytest.approx(weights / weights.sum(), abs=1e-9)

    @pytest.mark.parametrize("solver", METHODS)
    def test_stiff_rates(self, solver):
        # Rates spanning 9 orders of magnitude (hardware vs reboot rates).
        pi = solver(updown(failure=1e-5, repair=1e4))
        expected_down = 1e-5 / (1e-5 + 1e4)
        assert pi[1] == pytest.approx(expected_down, rel=1e-6)

    @pytest.mark.parametrize("solver", METHODS)
    def test_single_state(self, solver):
        assert solver(Ctmc(["only"])) == pytest.approx([1.0])


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_chains_satisfy_balance(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        chain = Ctmc(list(range(n)))
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.5:
                    chain.add_rate(i, j, float(rng.uniform(0.1, 10.0)))
        # ensure irreducibility with a cycle
        for i in range(n):
            chain.add_rate(i, (i + 1) % n, 0.05)
        pi = steady_state(chain)
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(pi >= 0)
        residual = pi @ chain.dense_generator()
        assert np.abs(residual).max() < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_methods_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 6
        chain = Ctmc(list(range(n)))
        for i in range(n):
            chain.add_rate(i, (i + 1) % n, float(rng.uniform(0.5, 5.0)))
            if i >= 1:
                chain.add_rate(i, i - 1, float(rng.uniform(0.5, 5.0)))
        reference = steady_state_gth(chain)
        assert steady_state_direct(chain) == pytest.approx(reference, abs=1e-8)
        assert steady_state_power(chain) == pytest.approx(reference, abs=1e-8)


def _gth_loop(q):
    """GTH with one column update per non-zero entry of the pivot row.

    The reference for ``steady_state_gth``'s rank-1 pivot update, which
    must reproduce it bit for bit.
    """
    n = q.shape[0]
    a = np.abs(q - np.diag(np.diag(q)))
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        for j in range(k):
            if a[k, j] != 0.0:
                a[:k, j] += a[:k, k] * a[k, j]
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def _random_chain(n, seed):
    rng = np.random.default_rng(seed)
    rates = rng.exponential(size=(n, n)) * (rng.random((n, n)) < 0.2)
    chain = Ctmc(list(range(n)))
    for i in range(n):
        chain.add_rate(i, (i + 1) % n, 1.0)
        for j in np.flatnonzero(rates[i]):
            if j != i:
                chain.add_rate(i, int(j), float(rates[i, j]))
    return chain


def _server_chains():
    from repro.availability.parameters import paper_server_parameters
    from repro.availability.server import build_server_srn
    from repro.srn import explore

    return [
        explore(build_server_srn(parameters)).to_ctmc()
        for parameters in paper_server_parameters().values()
    ]


class TestGthOracle:
    def test_rank1_update_matches_column_loop(self):
        chains = _server_chains() + [_random_chain(56, 1), _random_chain(200, 2)]
        for chain in chains:
            expected = _gth_loop(chain.dense_generator())
            assert np.array_equal(steady_state_gth(chain), expected)


class TestFailures:
    def test_no_transitions_power_raises(self):
        with pytest.raises(SolverError):
            steady_state_power(Ctmc(["a", "b"]))

    def test_reducible_chain_gth_raises(self):
        chain = Ctmc.from_rates({("a", "b"): 1.0})  # b absorbing
        with pytest.raises(SolverError):
            steady_state_gth(chain)

    def test_unknown_method_raises(self):
        with pytest.raises(SolverError):
            steady_state(updown(), method="magic")

    def test_auto_uses_gth_for_small(self):
        pi = steady_state(updown(), method="auto")
        assert pi == pytest.approx([0.8, 0.2], abs=1e-12)
