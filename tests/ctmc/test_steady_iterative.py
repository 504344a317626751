"""Tests for the iterative (Krylov) steady-state path and its dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmc import Ctmc, steady, steady_state, steady_state_iterative
from repro.ctmc.steady import (
    BatchSteadySolver,
    steady_state_direct,
    steady_state_gth,
    steady_state_power,
)
from repro.errors import SolverError


def updown(failure=2.0, repair=8.0):
    chain = Ctmc(["up", "down"])
    chain.add_rate("up", "down", failure)
    chain.add_rate("down", "up", repair)
    return chain


def cyclic(n=5, rate=3.0):
    chain = Ctmc(list(range(n)))
    for i in range(n):
        chain.add_rate(i, (i + 1) % n, rate)
    return chain


def availability_grid(m=6, failure=0.02, repair=0.5):
    """Structured birth-death chain of the paper's per-tier kind."""
    chain = Ctmc(list(range(m + 1)))
    for i in range(m):
        chain.add_rate(i, i + 1, (m - i) * failure)
        chain.add_rate(i + 1, i, repair)
    return chain


class TestIterativeSolver:
    def test_two_state_closed_form(self):
        pi = steady_state_iterative(updown(2.0, 8.0))
        assert pi[0] == pytest.approx(0.8, abs=1e-9)
        assert pi[1] == pytest.approx(0.2, abs=1e-9)

    def test_cyclic_uniform(self):
        pi = steady_state_iterative(cyclic(7))
        np.testing.assert_allclose(pi, np.full(7, 1.0 / 7.0), atol=1e-9)

    def test_matches_direct_on_structured_chain(self):
        chain = availability_grid(20)
        np.testing.assert_allclose(
            steady_state_iterative(chain),
            steady_state_direct(chain),
            rtol=0.0,
            atol=1e-8,
        )

    def test_matches_gth_on_small_chain(self):
        chain = updown(0.7, 3.1)
        np.testing.assert_allclose(
            steady_state_iterative(chain),
            steady_state_gth(chain),
            rtol=0.0,
            atol=1e-9,
        )

    def test_method_name_accepted(self):
        chain = availability_grid(10)
        np.testing.assert_allclose(
            steady_state(chain, method="iterative"),
            steady_state(chain, method="direct"),
            rtol=0.0,
            atol=1e-8,
        )

    def test_is_a_distribution(self):
        pi = steady_state_iterative(availability_grid(30))
        assert np.all(pi >= 0.0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


class TestAutoDispatch:
    def test_cutoff_routes_large_chains_through_iterative(
        self, monkeypatch, caplog
    ):
        import logging

        chain = availability_grid(220)  # 221 states, above the gth cutoff
        reference = steady_state(chain, method="direct")
        monkeypatch.setattr(steady, "_ITERATIVE_CUTOFF", 10)
        with caplog.at_level(logging.DEBUG, logger="repro.ctmc.steady"):
            via_iterative = steady_state(chain, method="auto")
        assert "auto -> iterative" in caplog.text
        np.testing.assert_allclose(via_iterative, reference, rtol=0.0, atol=1e-8)

    def test_batch_solver_iterative_method(self):
        chain = availability_grid(12)
        solver = BatchSteadySolver.from_chain(chain)
        rates = solver.rates_of(chain)
        np.testing.assert_allclose(
            solver.solve(rates, method="iterative"),
            solver.solve(rates, method="direct"),
            rtol=0.0,
            atol=1e-8,
        )


class TestPowerResidualReporting:
    def test_non_convergence_reports_achieved_residual(self):
        chain = availability_grid(8, failure=0.9, repair=0.4)
        with pytest.raises(SolverError, match="achieved residual"):
            steady_state_power(chain, max_iterations=2)
