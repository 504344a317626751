"""Tests for the transient solver's method dispatch and backends.

Covers the sparse-first solver paths: dense/sparse threshold overrides
(constructor + ``REPRO_DENSE_THRESHOLD``), boundary parity at
``n == threshold +- 1``, adaptive-vs-uniformisation agreement (including
the 2401-state paper-scale availability model), adaptive early exit, and
``auto`` size dispatch.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.ctmc import Ctmc
from repro.ctmc.transient import (
    _AUTO_CUTOFF_ENV,
    _BLOCK_BUDGET_ENV,
    _DENSE_CUTOFF_ENV,
    BatchTransientSolver,
)
from repro.errors import SolverError

TIMES = [0.0, 0.3, 1.5, 6.0, 40.0]


def birth_death(n, up=1.1, down=2.3):
    rates = {}
    for i in range(n - 1):
        rates[(i, i + 1)] = up + 0.01 * i
        rates[(i + 1, i)] = down + 0.02 * i
    return Ctmc.from_rates(rates)


def initial(n):
    vector = np.zeros(n)
    vector[0] = 1.0
    return vector


class TestThresholdOverrides:
    def test_constructor_override_forces_sparse(self):
        chain = birth_death(10)
        solver = BatchTransientSolver(chain, dense_threshold=5)
        assert solver.backend == "sparse"
        assert solver.dense_threshold == 5

    def test_constructor_override_forces_dense(self):
        chain = birth_death(10)
        solver = BatchTransientSolver(chain, dense_threshold=1000)
        assert solver.backend == "dense"

    def test_env_override(self, monkeypatch):
        chain = birth_death(10)
        monkeypatch.setenv(_DENSE_CUTOFF_ENV, "5")
        assert BatchTransientSolver(chain).backend == "sparse"
        monkeypatch.setenv(_DENSE_CUTOFF_ENV, "50")
        assert BatchTransientSolver(chain).backend == "dense"

    def test_constructor_beats_env(self, monkeypatch):
        chain = birth_death(10)
        monkeypatch.setenv(_DENSE_CUTOFF_ENV, "5")
        solver = BatchTransientSolver(chain, dense_threshold=100)
        assert solver.backend == "dense"

    def test_invalid_env_value_raises(self, monkeypatch):
        chain = birth_death(4)
        monkeypatch.setenv(_DENSE_CUTOFF_ENV, "not-a-number")
        with pytest.raises(SolverError, match=_DENSE_CUTOFF_ENV):
            BatchTransientSolver(chain)

    def test_invalid_constructor_value_raises(self):
        chain = birth_death(4)
        with pytest.raises(SolverError, match="dense_threshold"):
            BatchTransientSolver(chain, dense_threshold=0)

    def test_block_budget_override(self, monkeypatch):
        chain = birth_death(8)
        # A budget of exactly 3*n*n entries caps the power table at 3.
        solver = BatchTransientSolver(chain, block_entry_budget=3 * 64)
        assert solver._block == 3
        monkeypatch.setenv(_BLOCK_BUDGET_ENV, str(2 * 64))
        assert BatchTransientSolver(chain)._block == 2

    def test_chosen_path_is_logged(self, caplog):
        chain = birth_death(6)
        with caplog.at_level(logging.DEBUG, logger="repro.ctmc.transient"):
            BatchTransientSolver(chain, dense_threshold=3)
            BatchTransientSolver(chain, dense_threshold=300)
        text = caplog.text
        assert "backend=sparse" in text
        assert "backend=dense" in text


class TestBoundaryParity:
    """Dense vs sparse around ``n == threshold +- 1``.

    The same path is bit-deterministic (two identical solves agree byte
    for byte); across the dense/sparse boundary the arithmetic orders
    differ, so agreement is asserted at tight tolerance instead.
    """

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_dispatch_at_boundary(self, n):
        chain = birth_death(n)
        solver = BatchTransientSolver(chain, dense_threshold=10)
        assert solver.backend == ("dense" if n <= 10 else "sparse")

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_same_path_bit_identical(self, n):
        chain = birth_death(n)
        for threshold in (n - 1, n, n + 1):
            first = BatchTransientSolver(chain, dense_threshold=threshold)
            second = BatchTransientSolver(chain, dense_threshold=threshold)
            a = first.distributions(initial(n), TIMES)
            b = second.distributions(initial(n), TIMES)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_cross_path_agreement(self, n):
        chain = birth_death(n)
        dense = BatchTransientSolver(chain, dense_threshold=n)
        sparse = BatchTransientSolver(chain, dense_threshold=n - 1)
        assert dense.backend == "dense"
        assert sparse.backend == "sparse"
        a = dense.distributions(initial(n), TIMES)
        b = sparse.distributions(initial(n), TIMES)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


class TestPaperScaleModel:
    """The 2401-state upper-layer availability model (paper scale)."""

    @pytest.fixture(scope="class")
    def chain(self):
        """Generator, all-up start and COA reward of four 6-server tiers."""
        from types import SimpleNamespace

        from repro.availability import NetworkAvailabilityModel, coa_reward
        from repro.srn import explore

        capacities = {tier: 6 for tier in "abcd"}
        aggregates = {
            tier: SimpleNamespace(patch_rate=0.02, recovery_rate=0.5)
            for tier in capacities
        }
        graph = explore(
            NetworkAvailabilityModel(capacities, aggregates).build_srn()
        )
        reward = np.array([coa_reward(capacities)(m) for m in graph.tangible])
        return graph.generator(), graph.initial_distribution, reward

    @staticmethod
    def coa_curve(chain, times, method="uniformisation"):
        generator, start, reward = chain
        solver = BatchTransientSolver.from_generator(generator, method=method)
        return solver, solver.rewards(start, reward, times)

    def test_adaptive_within_tolerance(self, chain):
        times = [0.0, 24.0, 72.0, 168.0, 720.0]
        solver, exact = self.coa_curve(chain, times)
        assert solver.n == 2401
        _, adaptive = self.coa_curve(chain, times, method="adaptive")
        np.testing.assert_allclose(adaptive, exact, rtol=0.0, atol=1e-10)

    def test_auto_is_bit_identical_at_paper_scale(self, chain):
        # 2401 < the auto cutoff, so dispatch selects the exact path and
        # the result must be byte-for-byte the default's.
        times = [0.0, 24.0, 72.0]
        _, exact = self.coa_curve(chain, times)
        solver, auto = self.coa_curve(chain, times, method="auto")
        assert solver.resolved_method == "uniformisation"
        assert np.array_equal(auto, exact)


class TestAutoDispatch:
    def test_small_chain_resolves_exact(self):
        solver = BatchTransientSolver(birth_death(20), method="auto")
        assert solver.resolved_method == "uniformisation"

    def test_env_cutoff_switches_to_adaptive(self, monkeypatch):
        monkeypatch.setenv(_AUTO_CUTOFF_ENV, "10")
        solver = BatchTransientSolver(birth_death(20), method="auto")
        assert solver.resolved_method == "adaptive"

    def test_unknown_method_rejected(self):
        for method in ("simpson", "krylov"):
            with pytest.raises(SolverError, match="unknown transient method"):
                BatchTransientSolver(birth_death(4), method=method)

    def test_invalid_atol_rejected(self):
        with pytest.raises(SolverError, match="atol"):
            BatchTransientSolver(birth_death(4), method="adaptive", atol=0.0)


class TestAdaptive:
    def test_early_exit_fires_on_long_horizon(self):
        chain = birth_death(40)
        solver = BatchTransientSolver(
            chain, method="adaptive", dense_threshold=10
        )
        exact = BatchTransientSolver(chain, dense_threshold=10)
        times = [0.0, 5.0, 5000.0]
        a = solver.distributions(initial(40), times)
        b = exact.distributions(initial(40), times)
        assert solver.adaptive_exits >= 1
        assert solver.last_adaptive_exit is not None
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)

    def test_no_exit_is_bit_identical_to_sparse_stream(self):
        # Without an early exit the adaptive path runs the exact
        # sequential recurrence; a huge atol=default means it can fire,
        # so pin a tiny horizon where the window is too short to fire.
        chain = birth_death(15)
        adaptive = BatchTransientSolver(
            chain, method="adaptive", dense_threshold=5, atol=1e-300
        )
        exact = BatchTransientSolver(chain, dense_threshold=5)
        a = adaptive.distributions(initial(15), TIMES)
        b = exact.distributions(initial(15), TIMES)
        assert adaptive.adaptive_exits == 0
        assert np.array_equal(a, b)

    def test_declared_atol_bounds_error(self):
        chain = birth_death(25)
        atol = 1e-6
        adaptive = BatchTransientSolver(chain, method="adaptive", atol=atol)
        exact = BatchTransientSolver(
            chain, method="uniformisation", dense_threshold=1
        )
        times = [0.0, 1.0, 50.0, 2000.0]
        a = adaptive.distributions(initial(25), times)
        b = exact.distributions(initial(25), times)
        assert np.abs(a - b).max() <= atol


class TestFrozenChain:
    def test_all_methods_serve_pi0(self):
        chain = Ctmc(["a", "b"])  # no transitions at all
        for method in ("uniformisation", "adaptive", "auto"):
            solver = BatchTransientSolver(chain, method=method)
            assert solver.backend == "frozen"
            out = solver.distributions({"a": 1.0}, [0.0, 9.0])
            np.testing.assert_array_equal(out, [[1.0, 0.0], [1.0, 0.0]])
