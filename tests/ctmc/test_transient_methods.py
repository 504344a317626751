"""Tests for the transient solver's dense and sparse backends.

Covers the dense/sparse cutoff (patched on the module constant),
boundary parity at ``n == cutoff +- 1``, the dense block-power budget,
and the frozen backend of a chain without transitions.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.ctmc import Ctmc, transient
from repro.ctmc.transient import BatchTransientSolver

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
    def test_block_budget_override(self, monkeypatch):
        chain = birth_death(8)
        # A budget of exactly 3*n*n entries caps the power table at 3.
        monkeypatch.setattr(transient, "_BLOCK_ENTRY_BUDGET", 3 * 64)
        assert BatchTransientSolver(chain)._block == 3
        monkeypatch.setattr(transient, "_BLOCK_ENTRY_BUDGET", 2 * 64)
        assert BatchTransientSolver(chain)._block == 2

    def test_chosen_path_is_logged(self, monkeypatch, caplog):
        chain = birth_death(6)
        with caplog.at_level(logging.DEBUG, logger="repro.ctmc.transient"):
            monkeypatch.setattr(transient, "_DENSE_CUTOFF", 3)
            BatchTransientSolver(chain)
            monkeypatch.setattr(transient, "_DENSE_CUTOFF", 300)
            BatchTransientSolver(chain)
        text = caplog.text
        assert "backend=sparse" in text
        assert "backend=dense" in text


class TestBoundaryParity:
    """Dense vs sparse around ``n == cutoff +- 1``.

    The same path is bit-deterministic (two identical solves agree byte
    for byte); across the dense/sparse boundary the arithmetic orders
    differ, so agreement is asserted at tight tolerance instead.
    """

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_dispatch_at_boundary(self, n, monkeypatch):
        chain = birth_death(n)
        monkeypatch.setattr(transient, "_DENSE_CUTOFF", 10)
        solver = BatchTransientSolver(chain)
        assert solver.backend == ("dense" if n <= 10 else "sparse")

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_same_path_bit_identical(self, n, monkeypatch):
        chain = birth_death(n)
        for cutoff in (n - 1, n, n + 1):
            monkeypatch.setattr(transient, "_DENSE_CUTOFF", cutoff)
            first = BatchTransientSolver(chain)
            second = BatchTransientSolver(chain)
            a = first.distributions(initial(n), TIMES)
            b = second.distributions(initial(n), TIMES)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_cross_path_agreement(self, n, monkeypatch):
        chain = birth_death(n)
        monkeypatch.setattr(transient, "_DENSE_CUTOFF", n)
        dense = BatchTransientSolver(chain)
        monkeypatch.setattr(transient, "_DENSE_CUTOFF", n - 1)
        sparse = BatchTransientSolver(chain)
        assert dense.backend == "dense"
        assert sparse.backend == "sparse"
        a = dense.distributions(initial(n), TIMES)
        b = sparse.distributions(initial(n), TIMES)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


class TestFrozenChain:
    def test_all_methods_serve_pi0(self):
        chain = Ctmc(["a", "b"])  # no transitions at all
        solver = BatchTransientSolver(chain)
        assert solver.backend == "frozen"
        out = solver.distributions({"a": 1.0}, [0.0, 9.0])
        np.testing.assert_array_equal(out, [[1.0, 0.0], [1.0, 0.0]])
