"""Cross-checks of the steady-state solvers and the sweep engine.

Property 1: ``gth``, ``direct`` and ``power`` agree on random
irreducible generators (and on the vectorized batch-assembly path).

Property 2: a :class:`SweepEngine` parallel run of a >= 64-design space
is identical to the serial run — same order, and every float is
bit-for-bit equal.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ctmc import BatchSteadySolver, Ctmc
from repro.ctmc.steady import (
    steady_state_direct,
    steady_state_gth,
    steady_state_power,
)
from repro.evaluation import SweepEngine, enumerate_designs


@st.composite
def irreducible_chains(draw, max_states=7):
    """Random chains made irreducible by a base cycle."""
    n = draw(st.integers(min_value=2, max_value=max_states))
    chain = Ctmc(list(range(n)))
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
            max_size=2 * n,
        )
    )
    for src, dst, rate in extra:
        if src != dst:
            chain.add_rate(src, dst, rate)
    return chain


class TestSteadyMethodAgreement:
    @settings(max_examples=40, deadline=None)
    @given(chain=irreducible_chains())
    def test_gth_direct_power_agree(self, chain):
        gth = steady_state_gth(chain)
        direct = steady_state_direct(chain)
        power = steady_state_power(chain, tolerance=1e-13)
        for pi in (gth, direct, power):
            assert np.all(pi >= 0.0)
            assert abs(pi.sum() - 1.0) < 1e-9
        assert np.max(np.abs(gth - direct)) < 1e-8
        assert np.max(np.abs(gth - power)) < 1e-7

    @settings(max_examples=40, deadline=None)
    @given(chain=irreducible_chains())
    def test_balance_equations_hold(self, chain):
        pi = steady_state_gth(chain)
        residual = pi @ chain.dense_generator()
        assert np.max(np.abs(residual)) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(chain=irreducible_chains())
    def test_batch_solver_matches_per_chain_methods(self, chain):
        solver = BatchSteadySolver.from_chain(chain)
        rates = solver.rates_of(chain)
        for method, reference in (
            ("gth", steady_state_gth),
            ("direct", steady_state_direct),
        ):
            batched = solver.solve(rates, method=method)
            assert np.max(np.abs(batched - reference(chain))) < 1e-12


def _float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _evaluation_bits(evaluation) -> tuple:
    """Every float of one evaluation as exact bit patterns."""
    out = [evaluation.label]
    for snapshot in (evaluation.before, evaluation.after):
        out.append(_float_bits(snapshot.coa))
        for value in snapshot.security.as_dict().values():
            out.append(_float_bits(float(value)))
        out.append(_float_bits(snapshot.security.total_risk))
        out.append(_float_bits(snapshot.security.max_path_probability))
    return tuple(out)


class TestEngineChunkIdentity:
    @pytest.fixture(scope="class")
    def design_space(self):
        designs = list(enumerate_designs(["dns", "web", "app"], max_replicas=4))
        assert len(designs) == 64
        return designs

    def test_chunked_identical_to_one_chunk(self, design_space):
        whole = SweepEngine().evaluate(design_space)
        chunked = SweepEngine(chunk_size=8).evaluate(design_space)
        assert len(whole) == len(chunked) == 64
        # Same order.
        assert [e.label for e in whole] == [e.label for e in chunked]
        # Same values, field by field (dataclass equality).
        assert whole == chunked
        # Bit-for-bit identical floats.
        for left, right in zip(whole, chunked):
            assert _evaluation_bits(left) == _evaluation_bits(right)

    def test_serial_rerun_is_deterministic(self, design_space):
        first = SweepEngine().evaluate(design_space)
        second = SweepEngine().evaluate(design_space)
        for left, right in zip(first, second):
            assert _evaluation_bits(left) == _evaluation_bits(right)
