"""Absorbing-state analysis: mean time to absorption and hit probabilities.

Used for survivability-style questions the steady-state pipeline cannot
answer, e.g. "starting from all servers up, how long until the network
first loses a whole service tier?".  Transient states T and absorbing
states A partition the chain; with Q_TT the sub-generator on T,

    MTTA  = solve(Q_TT m = -1)          (per starting state)
    B     = solve(Q_TT B = -Q_TA)       (absorption probabilities)
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.ctmc.chain import Ctmc, State
from repro.errors import CtmcError, SolverError

__all__ = ["mean_time_to_absorption", "absorption_probabilities", "make_absorbing"]


def make_absorbing(chain: Ctmc, is_absorbing: Callable[[State], bool]) -> Ctmc:
    """A copy of *chain* with outgoing rates of absorbing states removed."""
    states = chain.states
    absorbing = {state for state in states if is_absorbing(state)}
    if not absorbing:
        raise CtmcError("no state satisfies the absorbing predicate")
    clone = Ctmc(states)
    for i, j, rate in chain.transitions():
        if states[i] not in absorbing:
            clone.add_rate(states[i], states[j], rate)
    return clone


def _partition(chain: Ctmc) -> tuple[list[int], list[int]]:
    states = chain.states
    absorbing = set(chain.absorbing_states())
    transient_idx = [i for i, s in enumerate(states) if s not in absorbing]
    absorbing_idx = [i for i, s in enumerate(states) if s in absorbing]
    if not absorbing_idx:
        raise CtmcError("chain has no absorbing states")
    if not transient_idx:
        raise CtmcError("chain has no transient states")
    return transient_idx, absorbing_idx


def mean_time_to_absorption(
    chain: Ctmc, start: State | None = None
) -> float | dict[State, float]:
    """Expected time until absorption.

    With *start* given, returns a float for that state; otherwise a
    mapping over every transient state.  Raises if some transient state
    cannot reach an absorbing state (infinite expectation).
    """
    from scipy.sparse import linalg as sparse_linalg

    transient_idx, _ = _partition(chain)
    q = chain.generator().tocsc().astype(float)
    q_tt = q[np.ix_(transient_idx, transient_idx)]
    ones = np.ones(len(transient_idx))
    try:
        times = sparse_linalg.spsolve(q_tt.tocsc(), -ones)
    except Exception as exc:
        raise SolverError(f"MTTA solve failed: {exc}") from exc
    times = np.atleast_1d(times)
    if not np.all(np.isfinite(times)) or np.any(times < -1e-9):
        raise SolverError(
            "MTTA is undefined: some transient state never reaches absorption"
        )
    states = chain.states
    table = {states[i]: float(t) for i, t in zip(transient_idx, times)}
    if start is not None:
        try:
            return table[start]
        except KeyError:
            raise CtmcError(
                f"state {start!r} is absorbing or unknown; MTTA undefined"
            ) from None
    return table


def absorption_probabilities(
    chain: Ctmc, start: State
) -> dict[State, float]:
    """Probability of ending in each absorbing state, from *start*."""
    transient_idx, absorbing_idx = _partition(chain)
    states = chain.states
    start_position = {states[i]: k for k, i in enumerate(transient_idx)}.get(start)
    if start_position is None:
        raise CtmcError(f"start state {start!r} must be transient")
    from scipy.sparse import linalg as sparse_linalg

    q = chain.generator().tocsc().astype(float)
    q_ta = q[np.ix_(transient_idx, absorbing_idx)]
    q_tt = q[np.ix_(transient_idx, transient_idx)]
    try:
        solution = sparse_linalg.spsolve(q_tt.tocsc(), -q_ta.toarray())
    except Exception as exc:
        raise SolverError(f"absorption-probability solve failed: {exc}") from exc
    matrix = np.atleast_2d(solution)
    if matrix.shape[0] != len(transient_idx):
        matrix = matrix.reshape(len(transient_idx), len(absorbing_idx))
    row = matrix[start_position]
    return {states[j]: float(p) for j, p in zip(absorbing_idx, row)}
