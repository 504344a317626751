"""Extended reachability-graph generation and vanishing-marking elimination.

State-space construction follows the standard GSPN recipe: breadth-first
exploration from the initial marking, classifying each marking as
*tangible* (no immediate transition enabled) or *vanishing*.  Vanishing
markings are then eliminated with the matrix method, which also copes
with cycles of immediate transitions:

    R_eff = R_tt + R_tv (I - P_vv)^{-1} P_vt

where ``R_tt``/``R_tv`` hold timed rates from tangible markings into
tangible/vanishing successors and ``P_vv``/``P_vt`` hold immediate
branching probabilities.  ``I - P_vv`` is assembled as a sparse CSC
matrix and LU-factored once (SuperLU, COLAMD ordering); ``P_vt`` is then
solved against that one factor in dense blocks of ``_SOLVE_CHUNK``
columns, so the work array is ``n_v x _SOLVE_CHUNK`` floats whatever the
tangible count, and only the non-zeros of each solved block are kept.
A singular ``I - P_vv`` indicates a *timeless trap* (a set of vanishing
markings that can never reach a tangible one) and raises
:class:`repro.errors.SrnError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.ctmc import Ctmc
from repro.errors import SrnError, StateSpaceError
from repro.observability import metrics, tracing
from repro.srn.marking import Marking
from repro.srn.net import StochasticRewardNet, TransitionKind

__all__ = ["ReachabilityGraph", "explore", "exploration_count"]

DEFAULT_MAX_MARKINGS = 200_000

#: Columns of ``P_vt`` solved per call against the factor of
#: ``I - P_vv``; bounds the dense work array at ``n_v x _SOLVE_CHUNK``.
_SOLVE_CHUNK = 256

#: Process-wide count of reachability explorations, incremented by
#: :func:`explore`.  Benchmarks diff it around a sweep to count the
#: state-space generations it needed.
#: Backed by the observability registry so process-pool sweeps merge
#: worker explorations into the parent's count.
_EXPLORATIONS = metrics.counter(
    "repro_srn_explorations_total",
    "Reachability-graph explorations (state-space generations).",
).labels()
_VANISHING = metrics.counter(
    "repro_srn_vanishing_eliminated_total",
    "Vanishing markings eliminated during reachability exploration.",
).labels()


def exploration_count() -> int:
    """Number of :func:`explore` calls recorded by this process so far.

    After a process-pool sweep the engine merges worker telemetry into
    the parent registry, so worker-side explorations are included once
    the sweep returns.
    """
    return int(_EXPLORATIONS.value)


@dataclass(frozen=True)
class ReachabilityGraph:
    """The tangible CTMC extracted from an SRN.

    Attributes
    ----------
    tangible:
        Tangible markings in discovery order; these are the CTMC states.
    initial_distribution:
        Probability vector over ``tangible`` for the initial state (a
    vanishing initial marking spreads its mass over the tangible
        markings it reaches).
    rates:
        ``{(i, j): rate}`` effective transition rates between tangible
        markings (vanishing markings already eliminated).
    vanishing_count:
        Number of vanishing markings that were eliminated.
    """

    tangible: tuple[Marking, ...]
    initial_distribution: np.ndarray
    rates: dict[tuple[int, int], float]
    vanishing_count: int

    def to_ctmc(self) -> Ctmc:
        """Build the labelled CTMC (states are the tangible markings)."""
        chain = Ctmc(list(self.tangible))
        for (i, j), rate in self.rates.items():
            if i != j:
                chain.add_rate(self.tangible[i], self.tangible[j], rate)
        return chain

    def generator(self) -> sparse.csr_matrix:
        """The CSR generator assembled straight from the rate dict.

        Equivalent to ``to_ctmc().generator()`` but vectorised and
        without materialising the labelled chain: index arrays come from
        the rate dict in insertion order (the same order the chain walk
        accumulates in, so the floats match), self-loops are dropped and
        the diagonal is the negated row outflow.
        """
        n = len(self.tangible)
        if not self.rates:
            return sparse.csr_matrix((n, n))
        pairs = np.array(list(self.rates.keys()), dtype=np.intp)
        values = np.fromiter(
            self.rates.values(), dtype=float, count=len(self.rates)
        )
        off = pairs[:, 0] != pairs[:, 1]
        src, dst, values = pairs[off, 0], pairs[off, 1], values[off]
        outflow = np.bincount(src, weights=values, minlength=n)
        diagonal = np.arange(n, dtype=np.intp)
        return sparse.csr_matrix(
            (
                np.concatenate([values, -outflow]),
                (np.concatenate([src, diagonal]), np.concatenate([dst, diagonal])),
            ),
            shape=(n, n),
        )

    @property
    def number_of_states(self) -> int:
        """Tangible state count."""
        return len(self.tangible)


def explore(
    net: StochasticRewardNet,
    initial: Marking | None = None,
    max_markings: int = DEFAULT_MAX_MARKINGS,
) -> ReachabilityGraph:
    """Generate the reachability graph of *net* and eliminate vanishing
    markings.

    Parameters
    ----------
    net:
        The net to explore (``net.validate()`` is called first).
    initial:
        Starting marking; defaults to the net's initial marking.
    max_markings:
        Safety bound on the total number of explored markings.

    Raises
    ------
    StateSpaceError
        If more than *max_markings* markings are generated.
    SrnError
        On timeless traps or dead (no enabled transition) vanishing nets.
    """
    _EXPLORATIONS.inc()
    with tracing.span("srn:explore") as sp:
        graph = _explore(net, initial, max_markings)
        sp.add(
            tangible=graph.number_of_states, vanishing=graph.vanishing_count
        )
    _VANISHING.inc(graph.vanishing_count)
    return graph


def _explore(
    net: StochasticRewardNet,
    initial: Marking | None,
    max_markings: int,
) -> ReachabilityGraph:
    net.validate()
    start = initial if initial is not None else net.initial_marking()
    place_count = len(net.places)

    index: dict[Marking, int] = {start: 0}
    markings: list[Marking] = [start]
    is_vanishing: list[bool] = []
    # edges[src] = list of (dst, value); value is a rate for tangible
    # sources and an (unnormalised) weight for vanishing sources.
    edges: list[list[tuple[int, float]]] = []

    queue: deque[int] = deque([0])
    processed = 0
    while queue:
        current_idx = queue.popleft()
        marking = markings[current_idx]
        enabled = net.enabled_transitions(marking)
        vanishing = bool(enabled) and enabled[0].kind is TransitionKind.IMMEDIATE
        while len(is_vanishing) <= current_idx:
            is_vanishing.append(False)
            edges.append([])
        is_vanishing[current_idx] = vanishing
        out: list[tuple[int, float]] = []
        for transition in enabled:
            successor = marking.with_delta(transition.firing_delta(place_count))
            succ_idx = index.get(successor)
            if succ_idx is None:
                succ_idx = len(markings)
                if succ_idx >= max_markings:
                    raise StateSpaceError(
                        f"state space exceeded {max_markings} markings; "
                        "increase max_markings or simplify the net"
                    )
                index[successor] = succ_idx
                markings.append(successor)
                queue.append(succ_idx)
            if vanishing:
                out.append((succ_idx, transition.weight_in(marking)))
            else:
                rate = transition.rate_in(marking)
                if rate > 0.0:
                    out.append((succ_idx, rate))
        edges[current_idx] = out
        processed += 1

    return _eliminate_vanishing(markings, is_vanishing, edges)


def _eliminate_vanishing(
    markings: list[Marking],
    is_vanishing: list[bool],
    edges: list[list[tuple[int, float]]],
) -> ReachabilityGraph:
    total = len(markings)
    tangible_ids = [i for i in range(total) if not is_vanishing[i]]
    vanishing_ids = [i for i in range(total) if is_vanishing[i]]
    if not tangible_ids:
        raise SrnError("the net has no tangible markings (timeless trap)")

    tangible_pos = {orig: pos for pos, orig in enumerate(tangible_ids)}
    vanishing_pos = {orig: pos for pos, orig in enumerate(vanishing_ids)}
    n_t, n_v = len(tangible_ids), len(vanishing_ids)

    rates: dict[tuple[int, int], float] = {}

    if n_v == 0:
        for orig in tangible_ids:
            i = tangible_pos[orig]
            for dst, rate in edges[orig]:
                key = (i, tangible_pos[dst])
                rates[key] = rates.get(key, 0.0) + rate
        initial = np.zeros(n_t)
        initial[tangible_pos[0]] = 1.0
        return ReachabilityGraph(
            tangible=tuple(markings[i] for i in tangible_ids),
            initial_distribution=initial,
            rates=rates,
            vanishing_count=0,
        )

    # Branching probabilities out of vanishing markings, keyed by
    # (row, column); parallel arcs into one successor add up in arc order.
    p_vv: dict[tuple[int, int], float] = {}
    p_vt: dict[tuple[int, int], float] = {}
    for orig in vanishing_ids:
        row = vanishing_pos[orig]
        out = edges[orig]
        if not out:
            raise SrnError(
                f"vanishing marking {markings[orig]!r} has no enabled "
                "immediate transition successors (dead vanishing marking)"
            )
        weight_total = sum(weight for _, weight in out)
        for dst, weight in out:
            probability = weight / weight_total
            if is_vanishing[dst]:
                key = (row, vanishing_pos[dst])
                p_vv[key] = p_vv.get(key, 0.0) + probability
            else:
                key = (row, tangible_pos[dst])
                p_vt[key] = p_vt.get(key, 0.0) + probability

    # I - P_vv as CSC, straight from its triplets.
    entries = {(v, v): 1.0 for v in range(n_v)}
    for key, probability in p_vv.items():
        entries[key] = entries.get(key, 0.0) - probability
    rows, cols, values = _triplets(entries)
    system = sparse.csc_matrix((values, (rows, cols)), shape=(n_v, n_v))
    try:
        factor = sparse_linalg.splu(system)
    except RuntimeError as exc:  # an exactly singular factor
        raise SrnError(
            "timeless trap: a cycle of vanishing markings never reaches a "
            f"tangible marking ({exc})"
        ) from exc

    # Solve (I - P_vv) Y = P_vt  =>  Y[v, t] = P(eventually reach t | start v).
    # Each block of P_vt columns is solved densely against the one
    # factor and only its non-zeros are kept, so Y stays sparse and the
    # work array is n_v x _SOLVE_CHUNK.  Each column gets the same solve
    # as a column-by-column sparse solve with this factor, so Y does not
    # depend on the block width.
    rhs_rows, rhs_cols, rhs_values = _triplets(p_vt)
    y_rows: list[np.ndarray] = []
    y_cols: list[np.ndarray] = []
    y_data: list[np.ndarray] = []
    row_sums = np.zeros(n_v)
    for start in range(0, n_t, _SOLVE_CHUNK):
        stop = min(start + _SOLVE_CHUNK, n_t)
        in_block = (rhs_cols >= start) & (rhs_cols < stop)
        block = np.zeros((n_v, stop - start), order="F")
        block[rhs_rows[in_block], rhs_cols[in_block] - start] = rhs_values[in_block]
        block = factor.solve(block)
        if not np.all(np.isfinite(block)):
            raise SrnError(
                "vanishing elimination produced non-finite probabilities"
            )
        row_sums += block.sum(axis=1)
        nonzero_rows, nonzero_cols = np.nonzero(block)
        y_rows.append(nonzero_rows)
        y_cols.append(nonzero_cols + start)
        y_data.append(block[nonzero_rows, nonzero_cols])
    if np.any(row_sums < 1.0 - 1e-6):
        raise SrnError(
            "timeless trap: some vanishing marking reaches a tangible "
            "marking with probability < 1"
        )
    y = sparse.csr_matrix(
        (np.concatenate(y_data), (np.concatenate(y_rows), np.concatenate(y_cols))),
        shape=(n_v, n_t),
    )

    # Effective tangible-to-tangible rates, walking only the stored
    # non-zeros of each vanishing row.
    indptr, indices, data = y.indptr, y.indices, y.data
    for orig in tangible_ids:
        i = tangible_pos[orig]
        for dst, rate in edges[orig]:
            if is_vanishing[dst]:
                v = vanishing_pos[dst]
                for j, probability in zip(
                    indices[indptr[v] : indptr[v + 1]],
                    data[indptr[v] : indptr[v + 1]],
                ):
                    split = rate * probability
                    if split > 0.0:
                        key = (i, int(j))
                        rates[key] = rates.get(key, 0.0) + split
            else:
                key = (i, tangible_pos[dst])
                rates[key] = rates.get(key, 0.0) + rate

    # Initial distribution (handles a vanishing initial marking).
    initial = np.zeros(n_t)
    if is_vanishing[0]:
        initial[:] = y.getrow(vanishing_pos[0]).toarray().ravel()
    else:
        initial[tangible_pos[0]] = 1.0

    return ReachabilityGraph(
        tangible=tuple(markings[i] for i in tangible_ids),
        initial_distribution=initial,
        rates=rates,
        vanishing_count=n_v,
    )


def _triplets(
    entries: dict[tuple[int, int], float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` arrays of a ``{(row, col): value}`` dict."""
    keys = np.array(list(entries), dtype=np.intp).reshape(-1, 2)
    values = np.fromiter(entries.values(), dtype=float, count=len(entries))
    return keys[:, 0], keys[:, 1], values
