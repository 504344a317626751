"""Extended reachability-graph generation and vanishing-marking elimination.

State-space construction follows the standard GSPN recipe: breadth-first
exploration from the initial marking, classifying each marking as
*tangible* (no immediate transition enabled) or *vanishing*.  Vanishing
markings are then eliminated with the matrix method, which also copes
with cycles of immediate transitions:

    R_eff = R_tt + R_tv (I - P_vv)^{-1} P_vt

where ``R_tt``/``R_tv`` hold timed rates from tangible markings into
tangible/vanishing successors and ``P_vv``/``P_vt`` hold immediate
branching probabilities.  A singular ``I - P_vv`` indicates a *timeless
trap* (a set of vanishing markings that can never reach a tangible one)
and raises :class:`repro.errors.SrnError`.
"""

from __future__ import annotations

import warnings
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

    # Branching probabilities out of vanishing markings.
    p_vv = sparse.lil_matrix((n_v, n_v))
    p_vt = sparse.lil_matrix((n_v, n_t))
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
                p_vv[row, vanishing_pos[dst]] += probability
            else:
                p_vt[row, tangible_pos[dst]] += probability

    # Solve (I - P_vv) Y = P_vt  =>  Y[v, t] = P(eventually reach t | start v).
    # Both sides stay sparse end to end: the factor is applied to the
    # sparse right-hand side, never to an (n_v, n_t) dense block, so
    # elimination memory scales with the non-zeros, not with n_v * n_t.
    identity = sparse.identity(n_v, format="csc")
    system = (identity - p_vv.tocsc()).tocsc()
    try:
        with warnings.catch_warnings():
            # A singular system surfaces as MatrixRankWarning + inf/nan
            # on the sparse right-hand-side path; promote it so both
            # failure shapes funnel into the timeless-trap error below.
            warnings.simplefilter("error", sparse_linalg.MatrixRankWarning)
            y = sparse_linalg.spsolve(system, p_vt.tocsc())
    except (RuntimeError, sparse_linalg.MatrixRankWarning) as exc:
        raise SrnError(
            "timeless trap: a cycle of vanishing markings never reaches a "
            f"tangible marking ({exc})"
        ) from exc
    y = sparse.csr_matrix(y.reshape(n_v, n_t) if isinstance(y, np.ndarray) else y)
    if not np.all(np.isfinite(y.data)):
        raise SrnError("vanishing elimination produced non-finite probabilities")
    row_sums = np.asarray(y.sum(axis=1)).ravel()
    if np.any(row_sums < 1.0 - 1e-6):
        raise SrnError(
            "timeless trap: some vanishing marking reaches a tangible "
            "marking with probability < 1"
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
