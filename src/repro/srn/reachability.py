"""Extended reachability-graph generation and vanishing-marking elimination.

State-space construction follows the standard GSPN recipe: breadth-first
exploration from the initial marking, classifying each marking as
*tangible* (no immediate transition enabled) or *vanishing*.  Vanishing
markings are then eliminated with the matrix method:

    R_eff = R_tt + R_tv Y,    Y = (I - P_vv)^{-1} P_vt

where ``R_tt``/``R_tv`` hold timed rates from tangible markings into
tangible/vanishing successors and ``P_vv``/``P_vt`` hold immediate
branching probabilities.  ``Y[v, t]`` is the probability that vanishing
marking ``v`` first reaches tangible marking ``t``.  Which solve runs
depends on the vanishing graph (the non-zeros of ``P_vv``):

* **acyclic** (the server SRN and most nets): back-substitution in
  reverse topological order, ``Y[v] = P_vt[v] + sum_w P_vv[v, w] Y[w]``
  over the successors ``w`` of ``v`` in arc order, each row built once
  from finished rows.  No scipy is imported.
* **cyclic**: ``I - P_vv`` is assembled as a sparse CSC matrix and
  LU-factored once (SuperLU, COLAMD ordering); ``P_vt`` is then solved
  against that one factor in dense blocks of ``_SOLVE_CHUNK`` columns,
  so the work array is ``n_v x _SOLVE_CHUNK`` floats whatever the
  tangible count.  A singular ``I - P_vv`` indicates a *timeless trap*
  (a set of vanishing markings that can never reach a tangible one).

Both give ``Y`` as one plain CSR array triple ``(indptr, indices,
data)``, columns ascending within a row and exact zeros dropped, and
both raise :class:`repro.errors.SrnError` for a dead vanishing marking,
non-finite entries or a row of ``Y`` summing below ``1 - 1e-6``.

The elimination is recorded as terms ``(key, edge, probability)``: each
effective rate ``R_eff[i, j]`` is the sum, in one fixed walk order, of
``rate(edge) * probability`` over the timed edges out of tangible
marking ``i`` (probability 1 for an edge straight into ``j``, the
branching probability ``Y[v, j]`` for an edge into vanishing ``v``).
:meth:`ReachabilityGraph.reweighted` evaluates those terms for any timed
rates; :func:`explore` computes the graph's own rates that way too.  A
net whose guards and immediate weights do not depend on its rate values
therefore needs one exploration for every set of rates: each set only
re-weights the same terms (``repro.availability.server`` solves every
server stack of an evaluator this way).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.ctmc import Ctmc
from repro.errors import SrnError, StateSpaceError
from repro.observability import metrics, tracing
from repro.srn.marking import Marking
from repro.srn.net import StochasticRewardNet, TransitionKind

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["ReachabilityGraph", "explore", "exploration_count"]

DEFAULT_MAX_MARKINGS = 200_000

#: Columns of ``P_vt`` solved per call against the factor of
#: ``I - P_vv``; bounds the dense work array at ``n_v x _SOLVE_CHUNK``.
_SOLVE_CHUNK = 256

#: A sparse matrix as plain CSR arrays ``(indptr, indices, data)``: row
#: ``r`` stores its columns, ascending, in ``indices[indptr[r]:indptr[r +
#: 1]]`` and their values in ``data``; exact zeros are not stored.
_Csr = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Process-wide count of reachability explorations, incremented by
#: :func:`explore`.  Benchmarks diff it around a sweep to count the
#: state-space generations it needed.  Backed by the observability
#: registry.
_EXPLORATIONS = metrics.counter(
    "repro_srn_explorations_total",
    "Reachability-graph explorations (state-space generations).",
).labels()
_VANISHING = metrics.counter(
    "repro_srn_vanishing_eliminated_total",
    "Vanishing markings eliminated during reachability exploration.",
).labels()


def exploration_count() -> int:
    """Number of :func:`explore` calls recorded by this process so far."""
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
    #: Source tangible index and transition name of every timed edge
    #: out of a tangible marking, in the order :meth:`reweighted` reads
    #: edge rates (set by :func:`explore`).
    edge_sources: np.ndarray | None = field(default=None, repr=False)
    edge_transitions: tuple[str, ...] = field(default=(), repr=False)
    #: The elimination terms: the edge each term reads, its key as
    #: ``i * n + j`` and its branching probability, in walk order.
    term_edges: np.ndarray | None = field(default=None, repr=False)
    term_keys: np.ndarray | None = field(default=None, repr=False)
    term_probabilities: np.ndarray | None = field(default=None, repr=False)

    def edge_rates(self, net: StochasticRewardNet) -> np.ndarray:
        """The rate of every timed edge under *net*.

        *net* must share the explored net's structure (places,
        transitions, arcs and guards); only its rate values may differ.
        Each rate is read off *net*'s own transition in the edge's
        source marking.
        """
        transitions = {
            name: net.transition(name) for name in dict.fromkeys(self.edge_transitions)
        }
        return np.array(
            [
                transitions[name].rate_in(self.tangible[source])
                for source, name in zip(
                    self.edge_sources.tolist(), self.edge_transitions
                )
            ],
            dtype=float,
        )

    def reweighted(self, edge_rates: np.ndarray) -> dict[tuple[int, int], float]:
        """Effective tangible rates ``{(i, j): rate}`` for *edge_rates*.

        *edge_rates* gives one rate per timed edge (see
        :meth:`edge_rates`).  Each term contributes ``rate *
        probability`` when that is positive; a key's terms add up in
        walk order, and keys follow their first contribution, so the
        explored rates come back as :attr:`rates`, key order included.
        """
        return _reweighted(
            len(self.tangible),
            (self.term_edges, self.term_keys, self.term_probabilities),
            edge_rates,
        )

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
        from scipy import sparse

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
    # names[src] = the transition of each edge of a tangible source.
    names: list[list[str]] = []

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
            names.append([])
        is_vanishing[current_idx] = vanishing
        out: list[tuple[int, float]] = []
        fired = names[current_idx]
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
                    fired.append(transition.name)
        edges[current_idx] = out
        processed += 1

    graph = _eliminate_vanishing(markings, is_vanishing, edges)
    # The same tangible-source order the elimination flattens edges in.
    return replace(
        graph,
        edge_transitions=tuple(
            name
            for orig, vanishing in enumerate(is_vanishing)
            if not vanishing
            for name in names[orig]
        ),
    )


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

    # The timed edges out of tangible markings, flattened in walk order:
    # tangible markings in discovery order, each one's edges in firing
    # order.  position[orig] is a marking's index within its class.
    position = np.zeros(total, dtype=np.intp)
    position[tangible_ids] = np.arange(n_t)
    position[vanishing_ids] = np.arange(n_v)
    sources = np.array(
        [tangible_pos[orig] for orig in tangible_ids for _ in edges[orig]],
        dtype=np.intp,
    )
    targets = np.array(
        [dst for orig in tangible_ids for dst, _ in edges[orig]], dtype=np.intp
    )
    edge_rates = np.array(
        [rate for orig in tangible_ids for _, rate in edges[orig]], dtype=float
    )

    y = (
        _absorption(markings, is_vanishing, edges, tangible_pos, vanishing_pos)
        if n_v
        else (np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
    )
    # An edge into a vanishing marking fans out over the stored
    # non-zeros of its row of Y; any other edge is one term.
    via = np.array(is_vanishing, dtype=bool)[targets]
    term_edges, term_keys, term_probabilities = _terms(
        sources, position[targets], via, y, n_t
    )

    # Initial distribution (handles a vanishing initial marking).
    initial = np.zeros(n_t)
    if is_vanishing[0]:
        indptr, indices, data = y
        row = slice(indptr[vanishing_pos[0]], indptr[vanishing_pos[0] + 1])
        initial[indices[row]] = data[row]
    else:
        initial[tangible_pos[0]] = 1.0
    return ReachabilityGraph(
        tangible=tuple(markings[i] for i in tangible_ids),
        initial_distribution=initial,
        rates=_reweighted(
            n_t, (term_edges, term_keys, term_probabilities), edge_rates
        ),
        vanishing_count=n_v,
        edge_sources=sources,
        term_edges=term_edges,
        term_keys=term_keys,
        term_probabilities=term_probabilities,
    )


def _absorption(
    markings: list[Marking],
    is_vanishing: list[bool],
    edges: list[list[tuple[int, float]]],
    tangible_pos: dict[int, int],
    vanishing_pos: dict[int, int],
) -> _Csr:
    """``Y = (I - P_vv)^-1 P_vt``: ``Y[v, t]`` is the probability that
    vanishing marking ``v`` first reaches tangible marking ``t``."""
    n_t, n_v = len(tangible_pos), len(vanishing_pos)
    # Branching probabilities out of vanishing markings, keyed by
    # (row, column); parallel arcs into one successor add up in arc order.
    p_vv: dict[tuple[int, int], float] = {}
    p_vt: dict[tuple[int, int], float] = {}
    for orig, row in vanishing_pos.items():
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

    order = _successors_first(n_v, p_vv)
    if order is None:
        y = _factor_solve(p_vv, p_vt, n_v, n_t)
    else:
        y = _back_substitute(order, p_vv, p_vt, n_v, n_t)
    indptr, _, data = y
    if not np.all(np.isfinite(data)):
        raise SrnError("vanishing elimination produced non-finite probabilities")
    row_sums = np.bincount(
        np.repeat(np.arange(n_v), np.diff(indptr)), weights=data, minlength=n_v
    )
    if np.any(row_sums < 1.0 - 1e-6):
        raise SrnError(
            "timeless trap: some vanishing marking reaches a tangible "
            "marking with probability < 1"
        )
    return y


def _successors_first(
    n_v: int, p_vv: dict[tuple[int, int], float]
) -> list[int] | None:
    """The vanishing rows in reverse topological order (every row after
    its successors), or ``None`` when ``P_vv`` has a cycle."""
    predecessors: list[list[int]] = [[] for _ in range(n_v)]
    pending = [0] * n_v
    for row, col in p_vv:
        predecessors[col].append(row)
        pending[row] += 1
    order = [row for row in range(n_v) if not pending[row]]
    for row in order:  # grows while it is walked
        for predecessor in predecessors[row]:
            pending[predecessor] -= 1
            if not pending[predecessor]:
                order.append(predecessor)
    return order if len(order) == n_v else None


def _back_substitute(
    order: list[int],
    p_vv: dict[tuple[int, int], float],
    p_vt: dict[tuple[int, int], float],
    n_v: int,
    n_t: int,
) -> _Csr:
    """Y of an acyclic ``P_vv`` by back-substitution, successors first:
    ``Y[v] = P_vt[v] + sum_w P_vv[v, w] Y[w]``."""
    successors: list[list[tuple[int, float]]] = [[] for _ in range(n_v)]
    for (row, col), probability in p_vv.items():
        successors[row].append((col, probability))
    rhs_rows, rhs_cols, rhs_values = _triplets(p_vt)
    by_row = np.argsort(rhs_rows, kind="stable")
    bounds = np.searchsorted(rhs_rows[by_row], np.arange(n_v + 1))
    rows: list = [None] * n_v  # (columns, values) of each finished row
    work = np.zeros(n_t)
    for v in order:
        direct = by_row[bounds[v] : bounds[v + 1]]
        columns = [rhs_cols[direct]]
        work[columns[0]] = rhs_values[direct]
        for w, probability in successors[v]:
            cols, vals = rows[w]
            work[cols] += probability * vals
            columns.append(cols)
        # The row's columns, ascending; a column reached twice is kept
        # once, and an exact zero not at all.
        cols = np.concatenate(columns)
        cols.sort()
        vals = work[cols]
        work[cols] = 0.0
        keep = vals != 0.0
        keep[1:] &= cols[1:] != cols[:-1]
        rows[v] = (cols[keep], vals[keep])
    counts = np.array([len(cols) for cols, _ in rows], dtype=np.intp)
    indptr = np.zeros(n_v + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return (
        indptr,
        np.concatenate([cols for cols, _ in rows]),
        np.concatenate([vals for _, vals in rows]),
    )


def _factor_solve(
    p_vv: dict[tuple[int, int], float],
    p_vt: dict[tuple[int, int], float],
    n_v: int,
    n_t: int,
) -> _Csr:
    """Y of a cyclic ``P_vv``: one sparse LU factor of ``I - P_vv``,
    solved against ``P_vt`` in dense blocks of ``_SOLVE_CHUNK`` columns."""
    from scipy import sparse
    from scipy.sparse import linalg as sparse_linalg

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

    # Each block of P_vt columns is solved densely against the one
    # factor and only its non-zeros are kept, so Y stays sparse and the
    # work array is n_v x _SOLVE_CHUNK.  Each column gets the same solve
    # as a column-by-column sparse solve with this factor, so Y does not
    # depend on the block width.
    rhs_rows, rhs_cols, rhs_values = _triplets(p_vt)
    y_rows: list[np.ndarray] = []
    y_cols: list[np.ndarray] = []
    y_data: list[np.ndarray] = []
    for start in range(0, n_t, _SOLVE_CHUNK):
        stop = min(start + _SOLVE_CHUNK, n_t)
        in_block = (rhs_cols >= start) & (rhs_cols < stop)
        block = np.zeros((n_v, stop - start), order="F")
        block[rhs_rows[in_block], rhs_cols[in_block] - start] = rhs_values[in_block]
        block = factor.solve(block)
        nonzero_rows, nonzero_cols = np.nonzero(block)
        y_rows.append(nonzero_rows)
        y_cols.append(nonzero_cols + start)
        y_data.append(block[nonzero_rows, nonzero_cols])
    # Blocks hold ascending column ranges, so a stable sort by row keeps
    # each row's columns ascending.
    rows = np.concatenate(y_rows)
    by_row = np.argsort(rows, kind="stable")
    indptr = np.zeros(n_v + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n_v), out=indptr[1:])
    return indptr, np.concatenate(y_cols)[by_row], np.concatenate(y_data)[by_row]


def _terms(
    sources: np.ndarray,
    targets: np.ndarray,
    via: np.ndarray,
    y: _Csr,
    n_t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(edge, key, probability)`` arrays of the elimination, in walk order.

    Edge ``e`` leaves tangible ``sources[e]`` for the marking at class
    position ``targets[e]``: a tangible marking, or row ``targets[e]``
    of *y* where ``via[e]`` is set, fanned out over that row's stored
    non-zeros in storage order.
    """
    indptr, indices, data = y
    count = len(sources)
    fan_out = np.ones(count, dtype=np.intp)
    fan_out[via] = np.diff(indptr)[targets[via]]
    term_edges = np.repeat(np.arange(count), fan_out)
    fanned = via[term_edges]
    rank = np.arange(len(term_edges)) - (np.cumsum(fan_out) - fan_out)[term_edges]
    stored = indptr[targets[term_edges[fanned]]] + rank[fanned]
    columns = targets[term_edges]
    columns[fanned] = indices[stored]
    probabilities = np.ones(len(term_edges))
    probabilities[fanned] = data[stored]
    return term_edges, sources[term_edges] * n_t + columns, probabilities


def _reweighted(
    n: int,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    edge_rates: np.ndarray,
) -> dict[tuple[int, int], float]:
    """The one rate walk: see :meth:`ReachabilityGraph.reweighted`."""
    term_edges, term_keys, term_probabilities = terms
    split = np.asarray(edge_rates, dtype=float)[term_edges] * term_probabilities
    kept = split > 0.0
    keys, first, slots = np.unique(
        term_keys[kept], return_index=True, return_inverse=True
    )
    # bincount adds each slot's terms one by one in walk order, as a
    # dict accumulation over the walk would.
    sums = np.bincount(slots, weights=split[kept], minlength=len(keys))
    order = np.argsort(first)
    keys = keys[order]
    return dict(
        zip(zip((keys // n).tolist(), (keys % n).tolist()), sums[order].tolist())
    )


def _triplets(
    entries: dict[tuple[int, int], float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` arrays of a ``{(row, col): value}`` dict."""
    keys = np.array(list(entries), dtype=np.intp).reshape(-1, 2)
    values = np.fromiter(entries.values(), dtype=float, count=len(entries))
    return keys[:, 0], keys[:, 1], values
