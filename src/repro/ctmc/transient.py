"""Transient analysis by uniformisation (Jensen's method).

``pi(t) = sum_k PoissonPMF(k; Lambda t) * pi(0) P^k`` with
``P = I + Q / Lambda``.  The truncation point is chosen so the neglected
Poisson tail is below the requested tolerance.

Three evaluation paths are provided:

:func:`transient_distribution`
    The single-time reference implementation (one uniformisation per
    call, matrix-power left-truncation shortcut for dense chains).
:class:`BatchTransientSolver`
    The batched path: uniformise *once* per chain — one generator, one
    Poisson-weight table, one stream of uniformised iterates — and
    evaluate many time points and many reward vectors in a single pass.
    Iterates are anchored at absolute Poisson indices (blocks of
    precomputed matrix powers for dense chains, a plain sequential
    recurrence for sparse ones), so evaluating a set of times in one
    call is **bit-identical** to evaluating them one call at a time:
    the per-time loop in :func:`transient_rewards` is the parity oracle
    the batch solver is tested against.
:func:`transient_piecewise`
    The non-stationary path: a piecewise-constant chain described by
    ``(solver, duration)`` segments (one uniformised solver per
    segment, e.g. one per patch-campaign phase).  The state vector is
    carried across segment boundaries and each segment serves every
    time point falling inside it (plus the boundary itself) from one
    batch pass — so an n-segment evaluation costs n passes, and the
    anchored-iterate contract makes it bit-identical to the brute-force
    oracle that re-propagates phase by phase for every single time
    point.

Chains of up to :data:`_DENSE_CUTOFF` states are densified; larger ones
stream sparse vector-matrix products.  Either way the result is the
exact truncated uniformisation sum.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.ctmc.chain import Ctmc, State
from repro.errors import SolverError
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.resilience.faults import fault_point

if TYPE_CHECKING:
    from scipy import sparse

_logger = logging.getLogger(__name__)

# ``method`` is always ``"uniformisation"``; the label stays because
# scrapers and tests select these series by it.
_SOLVER_BUILDS = _metrics.counter(
    "repro_transient_solver_builds_total",
    "Transient solver constructions by method and backend.",
)
_SOLVES = _metrics.counter(
    "repro_transient_solves_total",
    "Transient distribution solves (propagation actually performed).",
)
_ITERATIONS = _metrics.counter(
    "repro_transient_uniformisation_iterations_total",
    "Uniformisation iterates streamed (vector-matrix products).",
).labels()

__all__ = [
    "transient_distribution",
    "transient_rewards",
    "BatchTransientSolver",
    "transient_piecewise",
]

#: Below this state count the uniformisation matrix is densified: numpy
#: matvecs beat scipy-sparse call overhead, and the left-truncation
#: advance can use matrix powers (repeated squaring) instead of
#: ``left`` sequential multiplications — for stiff chains ``left`` is of
#: the order ``Lambda t`` and the sequential loop dominated whole runs.
_DENSE_CUTOFF = 400

#: Safety net on the Poisson truncation search (matches the historical
#: per-side cap of the list-based implementation).
_MAX_POISSON_TERMS = 100_000

#: Memory cap (in matrix entries) for the dense block-power table; the
#: block size is chosen so ``block * n * n`` stays below this.
_BLOCK_ENTRY_BUDGET = 1 << 21


def _use_matrix_power(n: int, left: int) -> bool:
    """Whether repeated squaring beats ``left`` sequential vec-mats.

    Squaring costs ~log2(left) n^3 multiplies vs left n^2 for the loop,
    so the break-even scales with the state count (factor 3 for safety).
    """
    return left > 64 and left > 3 * n * math.log2(left)


def _block_size(n: int) -> int:
    """Power block length for dense chains (pure function of ``n``).

    The batch solver streams uniformised iterates in blocks of this
    many Poisson indices per BLAS call; it must depend on nothing but
    the state count and the fixed entry budget so that any two calls
    over the same chain walk the exact same block boundaries (the
    bit-identity contract).
    """
    return max(1, min(128, _BLOCK_ENTRY_BUDGET // (n * n)))


def transient_distribution(
    chain: Ctmc,
    initial: Mapping[State, float] | np.ndarray,
    time: float,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Distribution over states at *time*, starting from *initial*.

    *initial* is either a probability vector indexed like
    ``chain.states`` or a mapping from state label to probability.
    """
    from scipy import sparse

    if time < 0:
        raise SolverError(f"time must be >= 0, got {time}")
    pi0 = _initial_vector(chain, initial)
    if time == 0:
        return pi0
    n = chain.number_of_states()
    q = chain.generator().tocsr().astype(float)
    max_exit = float(np.max(-q.diagonal())) if n else 0.0
    if max_exit == 0.0:
        return pi0  # no transitions: distribution is frozen
    lam = max_exit * 1.02
    p = sparse.identity(n, format="csr") + q / lam
    if n <= _DENSE_CUTOFF:
        p = p.toarray()

    # Poisson weights with left/right truncation.
    mean = lam * time
    weights, left = _poisson_weights(mean, tolerance)

    term = pi0.copy()
    # Advance to the left truncation point.
    if isinstance(p, np.ndarray) and _use_matrix_power(n, left):
        term = term @ np.linalg.matrix_power(p, left)
    else:
        for _ in range(left):
            term = np.asarray(term @ p).ravel()
    result = np.zeros(n)
    for weight in weights:
        result += weight * term
        term = np.asarray(term @ p).ravel()
    result = np.clip(result, 0.0, None)
    total = result.sum()
    if total <= 0:
        raise SolverError("uniformisation lost all probability mass")
    return result / total


def transient_rewards(
    chain: Ctmc,
    initial: Mapping[State, float] | np.ndarray,
    rewards: np.ndarray,
    times: Sequence[float],
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Expected instantaneous reward rate at each time in *times*.

    This is the **per-time loop**: one uniformisation setup and one
    Poisson-weight table are shared across all times, but each time
    point streams its own pass over the uniformised iterates.  It is
    kept as the parity oracle for :class:`BatchTransientSolver`, which
    serves every time point from a single pass and must agree with this
    loop bit for bit.
    """
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != (chain.number_of_states(),):
        raise SolverError(
            f"reward vector has shape {rewards.shape}, expected "
            f"({chain.number_of_states()},)"
        )
    times = list(times)
    solver = BatchTransientSolver(chain, tolerance=tolerance)
    table = solver.poisson_rows(times)
    out = np.empty(len(times), dtype=float)
    for i, (time, row) in enumerate(zip(times, table)):
        dist = solver.distributions(initial, [time], rows=[row])[0]
        out[i] = float(dist @ rewards)
    return out


class BatchTransientSolver:
    """Evaluate many time points and many reward vectors on one chain.

    The generator, the uniformisation constant ``Lambda``, the
    (densified) probability matrix ``P`` and — for dense chains — a
    table of its first few powers are computed once at construction.
    Each :meth:`distributions` call then streams the uniformised
    iterates ``pi(0) P^k`` exactly once over the union of the Poisson
    truncation windows of the requested times, accumulating every
    time's distribution on the fly.

    Iterates are anchored at absolute indices ``k`` (block boundaries
    are multiples of :func:`_block_size`), so the iterate at index ``k``
    is the same bit pattern no matter which set of times is requested:
    a batched call over ``times`` equals a per-time loop byte for byte.

    ``solver.backend`` records the storage path: ``"dense"``,
    ``"sparse"`` or ``"frozen"`` (a chain without transitions).

    Examples
    --------
    >>> chain = Ctmc.from_rates({("up", "down"): 2.0, ("down", "up"): 8.0})
    >>> solver = BatchTransientSolver(chain)
    >>> solver.distributions({"up": 1.0}, [0.0]).round(3).tolist()
    [[1.0, 0.0]]
    """

    def __init__(self, chain: Ctmc, tolerance: float = 1e-10) -> None:
        if tolerance <= 0:
            raise SolverError(f"tolerance must be > 0, got {tolerance}")
        self._chain = chain
        self._states = None
        self.tolerance = float(tolerance)
        self.n = chain.number_of_states()
        q = chain.generator().tocsr().astype(float)
        self._init_from_generator(q)

    @classmethod
    def from_generator(
        cls,
        q: sparse.spmatrix,
        states: Sequence[State] | None = None,
        tolerance: float = 1e-10,
    ) -> "BatchTransientSolver":
        """A solver over an already-assembled generator matrix.

        *states* optionally supplies the labels behind each index so
        mapping-style initial distributions keep working; without it the
        initial distribution must be a plain probability vector.
        """
        solver = cls.__new__(cls)
        if tolerance <= 0:
            raise SolverError(f"tolerance must be > 0, got {tolerance}")
        solver._chain = None
        solver.tolerance = float(tolerance)
        q = q.tocsr().astype(float)
        if q.shape[0] != q.shape[1] or q.shape[0] < 1:
            raise SolverError(f"generator must be square, got shape {q.shape}")
        solver.n = q.shape[0]
        solver._states = list(states) if states is not None else None
        solver._init_from_generator(q)
        return solver

    def _init_from_generator(self, q: sparse.csr_matrix) -> None:
        from scipy import sparse

        max_exit = float(np.max(-q.diagonal())) if self.n else 0.0
        self._block = 1
        self._powers = None
        if max_exit == 0.0:
            # No transitions: every distribution is frozen at pi(0).
            self.lam = 0.0
            self._p = None
            self.backend = "frozen"
        else:
            self.lam = max_exit * 1.02
            p = sparse.identity(self.n, format="csr") + q / self.lam
            if self.n <= _DENSE_CUTOFF:
                p = p.toarray()
                self.backend = "dense"
                self._block = _block_size(self.n)
                # powers[:, (j-1)*n:j*n] = P^j for j = 1..block, laid out
                # so one vec-mat produces a whole block of iterates.  Built
                # by doubling: [P^1..P^m] @ P^m = [P^(m+1)..P^(2m)].
                stack = p[None, :, :]
                while stack.shape[0] < self._block:
                    grown = np.matmul(stack, stack[-1])
                    stack = np.concatenate((stack, grown))[: self._block]
                self._powers = np.ascontiguousarray(
                    stack.transpose(1, 0, 2).reshape(self.n, self._block * self.n)
                )
            else:
                self.backend = "sparse"
            self._p = p
        _logger.debug(
            "transient solver: n=%d backend=%s block=%d",
            self.n,
            self.backend,
            self._block,
        )
        _SOLVER_BUILDS.inc(method="uniformisation", backend=self.backend)

    # -- Poisson table -------------------------------------------------------

    def poisson_rows(
        self, times: Sequence[float]
    ) -> list[tuple[np.ndarray, int] | None]:
        """The Poisson-weight table: one ``(weights, left)`` row per time.

        Rows are ``None`` for times that need no series (``t == 0`` or a
        frozen chain).  The same table is computed internally by
        :meth:`distributions`; pass it back via ``rows=`` to share one
        table across several calls (the per-time oracle loop does).
        """
        rows: list[tuple[np.ndarray, int] | None] = []
        for time in times:
            if time < 0:
                raise SolverError(f"time must be >= 0, got {time}")
            if time == 0 or self.lam == 0.0:
                rows.append(None)
            else:
                weights, left = _poisson_weights(self.lam * time, self.tolerance)
                rows.append((weights, left))
        return rows

    # -- distributions -------------------------------------------------------

    def distributions(
        self,
        initial: Mapping[State, float] | np.ndarray,
        times: Sequence[float],
        rows: Sequence[tuple[np.ndarray, int] | None] | None = None,
    ) -> np.ndarray:
        """State distributions at each time, as a ``(times, n)`` array.

        *rows* optionally supplies a precomputed :meth:`poisson_rows`
        table for exactly these times.
        """
        times = list(times)
        pi0 = self._initial(initial)
        if rows is None:
            rows = self.poisson_rows(times)
        elif len(rows) != len(times):
            raise SolverError(
                f"got {len(rows)} Poisson rows for {len(times)} times"
            )
        else:
            for time in times:
                if time < 0:
                    raise SolverError(f"time must be >= 0, got {time}")
        out = np.zeros((len(times), self.n))
        active: list[tuple[int, int, np.ndarray]] = []
        for i, row in enumerate(rows):
            if row is None:
                out[i] = pi0
            else:
                weights, left = row
                active.append((i, left, weights))
        if active:
            fault_point(
                "solver.transient",
                error=SolverError("injected transient solve failure"),
            )
            _SOLVES.inc(method="uniformisation")
            with _tracing.span(
                "ctmc:transient",
                states=self.n,
                backend=self.backend,
                times=len(active),
            ):
                self._accumulate(pi0, active, out)
            for i, _, _ in active:
                result = np.clip(out[i], 0.0, None)
                total = result.sum()
                if total <= 0:
                    raise SolverError("uniformisation lost all probability mass")
                out[i] = result / total
        return out

    def propagate(
        self,
        initial: Mapping[State, float] | np.ndarray,
        duration: float,
    ) -> np.ndarray:
        """The state distribution after *duration*, as a plain vector.

        The segment primitive of :func:`transient_piecewise`: carrying a
        vector across a phase boundary is one single-time
        :meth:`distributions` call, so a chained sequence of
        ``propagate`` calls is the brute-force oracle the piecewise
        batch path is bit-identical to.
        """
        return self.distributions(initial, [duration])[0]

    def rewards(
        self,
        initial: Mapping[State, float] | np.ndarray,
        rewards: np.ndarray,
        times: Sequence[float],
    ) -> np.ndarray:
        """Expected reward rates at each time for one or many rewards.

        A 1-D reward vector gives a ``(times,)`` array (the
        :func:`transient_rewards` shape); a 2-D ``(m, n)`` reward matrix
        gives ``(times, m)`` — every reward evaluated from the same
        single pass over the uniformised iterates.
        """
        rewards = np.asarray(rewards, dtype=float)
        squeeze = rewards.ndim == 1
        matrix = rewards[None, :] if squeeze else rewards
        if matrix.ndim != 2 or matrix.shape[1] != self.n:
            raise SolverError(
                f"reward matrix has shape {rewards.shape}, expected "
                f"(m, {self.n}) or ({self.n},)"
            )
        dists = self.distributions(initial, times)
        out = np.empty((dists.shape[0], matrix.shape[0]))
        for i in range(dists.shape[0]):
            for j in range(matrix.shape[0]):
                out[i, j] = float(dists[i] @ matrix[j])
        return out[:, 0] if squeeze else out

    # -- internals -----------------------------------------------------------

    def _accumulate(
        self,
        pi0: np.ndarray,
        active: list[tuple[int, int, np.ndarray]],
        out: np.ndarray,
    ) -> None:
        """Stream iterates ``pi0 P^k`` once, accumulating every window.

        ``active`` holds ``(row index, left truncation, weights)``; each
        row receives ``sum_k weights[k - left] * pi0 P^k``.  Iterates
        are produced in blocks anchored at absolute multiples of the
        block size, so the value of iterate ``k`` is independent of
        which windows are requested.
        """
        last = max(left + len(weights) for _, left, weights in active) - 1
        _ITERATIONS.inc(last + 1)
        if self._powers is not None:
            block, n = self._block, self.n
            lefts = np.array([left for _, left, _ in active])
            ends = np.array([left + len(weights) for _, left, weights in active])
            start = pi0  # iterate at k = m * block
            m = 0
            while m * block <= last:
                base = m * block
                products = (start @ self._powers).reshape(block, n)
                # iterates base .. base+block-1
                terms = np.concatenate((start[None, :], products[: block - 1]))
                los = np.maximum(lefts, base)
                his = np.minimum(ends, base + block)
                for position in np.nonzero(los < his)[0]:
                    i, left, weights = active[position]
                    lo, hi = los[position], his[position]
                    out[i] += (
                        weights[lo - left : hi - left]
                        @ terms[lo - base : hi - base]
                    )
                start = products[block - 1]
                m += 1
        else:
            term = pi0.copy()
            for k in range(last + 1):
                for i, left, weights in active:
                    offset = k - left
                    if 0 <= offset < len(weights):
                        out[i] += weights[offset] * term
                term = np.asarray(term @ self._p).ravel()

    def _initial(
        self, initial: Mapping[State, float] | np.ndarray
    ) -> np.ndarray:
        if self._chain is not None:
            return _initial_vector(self._chain, initial)
        if not isinstance(initial, np.ndarray):
            if self._states is None:
                raise SolverError(
                    "a solver built from a bare generator needs a vector "
                    "initial distribution (no state labels to map)"
                )
            vector = np.zeros(self.n)
            index = {state: i for i, state in enumerate(self._states)}
            for state, mass in initial.items():
                try:
                    vector[index[state]] = float(mass)
                except KeyError:
                    raise SolverError(f"unknown state {state!r}") from None
            initial = vector
        vector = initial.astype(float)
        if vector.shape != (self.n,):
            raise SolverError(
                f"initial vector has shape {vector.shape}, expected ({self.n},)"
            )
        if np.any(vector < 0) or not np.isclose(vector.sum(), 1.0, atol=1e-9):
            raise SolverError(
                "initial distribution must be non-negative and sum to 1"
            )
        return vector / vector.sum()


def transient_piecewise(
    segments: Sequence[tuple["BatchTransientSolver", float]],
    initial: Mapping[State, float] | np.ndarray,
    times: Sequence[float],
    return_carries: bool = False,
) -> np.ndarray | tuple[np.ndarray, list[np.ndarray]]:
    """Distributions of a piecewise-constant chain at each time.

    *segments* is an ordered sequence of ``(solver, duration)`` pairs —
    one uniformised :class:`BatchTransientSolver` per constant-rate
    regime (e.g. one per patch-campaign phase) over the **same** state
    space, active for *duration* hours.  The final segment is
    open-ended: its duration (``math.inf`` by convention) only matters
    in that no segment follows it.  A non-final ``math.inf`` duration
    marks a phase that never ends (a trigger that never fires): every
    later segment is unreachable and all remaining times are served by
    it.

    Each segment evaluates the time points falling in its half-open
    window ``[start, start + duration)`` *and* the boundary itself in a
    single batch pass, carrying the boundary distribution into the next
    segment.  Because batch iterates are anchored at absolute Poisson
    indices, every returned row is bit-identical to the brute-force
    oracle that, for each time separately, chains one
    :meth:`BatchTransientSolver.propagate` call per earlier segment and
    a final single-time :meth:`~BatchTransientSolver.distributions`
    call.  A time landing exactly on a phase boundary belongs to the
    *next* segment at offset zero, which returns the carried vector
    unchanged — the same bits either way.

    With *return_carries* the entry distribution of every segment is
    returned alongside (``carries[0]`` is the validated initial
    vector); unreachable segments get no entry.
    """
    segments = list(segments)
    if not segments:
        raise SolverError("transient_piecewise needs at least one segment")
    n = None
    for solver, duration in segments:
        if not isinstance(solver, BatchTransientSolver):
            raise SolverError(
                f"segments must pair BatchTransientSolver with a duration, "
                f"got {solver!r}"
            )
        if n is None:
            n = solver.n
        elif solver.n != n:
            raise SolverError(
                f"piecewise segments must share one state space; got sizes "
                f"{n} and {solver.n}"
            )
        if duration != duration or duration < 0:
            raise SolverError(f"segment duration must be >= 0, got {duration}")
    times = [float(t) for t in times]
    for time in times:
        # NaN fails every window test, which would leave its np.empty
        # output row unassigned — reject non-finite times outright.
        if not math.isfinite(time) or time < 0:
            raise SolverError(f"time must be finite and >= 0, got {time}")

    out = np.empty((len(times), n))
    carry: Mapping[State, float] | np.ndarray = initial
    carries: list[np.ndarray] = []
    start = 0.0
    for position, (solver, duration) in enumerate(segments):
        last = position == len(segments) - 1
        end = math.inf if last else start + duration
        indices = [i for i, t in enumerate(times) if start <= t < end]
        offsets = [times[i] - start for i in indices]
        carry_needed = not last and math.isfinite(duration)
        if return_carries:
            # Record the densified entry vector for occupancy algebra,
            # but keep propagating the raw carry: re-normalising it here
            # could shift the downstream rows by an ulp.
            carries.append(solver._initial(carry))
        if carry_needed and duration > 0.0:
            # One batch pass serves the in-window times and the boundary;
            # anchored iterates make each row equal its solo evaluation.
            batch = solver.distributions(carry, offsets + [duration])
            if indices:
                out[indices] = batch[:-1]
            carry = batch[-1]
        else:
            if indices:
                out[indices] = solver.distributions(carry, offsets)
            if not carry_needed:
                # Open-ended (or never-ending) segment: nothing follows.
                break
            # duration == 0: the segment owns no window; carry unchanged.
        start = end
    if return_carries:
        return out, carries
    return out


def _initial_vector(
    chain: Ctmc, initial: Mapping[State, float] | np.ndarray
) -> np.ndarray:
    n = chain.number_of_states()
    if isinstance(initial, np.ndarray):
        vector = initial.astype(float)
        if vector.shape != (n,):
            raise SolverError(f"initial vector has shape {vector.shape}, expected ({n},)")
    else:
        vector = np.zeros(n)
        for state, mass in initial.items():
            vector[chain.index_of(state)] = float(mass)
    if np.any(vector < 0) or not np.isclose(vector.sum(), 1.0, atol=1e-9):
        raise SolverError("initial distribution must be non-negative and sum to 1")
    return vector / vector.sum()


def _poisson_weights(mean: float, tolerance: float) -> tuple[np.ndarray, int]:
    """Poisson(mean) pmf values covering 1 - tolerance mass.

    Returns the weights and the left truncation index.  Weights are
    computed in a numerically stable way by starting at the mode; the
    recurrence on both sides runs as one numpy cumulative product
    instead of a Python list walk.
    """
    if mean <= 0:
        return np.array([1.0]), 0
    mode = int(mean)
    cut = tolerance * 1e-4

    # Right side: u_j = prod_{i=1..j} mean / (mode + i), j = 0, 1, ...
    # truncated after the first value below the cut (which is kept, as
    # the list-based recurrence did).
    span = int(12.0 * math.sqrt(mean) + 40.0)
    while True:
        ks = np.arange(mode + 1, mode + 1 + min(span, _MAX_POISSON_TERMS))
        right = np.cumprod(mean / ks)
        below = np.nonzero(right < cut)[0]
        if below.size:
            right = right[: below[0] + 1]
            break
        if span >= _MAX_POISSON_TERMS:  # pragma: no cover - safety net
            break
        span *= 2

    # Left side: v_j = prod_{i=0..j-1} (mode - i) / mean, j = 1..mode,
    # truncated the same way (grown in chunks so a huge mode does not
    # materialise mode-many terms when only ~sqrt(mean) are needed).
    if mode > 0:
        span = int(12.0 * math.sqrt(mean) + 40.0)
        while True:
            ks = np.arange(mode, max(0, mode - min(span, _MAX_POISSON_TERMS)), -1)
            left_values = np.cumprod(ks / mean)
            below = np.nonzero(left_values < cut)[0]
            if below.size:
                left_values = left_values[: below[0] + 1]
                break
            if len(ks) >= mode or span >= _MAX_POISSON_TERMS:
                break  # reached k = 0 (or the safety cap) above the cut
            span *= 2
        left_index = mode - len(left_values)
    else:
        left_values = np.empty(0)
        left_index = 0

    weights = np.concatenate((left_values[::-1], [1.0], right))
    return weights / weights.sum(), left_index
