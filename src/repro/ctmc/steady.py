"""Steady-state solvers.

The steady-state distribution satisfies ``pi Q = 0`` with ``sum(pi) = 1``.
Four methods are provided:

``direct``
    Replace one balance equation by the normalisation condition and solve
    the sparse linear system.  Fast and accurate for irreducible chains.
``gth``
    The Grassmann-Taksar-Heyman elimination: division-free of subtractions,
    numerically exact up to rounding even for stiff chains; O(n^3) dense,
    used for small or ill-conditioned models and for cross-checking.
``iterative``
    BiCGStab (GMRES fallback) on the same augmented system with a
    diagonal preconditioner: the large-n path — sparse LU fill-in makes
    ``direct`` quadratic-ish in practice, while the Krylov solve stays
    near-linear in the number of non-zeros.
``power``
    Uniformised power iteration; a derivative-free fallback.

``method="auto"`` walks one size ladder: ``gth`` up to
:data:`_GTH_CUTOFF` states, ``direct`` up to :data:`_ITERATIVE_CUTOFF`,
``iterative`` above, falling back iterative → direct → power on
:class:`~repro.errors.SolverError`.

Each method is split into a matrix-level core (operating on the generator
directly) and a thin :class:`~repro.ctmc.chain.Ctmc` wrapper, so that
:class:`BatchSteadySolver` can solve whole families of chains that share
one transition structure without rebuilding per-chain ``Ctmc`` objects:
the sparsity pattern, index arrays and dense scaffolding are assembled
once and only the rate values change between solves.  Both
:func:`steady_state` and :meth:`BatchSteadySolver.solve` dispatch
through the same ladder, over a *stack* of chains: the GTH core
eliminates every chain of the stack in one pass (one chain is a stack
of one), with the same floating-point operations per chain as a solve
of that chain alone, so a stacked solve is bit-identical to solving
each chain by itself.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.ctmc.chain import Ctmc
from repro.errors import SolverError
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.resilience.faults import fault_point

__all__ = [
    "steady_state",
    "steady_state_direct",
    "steady_state_gth",
    "steady_state_iterative",
    "steady_state_power",
    "BatchSteadySolver",
]

_logger = logging.getLogger(__name__)

_STEADY_SOLVES = _metrics.counter(
    "repro_steady_solves_total",
    "Steady-state solves by elimination path (core invocations).",
)

#: Up to this state count ``method="auto"`` uses dense GTH elimination.
_GTH_CUTOFF = 200

#: Above this state count ``method="auto"`` tries the preconditioned
#: Krylov solve before the sparse direct factorisation (whose LU
#: fill-in dominates runtime from a few thousand states up).  Kept
#: above the 2401-state paper model so paper-scale solves stay on the
#: exact direct path.
_ITERATIVE_CUTOFF = 5000

_METHODS = ("auto", "gth", "direct", "iterative", "power")


def steady_state(chain: Ctmc, method: str = "auto") -> np.ndarray:
    """Steady-state probability vector of *chain* (indexed like states).

    Parameters
    ----------
    chain:
        The CTMC to solve.  It must have a single recurrent class for the
        result to be meaningful.
    method:
        ``"auto"``, ``"direct"``, ``"gth"``, ``"iterative"`` or
        ``"power"``.
    """
    n = chain.number_of_states()
    with _tracing.span("ctmc:steady", states=n, method=method):
        return _solve(
            n,
            1,
            lambda: chain.dense_generator()[np.newaxis],
            lambda: [chain.generator().astype(float)],
            method,
        )[0]


def _solve(
    n: int,
    m: int,
    dense: Callable[[], np.ndarray],
    generators: Callable[[], Sequence[sparse.spmatrix]],
    method: str,
) -> np.ndarray:
    """Solve a stack of *m* chains of *n* states: ``(m, n)`` vectors.

    *dense* builds the ``(m, n, n)`` stack of dense generators and
    *generators* the *m* sparse ones; ``method="auto"`` walks the size
    ladder of the module docstring.  GTH solves the stack at once, the
    sparse methods one chain at a time.
    """
    if method not in _METHODS:
        raise SolverError(f"unknown steady-state method {method!r}")
    if n == 1:
        return np.ones((m, 1))
    if method == "gth" or (method == "auto" and n <= _GTH_CUTOFF):
        _logger.debug("steady state: n=%d m=%d %s -> gth", n, m, method)
        return _gth_core(dense())
    return np.array([_sparse_ladder(q, method) for q in generators()])


def _sparse_ladder(q: sparse.spmatrix, method: str) -> np.ndarray:
    """One chain through the sparse methods of the ladder (n >= 2)."""
    n = q.shape[0]
    if method == "direct":
        return _direct_core(q)
    if method == "iterative":
        return _iterative_core(q)
    if method == "power":
        return _power_core(q)
    if n > _ITERATIVE_CUTOFF:
        _logger.debug("steady state: n=%d auto -> iterative", n)
        try:
            return _iterative_core(q)
        except SolverError:
            _logger.debug("steady state: n=%d iterative failed -> direct", n)
    try:
        _logger.debug("steady state: n=%d auto -> direct", n)
        return _direct_core(q)
    except SolverError:
        _logger.debug("steady state: n=%d direct failed -> power", n)
        return _power_core(q)


def steady_state_direct(chain: Ctmc) -> np.ndarray:
    """Sparse direct solve of ``pi Q = 0`` with normalisation."""
    n = chain.number_of_states()
    if n == 1:
        return np.array([1.0])
    return _direct_core(chain.generator().astype(float))


def steady_state_gth(chain: Ctmc) -> np.ndarray:
    """Grassmann-Taksar-Heyman elimination (dense, subtraction-free)."""
    n = chain.number_of_states()
    if n == 1:
        return np.array([1.0])
    return _gth_core(chain.dense_generator()[np.newaxis])[0]


def steady_state_iterative(chain: Ctmc, rtol: float = 1e-10) -> np.ndarray:
    """Preconditioned Krylov solve of the augmented steady-state system."""
    n = chain.number_of_states()
    if n == 1:
        return np.array([1.0])
    return _iterative_core(chain.generator().astype(float), rtol=rtol)


def steady_state_power(
    chain: Ctmc,
    tolerance: float = 1e-12,
    max_iterations: int = 2_000_000,
) -> np.ndarray:
    """Uniformised power iteration.

    Builds ``P = I + Q / Lambda`` with ``Lambda`` slightly above the
    largest exit rate and iterates ``pi P`` until the L1 change falls
    below *tolerance*.
    """
    n = chain.number_of_states()
    if n == 1:
        return np.array([1.0])
    return _power_core(
        chain.generator().tocsr().astype(float),
        tolerance=tolerance,
        max_iterations=max_iterations,
    )


# -- matrix-level cores -------------------------------------------------------


def _direct_core(q: sparse.spmatrix) -> np.ndarray:
    """Direct solve given the sparse generator ``Q`` (n >= 2)."""
    _STEADY_SOLVES.inc(path="direct")
    n = q.shape[0]
    a = q.transpose().tolil()
    # Replace the last equation with sum(pi) = 1.
    a[n - 1, :] = np.ones(n)
    b = np.zeros(n)
    b[n - 1] = 1.0
    try:
        pi = sparse_linalg.spsolve(a.tocsr(), b)
    except Exception as exc:  # scipy raises several distinct types
        raise SolverError(f"sparse steady-state solve failed: {exc}") from exc
    return _finalise_pi(pi, "sparse steady-state solve")


def _iterative_core(
    q: sparse.spmatrix, rtol: float = 1e-10, maxiter: int = 5000
) -> np.ndarray:
    """Krylov solve of the augmented system (n >= 2).

    Same system as :func:`_direct_core` — ``Q^T`` with the last balance
    equation replaced by normalisation — solved by BiCGStab (GMRES on
    failure) with a diagonal (Jacobi) preconditioner and a uniform
    starting vector, avoiding the LU fill-in that makes the direct
    factorisation super-linear at large ``n``.
    """
    fault_point(
        "solver.iterative",
        error=SolverError("injected iterative steady-state failure"),
    )
    _STEADY_SOLVES.inc(path="iterative")
    n = q.shape[0]
    a = q.transpose().tocsr().astype(float)
    a = sparse.vstack([a[: n - 1, :], np.ones((1, n))], format="csr")
    b = np.zeros(n)
    b[n - 1] = 1.0
    diagonal = a.diagonal()
    safe = np.where(diagonal != 0.0, diagonal, 1.0)
    scale = 1.0 / safe
    preconditioner = sparse_linalg.LinearOperator(
        (n, n), matvec=lambda x: x * scale
    )
    x0 = np.full(n, 1.0 / n)
    errors: list[str] = []
    for name, solve in (
        ("bicgstab", sparse_linalg.bicgstab),
        ("gmres", sparse_linalg.gmres),
    ):
        try:
            pi, info = solve(
                a, b, x0=x0, rtol=rtol, atol=0.0,
                M=preconditioner, maxiter=maxiter,
            )
        except Exception as exc:  # pragma: no cover - scipy internals
            errors.append(f"{name}: {exc}")
            continue
        if info == 0 and np.all(np.isfinite(pi)):
            residual = float(np.max(np.abs(a @ pi - b)))
            if residual <= max(rtol * 100.0, 1e-8):
                _logger.debug(
                    "iterative steady state: n=%d solver=%s residual=%.3e",
                    n, name, residual,
                )
                return _finalise_pi(pi, "iterative steady-state solve")
            errors.append(f"{name}: residual {residual:.3e} too large")
        else:
            errors.append(f"{name}: info={info}")
    raise SolverError(
        "iterative steady-state solve did not converge ("
        + "; ".join(errors) + ")"
    )


def _finalise_pi(pi: np.ndarray, label: str) -> np.ndarray:
    if not np.all(np.isfinite(pi)):
        raise SolverError(f"{label} produced non-finite values")
    pi = np.where(np.abs(pi) < 1e-300, 0.0, pi)
    if np.any(pi < -1e-8):
        raise SolverError(f"{label} produced negative probabilities")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise SolverError(f"{label} produced a zero vector")
    return pi / total


def _gth_core(q: np.ndarray) -> np.ndarray:
    """GTH elimination of a stack of dense generators ``q[s]`` (n >= 2).

    Returns one steady-state row per chain.  Every step is elementwise
    over the stack or reduces one chain's contiguous row, so each chain
    gets the floating-point operations of a stack of one: stacking never
    changes a result, and the solve counter counts chains.
    """
    m, n = q.shape[0], q.shape[1]
    _STEADY_SOLVES.inc(m, path="gth")
    # Work on the off-diagonal rate matrices.
    a = np.abs(q)
    diagonal = np.arange(n)
    a[:, diagonal, diagonal] = 0.0
    # Forward elimination.  A pivot row without outflow to lower indices
    # (a reducible chain) is caught from the stored totals after the loop.
    totals = np.empty((n, m, 1, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            row = a[:, k : k + 1, :k]
            total = np.add.reduce(row, axis=2, keepdims=True, out=totals[k])
            column = a[:, :k, k : k + 1]
            column /= total
            # One rank-1 update per pivot.  Each entry gets one multiply
            # and one add, and a zero a[k, j] adds +0.0 to a non-negative
            # entry, so this equals a column loop that skips zero columns
            # bit for bit (tests/ctmc keeps that loop as the oracle).
            a[:, :k, :k] += column * row
    if not np.all(totals[1:] > 0.0):
        raise SolverError(
            "GTH elimination hit a state with no outflow to lower indices; "
            "the chain is reducible"
        )
    # Back substitution: one dot product per chain and state.
    pi = np.zeros((m, 1, n))
    pi[:, :, 0] = 1.0
    for k in range(1, n):
        np.matmul(pi[:, :, :k], a[:, :k, k : k + 1], out=pi[:, :, k : k + 1])
    total = np.add.reduce(pi, axis=2)
    if not np.all(np.isfinite(total) & (total > 0)):
        raise SolverError("GTH produced a non-normalisable vector")
    return pi[:, 0, :] / total


def _power_core(
    q: sparse.csr_matrix,
    tolerance: float = 1e-12,
    max_iterations: int = 2_000_000,
) -> np.ndarray:
    """Uniformised power iteration given the sparse generator (n >= 2)."""
    _STEADY_SOLVES.inc(path="power")
    n = q.shape[0]
    max_exit = float(np.max(-q.diagonal())) if n else 0.0
    if max_exit <= 0.0:
        # No transitions at all: every state is absorbing.
        raise SolverError("chain has no transitions; steady state undefined")
    lam = max_exit * 1.02
    p = sparse.identity(n, format="csr") + q / lam
    pi = np.full(n, 1.0 / n)
    delta = float("inf")
    for _ in range(max_iterations):
        nxt = pi @ p
        nxt = np.asarray(nxt).ravel()
        delta = np.abs(nxt - pi).sum()
        pi = nxt
        if delta < tolerance:
            total = pi.sum()
            return np.clip(pi, 0.0, None) / total
    raise SolverError(
        f"power iteration did not converge within {max_iterations} "
        f"iterations (achieved residual {delta:.3e}, tolerance {tolerance:.3e})"
    )


# -- batched solves over a shared structure -----------------------------------


class BatchSteadySolver:
    """Solve many CTMCs that share one transition structure.

    The solver is built once from the state count and the off-diagonal
    transition pattern (``(src, dst)`` index pairs); each solve then only
    supplies the rate *values* aligned with that pattern.  Generator
    assembly is fully vectorised (index arrays + ``bincount`` for the
    diagonal), and a stack of rate vectors is solved in one call: small
    chains go through one stacked GTH elimination.

    Examples
    --------
    >>> solver = BatchSteadySolver(2, [(0, 1), (1, 0)])
    >>> solver.solve([2.0, 8.0]).round(3).tolist()
    [0.8, 0.2]
    >>> solver.solve([[2.0, 8.0], [1.0, 1.0]]).round(3).tolist()
    [[0.8, 0.2], [0.5, 0.5]]
    """

    def __init__(self, n: int, transitions: Sequence[tuple[int, int]]) -> None:
        if n < 1:
            raise SolverError("a chain needs at least one state")
        self.n = int(n)
        pattern = list(transitions)
        if len(set(pattern)) != len(pattern):
            raise SolverError("transition pattern contains duplicate pairs")
        for src, dst in pattern:
            if src == dst:
                raise SolverError(f"self-loop ({src}, {dst}) in transition pattern")
            if not (0 <= src < n and 0 <= dst < n):
                raise SolverError(f"transition ({src}, {dst}) outside 0..{n - 1}")
        self._pattern: tuple[tuple[int, int], ...] = tuple(pattern)
        self._src = np.array([s for s, _ in pattern], dtype=np.intp)
        self._dst = np.array([d for _, d in pattern], dtype=np.intp)
        diag = np.arange(n, dtype=np.intp)
        self._rows = np.concatenate([self._src, diag])
        self._cols = np.concatenate([self._dst, diag])

    @classmethod
    def from_chain(cls, chain: Ctmc) -> "BatchSteadySolver":
        """A solver over *chain*'s transition pattern."""
        pattern = [(i, j) for i, j, _ in chain.transitions()]
        return cls(chain.number_of_states(), pattern)

    @property
    def pattern(self) -> tuple[tuple[int, int], ...]:
        """The off-diagonal ``(src, dst)`` pairs, in rate-vector order."""
        return self._pattern

    def rates_of(self, chain: Ctmc) -> np.ndarray:
        """*chain*'s rates aligned with :attr:`pattern` (0 where absent).

        Raises
        ------
        SolverError
            If the chain has a transition outside this solver's pattern.
        """
        lookup = {(i, j): rate for i, j, rate in chain.transitions()}
        rates = np.array([lookup.pop(pair, 0.0) for pair in self._pattern])
        if lookup:
            extra = next(iter(lookup))
            raise SolverError(f"chain transition {extra} not in solver pattern")
        return rates

    def generator(self, rates: Sequence[float]) -> sparse.csr_matrix:
        """Assemble the sparse generator for one rate vector."""
        values = self._values(rates)
        outflow = np.bincount(self._src, weights=values, minlength=self.n)
        data = np.concatenate([values, -outflow])
        return sparse.csr_matrix(
            (data, (self._rows, self._cols)), shape=(self.n, self.n)
        )

    def dense_generator(self, rates: Sequence[float] | np.ndarray) -> np.ndarray:
        """Assemble the dense generator for one rate vector, or the
        ``(m, n, n)`` stack of generators for an ``(m, k)`` stack of
        rate vectors."""
        values = self._values(rates)
        stack = values.reshape(-1, len(self._pattern))
        q = np.zeros((len(stack), self.n, self.n))
        q[:, self._src, self._dst] = stack
        diagonal = np.arange(self.n)
        for chain, row in zip(q, stack):
            chain[diagonal, diagonal] = -np.bincount(
                self._src, weights=row, minlength=self.n
            )
        return q if values.ndim == 2 else q[0]

    def solve(
        self, rates: Sequence[float] | np.ndarray, method: str = "auto"
    ) -> np.ndarray:
        """Steady-state vector for the chain with the given rate values.

        An ``(m, k)`` stack of rate vectors solves *m* chains at once and
        returns one row per chain, each bit-identical to solving that
        chain alone.
        """
        values = self._values(rates)
        stack = values.reshape(-1, len(self._pattern))
        with _tracing.span(
            "ctmc:steady", states=self.n, method=method, chains=len(stack)
        ):
            pi = _solve(
                self.n,
                len(stack),
                lambda: self.dense_generator(stack),
                lambda: [self.generator(row) for row in stack],
                method,
            )
        return pi if values.ndim == 2 else pi[0]

    def _values(self, rates: Sequence[float] | np.ndarray) -> np.ndarray:
        values = np.asarray(rates, dtype=float)
        k = len(self._pattern)
        if values.shape != (k,) and not (
            values.ndim == 2 and values.shape[1] == k and len(values) > 0
        ):
            raise SolverError(
                f"expected {k} rates (or an (m, {k}) stack), got shape "
                f"{values.shape}"
            )
        if np.any(~np.isfinite(values)) or np.any(values < 0):
            raise SolverError("rates must be finite and non-negative")
        return values
