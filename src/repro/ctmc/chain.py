"""Labelled continuous-time Markov chains."""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CtmcError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["Ctmc"]

State = Hashable


class Ctmc:
    """A finite CTMC with hashable state labels.

    The chain is defined by transition *rates* between labelled states;
    the infinitesimal generator ``Q`` is derived with diagonal entries
    ``-sum(row)``.  States keep insertion order, which fixes the index of
    each label in every vector the solvers return.

    Examples
    --------
    >>> chain = Ctmc.from_rates({("up", "down"): 2.0, ("down", "up"): 8.0})
    >>> chain.number_of_states()
    2
    """

    def __init__(self, states: Sequence[State]) -> None:
        if not states:
            raise CtmcError("a CTMC needs at least one state")
        self._states: list[State] = list(states)
        self._index: dict[State, int] = {}
        for position, state in enumerate(self._states):
            if state in self._index:
                raise CtmcError(f"duplicate state label {state!r}")
            self._index[state] = position
        self._rates: dict[tuple[int, int], float] = {}

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_rates(
        cls,
        rates: Mapping[tuple[State, State], float],
        states: Iterable[State] | None = None,
    ) -> "Ctmc":
        """Build a chain from a ``{(src, dst): rate}`` mapping.

        Extra isolated states may be supplied via *states*; otherwise the
        state set is inferred from the mapping keys in encounter order.
        """
        if states is None:
            ordered: list[State] = []
            seen = set()
            for src, dst in rates:
                for state in (src, dst):
                    if state not in seen:
                        seen.add(state)
                        ordered.append(state)
            states = ordered
        chain = cls(list(states))
        for (src, dst), rate in rates.items():
            chain.add_rate(src, dst, rate)
        return chain

    # -- construction ------------------------------------------------------------

    def add_rate(self, src: State, dst: State, rate: float) -> None:
        """Add (accumulate) a transition rate from *src* to *dst*."""
        i = self.index_of(src)
        j = self.index_of(dst)
        if i == j:
            raise CtmcError(f"self-loop rate on state {src!r} is meaningless")
        if not isinstance(rate, (int, float)) or rate != rate:
            raise CtmcError(f"rate must be a finite number, got {rate!r}")
        if rate < 0:
            raise CtmcError(f"rate must be >= 0, got {rate!r}")
        if rate == 0:
            return
        self._rates[(i, j)] = self._rates.get((i, j), 0.0) + float(rate)

    # -- structure ---------------------------------------------------------------

    @property
    def states(self) -> list[State]:
        """State labels in index order."""
        return list(self._states)

    def index_of(self, state: State) -> int:
        """The index of *state*.

        Raises
        ------
        CtmcError
            If the label is unknown.
        """
        try:
            return self._index[state]
        except KeyError:
            raise CtmcError(f"unknown state {state!r}") from None

    def number_of_states(self) -> int:
        """State count."""
        return len(self._states)

    def number_of_transitions(self) -> int:
        """Number of distinct nonzero rate entries."""
        return len(self._rates)

    def rate(self, src: State, dst: State) -> float:
        """The transition rate from *src* to *dst* (0 if absent)."""
        return self._rates.get((self.index_of(src), self.index_of(dst)), 0.0)

    def exit_rate(self, state: State) -> float:
        """Total rate out of *state*."""
        i = self.index_of(state)
        return sum(rate for (src, _), rate in self._rates.items() if src == i)

    def absorbing_states(self) -> list[State]:
        """States with no outgoing transitions."""
        have_exit = {src for (src, _) in self._rates}
        return [s for i, s in enumerate(self._states) if i not in have_exit]

    def transitions(self) -> list[tuple[int, int, float]]:
        """All transitions as ``(src_index, dst_index, rate)`` triples."""
        return [(i, j, rate) for (i, j), rate in self._rates.items()]

    # -- matrices ----------------------------------------------------------------

    def generator(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q`` as a CSR sparse matrix."""
        from scipy import sparse

        n = len(self._states)
        if not self._rates:
            return sparse.csr_matrix((n, n))
        rows, cols, vals = [], [], []
        diagonal = np.zeros(n)
        for (i, j), rate in self._rates.items():
            rows.append(i)
            cols.append(j)
            vals.append(rate)
            diagonal[i] -= rate
        for i in range(n):
            if diagonal[i] != 0.0:
                rows.append(i)
                cols.append(i)
                vals.append(diagonal[i])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def dense_generator(self) -> np.ndarray:
        """The generator as a dense array (small chains only).

        Equal to ``generator().toarray()``, diagonal sums included (each
        row subtracts its rates in the same order), without scipy.
        """
        n = len(self._states)
        dense = np.zeros((n, n))
        for (i, j), rate in self._rates.items():
            dense[i, j] = rate
            dense[i, i] -= rate
        return dense

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"Ctmc(states={self.number_of_states()}, "
            f"transitions={self.number_of_transitions()})"
        )
