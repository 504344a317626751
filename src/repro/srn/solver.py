"""High-level SRN solution facade (the SPNP "solve and measure" step).

Reward evaluation is vectorised: per-marking reward values are computed
once per reward function, cached in a per-solution LRU keyed on the
callable, and reduced against the probability vector with a numpy dot
product.  The original per-marking Python loop survives as
:meth:`SrnSolution.expected_reward_loop` — the reference implementation
the parity tests and benchmarks compare against.

:func:`solve_family` solves a family of structurally identical nets
without vanishing markings (same places, transitions and arcs; only
rate values differ) while exploring the reachability graph once and
solving every steady state in one stacked call over the shared
transition pattern.  Nets with vanishing markings have their own
one-exploration route when their guards and immediate weights ignore
the rates (:meth:`ReachabilityGraph.reweighted`, used by
:class:`repro.availability.server.ServerNetSolver`); any single net is
solved by :func:`solve`.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.ctmc import Ctmc, steady_state
from repro.ctmc.steady import BatchSteadySolver
from repro.ctmc.transient import BatchTransientSolver
from repro.errors import SrnError
from repro.srn.marking import Marking
from repro.srn.net import StochasticRewardNet, TransitionKind
from repro.srn.reachability import DEFAULT_MAX_MARKINGS, ReachabilityGraph, explore

__all__ = [
    "SrnSolution",
    "solve",
    "solve_family",
    "family_signature",
]

#: A reward function over markings (SPNP-style reward definition).
RewardFn = Callable[[Marking], float]

#: Per-solution cap on cached reward vectors.
_REWARD_CACHE_SIZE = 64


@dataclass
class SrnSolution:
    """Steady-state solution of an SRN with reward-evaluation helpers."""

    graph: ReachabilityGraph
    chain: Ctmc
    probabilities: np.ndarray
    _reward_cache: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _token_matrix: np.ndarray | None = field(default=None, repr=False)
    _transient_solver: BatchTransientSolver | None = field(default=None, repr=False)

    @property
    def markings(self) -> tuple[Marking, ...]:
        """Tangible markings, aligned with :attr:`probabilities`."""
        return self.graph.tangible

    def reward_vector(self, reward: RewardFn) -> np.ndarray:
        """Per-marking values of *reward*, aligned with :attr:`markings`.

        Vectors are cached (LRU, keyed on the reward callable), so
        repeated measures over the same reward reduce to one dot product.
        The reward is evaluated on *every* tangible marking — including
        transient ones with zero steady-state probability — because the
        same vector feeds :meth:`transient_reward`.
        """
        return self._cached_vector(("reward", reward), reward, float)

    def _steady_reward_vector(self, reward: RewardFn) -> np.ndarray:
        """Like :meth:`reward_vector` but 0 on zero-probability markings.

        Steady-state measures must not evaluate the reward on transient
        markings (the legacy loop skipped them), so partial reward
        functions keep working and infinities cannot turn into NaN.
        """
        return self._cached_vector(
            ("steady-reward", reward), reward, float, mask=self.probabilities > 0.0
        )

    def _cached_vector(self, key, fn, coerce, mask=None) -> np.ndarray:
        cached = self._reward_cache.get(key)
        if cached is not None:
            self._reward_cache.move_to_end(key)
            return cached
        if mask is None:
            iterator = (coerce(fn(marking)) for marking in self.markings)
        else:
            iterator = (
                coerce(fn(marking)) if keep else 0.0
                for marking, keep in zip(self.markings, mask)
            )
        values = np.fromiter(iterator, dtype=float, count=len(self.markings))
        values.setflags(write=False)
        self._reward_cache[key] = values
        if len(self._reward_cache) > _REWARD_CACHE_SIZE:
            self._reward_cache.popitem(last=False)
        return values

    def token_matrix(self) -> np.ndarray:
        """``(markings, places)`` token counts as one array (cached)."""
        if self._token_matrix is None:
            matrix = np.array([marking.tokens for marking in self.markings], dtype=float)
            matrix.setflags(write=False)
            self._token_matrix = matrix
        return self._token_matrix

    def probability_of(self, predicate: Callable[[Marking], bool]) -> float:
        """Total steady-state probability of markings satisfying *predicate*.

        *predicate* results are taken by truth value (matching the
        original loop), so a truthy non-bool return still counts as one
        satisfying marking, not as a weight.
        """
        indicator = self._cached_vector(
            ("indicator", predicate), predicate, lambda value: float(bool(value))
        )
        return float(self.probabilities @ indicator)

    def expected_reward(self, reward: RewardFn) -> float:
        """Expected steady-state reward rate of *reward*.

        Like the legacy loop, the reward is only evaluated on markings
        with positive steady-state probability.
        """
        return float(self.probabilities @ self._steady_reward_vector(reward))

    def expected_reward_loop(self, reward: RewardFn) -> float:
        """Reference per-marking loop implementation of :meth:`expected_reward`."""
        total = 0.0
        for marking, probability in zip(self.markings, self.probabilities):
            if probability > 0.0:
                total += probability * float(reward(marking))
        return total

    def expected_tokens(self, place: str) -> float:
        """Expected steady-state token count in *place*."""
        if not self.markings:
            return 0.0
        places = self.markings[0].places()
        try:
            position = places.index(place)
        except ValueError:
            raise SrnError(f"unknown place {place!r}") from None
        return float(self.probabilities @ self.token_matrix()[:, position])

    def throughput(self, transition_name: str, net: StochasticRewardNet) -> float:
        """Steady-state throughput of a timed transition.

        Computed as ``sum_i pi_i * rate(transition, marking_i)`` over the
        tangible markings where the transition is enabled.
        """
        transition = net.transition(transition_name)
        rates = np.fromiter(
            (
                transition.rate_in(marking)
                if probability > 0.0 and transition.is_enabled(marking)
                else 0.0
                for marking, probability in zip(self.markings, self.probabilities)
            ),
            dtype=float,
            count=len(self.markings),
        )
        return float(self.probabilities @ rates)

    def transient_reward(
        self, reward: RewardFn, times: Sequence[float]
    ) -> np.ndarray:
        """Expected instantaneous reward rate at each time in *times*.

        The initial distribution is the one implied by the net's initial
        marking (mass spread over tangibles if it was vanishing).  The
        chain is uniformised once per solution (the batch solver is
        cached), so repeated curves over different rewards or time grids
        only pay for the shared Poisson pass.
        """
        values = self.reward_vector(reward)
        return self.transient_solver().rewards(
            self.graph.initial_distribution, np.asarray(values), times
        )

    def transient_solver(self) -> BatchTransientSolver:
        """The (cached) batched uniformisation solver over this chain."""
        if self._transient_solver is None:
            self._transient_solver = BatchTransientSolver(self.chain)
        return self._transient_solver


def solve(
    net: StochasticRewardNet,
    initial: Marking | None = None,
    max_markings: int = DEFAULT_MAX_MARKINGS,
) -> SrnSolution:
    """Explore *net*, build its CTMC and solve for the steady state.

    Raises
    ------
    SrnError
        If the net has absorbing tangible markings, which make the
        steady-state question ill-posed for the availability models this
        library targets.
    """
    graph = explore(net, initial=initial, max_markings=max_markings)
    chain = graph.to_ctmc()
    absorbing = chain.absorbing_states()
    if absorbing and chain.number_of_states() > 1:
        raise SrnError(
            f"net has {len(absorbing)} absorbing tangible markings "
            f"(e.g. {absorbing[0]!r}); steady-state analysis is ill-posed"
        )
    probabilities = steady_state(chain)
    return SrnSolution(graph=graph, chain=chain, probabilities=probabilities)


def solve_family(
    nets: Sequence[StochasticRewardNet],
    initial: Marking | None = None,
    max_markings: int = DEFAULT_MAX_MARKINGS,
) -> list[SrnSolution]:
    """Solve structurally identical nets, exploring reachability once.

    The first net's reachability graph is generated normally; every
    other net's transition rates are then re-evaluated directly on the
    stored tangible markings (no re-exploration, no re-hashing of the
    state space), and all steady states are solved in one stacked
    :class:`~repro.ctmc.steady.BatchSteadySolver` call over the union
    transition pattern.

    The nets must share structure: identical place names and initial
    tokens, identical transition names/kinds/arcs — only the *values* of
    rates (marking-dependent ones included) may differ — and have no
    vanishing markings.

    Raises
    ------
    SrnError
        If the family has vanishing markings (solve each net with
        :func:`solve`), or a net's structure diverges from the first
        net's (a firing leaves the shared state space, or a marking
        changes tangible/vanishing class).
    """
    nets = list(nets)
    if not nets:
        return []
    base = nets[0]
    _check_family_signature(base, nets)
    base_graph = explore(base, initial=initial, max_markings=max_markings)
    if base_graph.vanishing_count > 0:
        raise SrnError(
            f"net {base.name!r} has {base_graph.vanishing_count} vanishing "
            "markings; solve_family re-rates tangible markings only, so "
            "solve each net with solve()"
        )

    index = {marking: i for i, marking in enumerate(base_graph.tangible)}
    place_count = len(base.places)
    all_rates: list[dict[tuple[int, int], float]] = [dict(base_graph.rates)]
    for net in nets[1:]:
        all_rates.append(
            _rates_on_graph(net, base_graph.tangible, index, place_count)
        )

    pattern = sorted(
        {key for rates in all_rates for key in rates if key[0] != key[1]}
    )
    n = base_graph.number_of_states
    for net, rates in zip(nets, all_rates):
        # The same guard solve() applies: an absorbing tangible marking
        # makes the steady-state question ill-posed.
        if n > 1:
            have_exit = {src for (src, dst) in rates if src != dst}
            absorbing = [i for i in range(n) if i not in have_exit]
            if absorbing:
                raise SrnError(
                    f"net {net.name!r} has {len(absorbing)} absorbing tangible "
                    f"markings (e.g. {base_graph.tangible[absorbing[0]]!r}); "
                    "steady-state analysis is ill-posed"
                )
    probabilities = BatchSteadySolver(n, pattern).solve(
        [[rates.get(pair, 0.0) for pair in pattern] for rates in all_rates]
    )
    solutions: list[SrnSolution] = []
    for rates, row in zip(all_rates, probabilities):
        graph = replace(base_graph, rates=rates)
        solutions.append(
            SrnSolution(graph=graph, chain=graph.to_ctmc(), probabilities=row)
        )
    return solutions


def family_signature(net: StochasticRewardNet):
    """The transition-pattern signature grouping structurally equal nets.

    Two nets with equal signatures differ at most in their rate/weight
    *values*: places (names and initial tokens), transitions (names,
    kinds, arcs, inhibitors) all match, so they share one reachability
    graph and can be solved through :func:`solve_family`.
    """
    places = tuple((p.name, p.initial_tokens) for p in net.places)
    transitions = tuple(
        (t.name, t.kind, tuple(t.inputs), tuple(t.outputs), tuple(t.inhibitors))
        for t in net.transitions
    )
    return places, transitions


def _check_family_signature(
    base: StochasticRewardNet, nets: Sequence[StochasticRewardNet]
) -> None:
    expected = family_signature(base)
    for net in nets[1:]:
        if family_signature(net) != expected:
            raise SrnError(
                f"net {net.name!r} does not share structure with {base.name!r}; "
                "solve_family needs identical places, transitions and arcs"
            )


def _rates_on_graph(
    net: StochasticRewardNet,
    tangible: Sequence[Marking],
    index: dict[Marking, int],
    place_count: int,
) -> dict[tuple[int, int], float]:
    """Effective rates of *net* over an already-explored tangible set."""
    rates: dict[tuple[int, int], float] = {}
    for i, marking in enumerate(tangible):
        for transition in net.enabled_transitions(marking):
            if transition.kind is TransitionKind.IMMEDIATE:
                raise SrnError(
                    f"marking {marking!r} is vanishing under net {net.name!r} "
                    "but tangible under the family's base net"
                )
            successor = marking.with_delta(transition.firing_delta(place_count))
            j = index.get(successor)
            if j is None:
                raise SrnError(
                    f"net {net.name!r} reaches {successor!r}, which is outside "
                    "the family's shared state space"
                )
            rate = transition.rate_in(marking)
            if rate > 0.0:
                key = (i, j)
                rates[key] = rates.get(key, 0.0) + rate
    return rates
