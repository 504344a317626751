"""Parity tests: vectorized reward evaluation vs the reference loop.

The vectorized path (cached per-marking reward vectors reduced with a
numpy dot product) must reproduce the original per-marking Python loop
to 1e-12 on the paper's server SRN and on randomized small nets, and the
family solver must match independent solves.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.availability.server import build_server_srn, solve_server
from repro.errors import SrnError
from repro.srn import SrnSolution, StochasticRewardNet, solve, solve_family
from tests.oracles.srn import expected_reward_loop

TOLERANCE = 1e-12


def _random_ring_net(rng: random.Random, places: int, tokens: int) -> StochasticRewardNet:
    """A live ring net: tokens circulate with marking-dependent rates."""
    net = StochasticRewardNet("ring")
    names = [f"p{i}" for i in range(places)]
    net.add_place(names[0], tokens=tokens)
    for name in names[1:]:
        net.add_place(name)
    for i, name in enumerate(names):
        rate = rng.uniform(0.1, 5.0)
        net.add_timed_transition(
            f"t{i}", rate=lambda m, _r=rate, _p=name: _r * m[_p]
        )
        net.add_arc(name, f"t{i}")
        net.add_arc(f"t{i}", names[(i + 1) % places])
    return net


@pytest.fixture(scope="module")
def server_solution(case_study, critical_policy):
    """Steady-state solution of the paper's web-server SRN."""
    parameters = case_study.server_parameters("web", critical_policy)
    return solve_server(parameters)


@pytest.fixture(scope="module")
def server_net(case_study, critical_policy):
    parameters = case_study.server_parameters("web", critical_policy)
    return build_server_srn(parameters)


class TestServerSrnParity:
    def test_expected_reward_matches_loop(self, server_solution):
        rewards = [
            lambda m: float(m["Psvcup"]),
            lambda m: float(m["Phwup"] and m["Posup"] and m["Psvcup"]),
            lambda m: sum(m.tokens) ** 2 / 7.0,
            lambda m: float(m["Posrp"] + 2 * m["Psvcrp"]),
        ]
        for reward in rewards:
            vectorized = server_solution.expected_reward(reward)
            loop = expected_reward_loop(server_solution, reward)
            assert abs(vectorized - loop) < TOLERANCE

    def test_probability_of_matches_loop(self, server_solution):
        predicates = [
            lambda m: m["Psvcup"] >= 1,
            lambda m: m["Phwd"] >= 1,
            lambda m: m["Pclock"] + m["Pdue"] >= 1,
        ]
        for predicate in predicates:
            vectorized = server_solution.probability_of(predicate)
            loop = sum(
                probability
                for marking, probability in zip(
                    server_solution.markings, server_solution.probabilities
                )
                if predicate(marking)
            )
            assert abs(vectorized - float(loop)) < TOLERANCE

    def test_expected_tokens_matches_loop(self, server_solution):
        for place in server_solution.markings[0].places():
            vectorized = server_solution.expected_tokens(place)
            loop = expected_reward_loop(server_solution, lambda m: m[place])
            assert abs(vectorized - loop) < TOLERANCE

    def test_throughput_matches_loop(self, server_solution, server_net):
        transition = server_net.transition("Thwd")
        vectorized = server_solution.throughput("Thwd", server_net)
        loop = sum(
            probability * transition.rate_in(marking)
            for marking, probability in zip(
                server_solution.markings, server_solution.probabilities
            )
            if transition.is_enabled(marking)
        )
        assert abs(vectorized - float(loop)) < TOLERANCE

    def test_probability_of_truthy_non_bool_predicate(self, server_solution):
        # A token count is a valid (truthy) predicate result; it must be
        # counted as satisfying, not used as a weight.
        truthy = server_solution.probability_of(lambda m: m["Pclock"])
        boolean = server_solution.probability_of(lambda m: m["Pclock"] >= 1)
        assert abs(truthy - boolean) < TOLERANCE
        assert truthy <= 1.0 + TOLERANCE

    def test_reward_vector_is_cached(self, server_solution):
        reward = lambda m: float(m["Psvcup"])  # noqa: E731
        first = server_solution.reward_vector(reward)
        second = server_solution.reward_vector(reward)
        assert first is second
        assert not first.flags.writeable

    def test_reward_cache_is_bounded(self, server_solution):
        from repro.srn.solver import _REWARD_CACHE_SIZE

        for scale in range(_REWARD_CACHE_SIZE + 10):
            server_solution.expected_reward(lambda m, s=scale: s * m["Psvcup"])
        assert len(server_solution._reward_cache) <= _REWARD_CACHE_SIZE


class TestRandomNetParity:
    def test_random_rings_match_loop(self):
        rng = random.Random(20170629)
        for _ in range(8):
            places = rng.randint(2, 5)
            net = _random_ring_net(rng, places=places, tokens=rng.randint(1, 3))
            solution = solve(net)
            coefficients = [rng.uniform(-2.0, 2.0) for _ in range(places)]
            reward = lambda m, c=coefficients: sum(  # noqa: E731
                weight * count for weight, count in zip(c, m.tokens)
            )
            assert abs(
                solution.expected_reward(reward)
                - expected_reward_loop(solution, reward)
            ) < TOLERANCE
            assert abs(
                solution.probability_of(lambda m: m["p0"] >= 1)
                - expected_reward_loop(solution, lambda m: float(m["p0"] >= 1))
            ) < TOLERANCE

    def test_partial_reward_skips_zero_probability_markings(self):
        # expected_reward must keep the legacy loop's guarantee: the
        # reward function is never evaluated where the probability is 0.
        rng = random.Random(7)
        solution = solve(_random_ring_net(rng, places=3, tokens=2))
        probabilities = solution.probabilities.copy()
        probabilities[0] = 0.0
        probabilities /= probabilities.sum()
        masked = SrnSolution(
            graph=solution.graph,
            chain=solution.chain,
            probabilities=probabilities,
        )
        transient_marking = masked.markings[0]

        def reward(marking):
            assert marking != transient_marking, "evaluated on a transient marking"
            return 1.0

        assert abs(
            masked.expected_reward(reward) - expected_reward_loop(masked, reward)
        ) < TOLERANCE

    def test_solve_family_rejects_absorbing_member(self):
        def make(repair_rate):
            net = StochasticRewardNet("two-state")
            net.add_place("up", tokens=1)
            net.add_place("down")
            net.add_timed_transition("fail", rate=1.0)
            net.add_arc("up", "fail")
            net.add_arc("fail", "down")
            net.add_timed_transition("rep", rate=lambda m, _r=repair_rate: _r)
            net.add_arc("down", "rep")
            net.add_arc("rep", "up")
            return net

        with pytest.raises(SrnError, match="absorbing"):
            solve_family([make(2.0), make(0.0)])

    def test_solve_family_matches_independent_solves(self):
        rng = random.Random(42)
        base_rates = [[rng.uniform(0.2, 4.0) for _ in range(4)] for _ in range(5)]

        def make(rates):
            net = StochasticRewardNet("fam")
            names = [f"p{i}" for i in range(4)]
            net.add_place(names[0], tokens=2)
            for name in names[1:]:
                net.add_place(name)
            for i, name in enumerate(names):
                net.add_timed_transition(
                    f"t{i}", rate=lambda m, _r=rates[i], _p=name: _r * m[_p]
                )
                net.add_arc(name, f"t{i}")
                net.add_arc(f"t{i}", names[(i + 1) % 4])
            return net

        nets = [make(rates) for rates in base_rates]
        family = solve_family(nets)
        independent = [solve(net) for net in nets]
        assert len(family) == len(independent)
        for fam, solo in zip(family, independent):
            assert fam.markings == solo.markings
            assert np.max(np.abs(fam.probabilities - solo.probabilities)) < 1e-10
            reward = lambda m: float(m["p0"])  # noqa: E731
            assert abs(
                fam.expected_reward(reward) - expected_reward_loop(solo, reward)
            ) < TOLERANCE
