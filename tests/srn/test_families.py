"""Tests for signature-keyed family solving (solve_family per group)."""

from __future__ import annotations

import pytest

from repro.errors import SrnError
from repro.srn import StochasticRewardNet, family_signature, solve, solve_family
from repro.srn.reachability import exploration_count


def _birth_death_net(name: str, tokens: int, up_rate: float, down_rate: float):
    net = StochasticRewardNet(name)
    net.add_place("Pup", tokens=tokens)
    net.add_place("Pdown")

    def down(m, _r=down_rate):
        return _r * m["Pup"]

    def up(m, _r=up_rate):
        return _r * m["Pdown"]

    net.add_timed_transition("Td", rate=down)
    net.add_arc("Pup", "Td")
    net.add_arc("Td", "Pdown")
    net.add_timed_transition("Tu", rate=up)
    net.add_arc("Pdown", "Tu")
    net.add_arc("Tu", "Pup")
    return net


class TestFamilySignature:
    def test_rate_values_do_not_affect_signature(self):
        a = _birth_death_net("a", 2, 1.0, 3.0)
        b = _birth_death_net("b", 2, 9.0, 0.5)
        assert family_signature(a) == family_signature(b)

    def test_token_counts_affect_signature(self):
        a = _birth_death_net("a", 2, 1.0, 3.0)
        b = _birth_death_net("b", 3, 1.0, 3.0)
        assert family_signature(a) != family_signature(b)


def _by_signature(nets):
    """*nets* grouped by :func:`family_signature`, in first-seen order."""
    groups: dict = {}
    for net in nets:
        groups.setdefault(family_signature(net), []).append(net)
    return list(groups.values())


class TestSolveFamilies:
    def test_bitwise_equal_to_per_net_solve(self):
        nets = [
            _birth_death_net("a", 2, 1.0, 3.0),
            _birth_death_net("b", 3, 2.0, 5.0),
            _birth_death_net("c", 2, 7.0, 0.25),
            _birth_death_net("d", 3, 0.1, 11.0),
        ]
        for members in _by_signature(nets):
            for net, solution in zip(members, solve_family(members)):
                reference = solve(net)
                assert (
                    solution.probabilities.tobytes()
                    == reference.probabilities.tobytes()
                )
                assert solution.markings == reference.markings

    def test_one_exploration_per_family(self):
        nets = [
            _birth_death_net(f"n{i}", tokens, 1.0 + i, 2.0 + i)
            for i, tokens in enumerate([2, 3, 2, 3, 2])
        ]
        before = exploration_count()
        for members in _by_signature(nets):
            solve_family(members)
        assert exploration_count() - before == 2  # two distinct signatures

    def test_results_in_input_order(self):
        # Pup's mean is tokens * up / (up + down) per net, in input order.
        nets = [
            _birth_death_net("a", 3, 1.0, 1.0),
            _birth_death_net("b", 3, 3.0, 1.0),
            _birth_death_net("c", 3, 1.0, 3.0),
        ]
        solutions = solve_family(nets)
        assert [s.expected_tokens("Pup") for s in solutions] == pytest.approx(
            [1.5, 2.25, 0.75]
        )

    def test_empty_population(self):
        assert solve_family([]) == []

    def test_vanishing_family_rejected(self):
        # Re-rating tangible markings cannot see immediate transitions:
        # a family with vanishing markings is refused and pointed at
        # solve().
        net = StochasticRewardNet("vanishing")
        net.add_place("Pa", tokens=1)
        net.add_place("Pb")
        net.add_place("Pc")
        net.add_timed_transition("Tab", rate=1.0)
        net.add_arc("Pa", "Tab")
        net.add_arc("Tab", "Pb")
        net.add_immediate_transition("Tbc")
        net.add_arc("Pb", "Tbc")
        net.add_arc("Tbc", "Pc")
        net.add_timed_transition("Tca", rate=2.0)
        net.add_arc("Pc", "Tca")
        net.add_arc("Tca", "Pa")
        assert solve(net).graph.vanishing_count == 1
        with pytest.raises(SrnError, match=r"solve\(\)"):
            solve_family([net])

    def test_absorbing_member_rejected(self):
        # A zero up-rate makes the all-down marking absorbing.
        nets = [
            _birth_death_net("ok", 2, 1.0, 1.0),
            _birth_death_net("absorbing", 2, 0.0, 1.0),
        ]
        with pytest.raises(SrnError):
            solve_family(nets)
