"""Tests for reachability generation and vanishing-marking elimination."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.availability.parameters import paper_server_parameters
from repro.availability.server import build_server_srn
from repro.errors import SrnError, StateSpaceError
from repro.srn import StochasticRewardNet, explore, reachability
from tests.properties.test_srn_properties import cyclic_nets


def updown_net():
    net = StochasticRewardNet()
    net.add_place("up", tokens=1)
    net.add_place("down")
    net.add_timed_transition("fail", rate=2.0)
    net.add_arc("up", "fail")
    net.add_arc("fail", "down")
    net.add_timed_transition("repair", rate=8.0)
    net.add_arc("down", "repair")
    net.add_arc("repair", "up")
    return net


class TestTangibleOnly:
    def test_two_states(self):
        graph = explore(updown_net())
        assert graph.number_of_states == 2
        assert graph.vanishing_count == 0

    def test_rates_preserved(self):
        graph = explore(updown_net())
        chain = graph.to_ctmc()
        up = next(m for m in graph.tangible if m["up"] == 1)
        down = next(m for m in graph.tangible if m["down"] == 1)
        assert chain.rate(up, down) == 2.0
        assert chain.rate(down, up) == 8.0

    def test_initial_distribution_on_tangible_start(self):
        graph = explore(updown_net())
        assert graph.initial_distribution[0] == 1.0

    def test_token_counting_birth_death(self):
        net = StochasticRewardNet()
        net.add_place("up", tokens=3)
        net.add_place("down")
        net.add_timed_transition("fail", rate=lambda m: 1.0 * m["up"])
        net.add_arc("up", "fail")
        net.add_arc("fail", "down")
        net.add_timed_transition("repair", rate=lambda m: 2.0 * m["down"])
        net.add_arc("down", "repair")
        net.add_arc("repair", "up")
        graph = explore(net)
        assert graph.number_of_states == 4  # up in {0,1,2,3}

    def test_max_markings_enforced(self):
        net = updown_net()
        with pytest.raises(StateSpaceError):
            explore(net, max_markings=1)


class TestVanishingElimination:
    def test_weighted_branch(self):
        """a --1.0--> b; b branches 3:1 to c and d (immediate)."""
        net = StochasticRewardNet()
        for name in ("a", "b", "c", "d"):
            net.add_place(name, tokens=1 if name == "a" else 0)
        net.add_timed_transition("t", rate=1.0)
        net.add_arc("a", "t")
        net.add_arc("t", "b")
        net.add_immediate_transition("i1", weight=3.0)
        net.add_arc("b", "i1")
        net.add_arc("i1", "c")
        net.add_immediate_transition("i2", weight=1.0)
        net.add_arc("b", "i2")
        net.add_arc("i2", "d")
        net.add_timed_transition("back1", rate=1.0)
        net.add_arc("c", "back1")
        net.add_arc("back1", "a")
        net.add_timed_transition("back2", rate=1.0)
        net.add_arc("d", "back2")
        net.add_arc("back2", "a")

        graph = explore(net)
        assert graph.vanishing_count == 1
        chain = graph.to_ctmc()
        a = next(m for m in graph.tangible if m["a"] == 1)
        c = next(m for m in graph.tangible if m["c"] == 1)
        d = next(m for m in graph.tangible if m["d"] == 1)
        assert chain.rate(a, c) == pytest.approx(0.75)
        assert chain.rate(a, d) == pytest.approx(0.25)

    def test_immediate_chain(self):
        """Two immediates in sequence collapse into one effective rate."""
        net = StochasticRewardNet()
        for name, tokens in (("a", 1), ("b", 0), ("c", 0), ("d", 0)):
            net.add_place(name, tokens=tokens)
        net.add_timed_transition("t", rate=5.0)
        net.add_arc("a", "t")
        net.add_arc("t", "b")
        net.add_immediate_transition("i1")
        net.add_arc("b", "i1")
        net.add_arc("i1", "c")
        net.add_immediate_transition("i2")
        net.add_arc("c", "i2")
        net.add_arc("i2", "d")
        net.add_timed_transition("back", rate=1.0)
        net.add_arc("d", "back")
        net.add_arc("back", "a")
        graph = explore(net)
        assert graph.vanishing_count == 2
        chain = graph.to_ctmc()
        a = next(m for m in graph.tangible if m["a"] == 1)
        d = next(m for m in graph.tangible if m["d"] == 1)
        assert chain.rate(a, d) == pytest.approx(5.0)

    def test_vanishing_cycle_with_exit(self):
        """Immediate cycle b <-> c with a weighted exit still resolves."""
        net = StochasticRewardNet()
        for name, tokens in (("a", 1), ("b", 0), ("c", 0), ("d", 0)):
            net.add_place(name, tokens=tokens)
        net.add_timed_transition("t", rate=2.0)
        net.add_arc("a", "t")
        net.add_arc("t", "b")
        # b -> c (weight 1); c -> b (weight 1) and c -> d (weight 1)
        net.add_immediate_transition("bc", weight=1.0)
        net.add_arc("b", "bc")
        net.add_arc("bc", "c")
        net.add_immediate_transition("cb", weight=1.0)
        net.add_arc("c", "cb")
        net.add_arc("cb", "b")
        net.add_immediate_transition("cd", weight=1.0)
        net.add_arc("c", "cd")
        net.add_arc("cd", "d")
        net.add_timed_transition("back", rate=1.0)
        net.add_arc("d", "back")
        net.add_arc("back", "a")
        graph = explore(net)
        chain = graph.to_ctmc()
        a = next(m for m in graph.tangible if m["a"] == 1)
        d = next(m for m in graph.tangible if m["d"] == 1)
        # the cycle always eventually exits to d, so the full rate arrives
        assert chain.rate(a, d) == pytest.approx(2.0)

    def test_timeless_trap_detected(self):
        """An immediate cycle with no exit must raise.

        The two-marking cycle makes ``I - P_vv`` exactly singular.  The
        three-marking one branches 1:2, so its probabilities (1/3, 2/3)
        are not exact in floating point and the factor need not be
        singular: the row-sum check must catch it instead.
        """
        two = [("b", "c", 1.0), ("c", "b", 1.0)]
        three = [("b", "c", 1.0), ("c", "b", 1.0), ("c", "d", 2.0), ("d", "b", 1.0)]
        for cycle in (two, three):
            net = StochasticRewardNet()
            net.add_place("a", tokens=1)
            for place in sorted({name for arc in cycle for name in arc[:2]}):
                net.add_place(place)
            net.add_timed_transition("t", rate=1.0)
            net.add_arc("a", "t")
            net.add_arc("t", "b")
            for src, dst, weight in cycle:
                net.add_immediate_transition(src + dst, weight=weight)
                net.add_arc(src, src + dst)
                net.add_arc(src + dst, dst)
            with pytest.raises(SrnError, match="timeless trap"):
                explore(net)

    def test_vanishing_initial_marking(self):
        """An immediate enabled at t=0 spreads the initial distribution."""
        net = StochasticRewardNet()
        for name, tokens in (("start", 1), ("left", 0), ("right", 0)):
            net.add_place(name, tokens=tokens)
        net.add_immediate_transition("go_left", weight=1.0)
        net.add_arc("start", "go_left")
        net.add_arc("go_left", "left")
        net.add_immediate_transition("go_right", weight=3.0)
        net.add_arc("start", "go_right")
        net.add_arc("go_right", "right")
        net.add_timed_transition("swap1", rate=1.0)
        net.add_arc("left", "swap1")
        net.add_arc("swap1", "right")
        net.add_timed_transition("swap2", rate=1.0)
        net.add_arc("right", "swap2")
        net.add_arc("swap2", "left")
        graph = explore(net)
        assert graph.initial_distribution == pytest.approx([0.25, 0.75])


class TestSparseGenerator:
    """``ReachabilityGraph.generator()`` builds the CSR generator
    directly from the rate table; it must be exactly the matrix the
    ``to_ctmc()`` round-trip produces."""

    def _parity(self, net):
        import numpy as np

        graph = explore(net)
        direct = graph.generator().toarray()
        via_chain = graph.to_ctmc().generator().toarray()
        assert np.array_equal(direct, via_chain)

    def test_updown_parity(self):
        self._parity(updown_net())

    def test_birth_death_parity(self):
        net = StochasticRewardNet()
        net.add_place("up", tokens=4)
        net.add_place("down")
        net.add_timed_transition("fail", rate=lambda m: 0.7 * m["up"])
        net.add_arc("up", "fail")
        net.add_arc("fail", "down")
        net.add_timed_transition("repair", rate=lambda m: 1.9 * m["down"])
        net.add_arc("down", "repair")
        net.add_arc("repair", "up")
        self._parity(net)

    def test_generator_rows_sum_to_zero(self):
        import numpy as np

        graph = explore(updown_net())
        q = graph.generator()
        rows = np.asarray(q.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 0.0, atol=0.0)


def _two_pool_net(n, retry=False):
    """Two pools of *n* tokens whose failures pass through vanishing markings.

    A failed token lands in its pool's ``mid`` place, from which it
    settles (weight 1) or knocks a token of the other pool into that
    pool's ``mid`` place (weight 2), so chains of vanishing markings
    form.  (n+1)^2 tangible and 2n(n+1) vanishing markings, and an
    acyclic vanishing graph.  With *retry*, a token in ``mid`` may also
    move to a ``wait`` place (weight 1), from which it returns to
    ``mid`` or settles (weight 1 each): every vanishing marking then
    lies on a cycle with an exit.
    """
    net = StochasticRewardNet(f"two-pool-{n}")
    pools = (("x", "y", 1.0), ("y", "x", 1.5))
    for pool, _, _ in pools:
        net.add_place(f"{pool}_up", tokens=n)
        net.add_place(f"{pool}_down")
        net.add_place(f"{pool}_mid")
        if retry:
            net.add_place(f"{pool}_wait")
    for pool, other, rate in pools:
        up, down, mid = f"{pool}_up", f"{pool}_down", f"{pool}_mid"
        net.add_timed_transition(
            f"{pool}_fail", rate=lambda m, up=up, r=rate: r * m[up]
        )
        net.add_arc(up, f"{pool}_fail")
        net.add_arc(f"{pool}_fail", mid)
        net.add_timed_transition(
            f"{pool}_repair", rate=lambda m, down=down: 3.0 * m[down]
        )
        net.add_arc(down, f"{pool}_repair")
        net.add_arc(f"{pool}_repair", up)
        net.add_immediate_transition(f"{pool}_settle", weight=1.0)
        net.add_arc(mid, f"{pool}_settle")
        net.add_arc(f"{pool}_settle", down)
        net.add_immediate_transition(f"{pool}_pass", weight=2.0)
        net.add_arc(mid, f"{pool}_pass")
        net.add_arc(f"{other}_up", f"{pool}_pass")
        net.add_arc(f"{pool}_pass", down)
        net.add_arc(f"{pool}_pass", f"{other}_mid")
        if retry:
            wait = f"{pool}_wait"
            for name, src, dst in (
                ("hold", mid, wait), ("retry", wait, mid), ("drop", wait, down)
            ):
                net.add_immediate_transition(f"{pool}_{name}", weight=1.0)
                net.add_arc(src, f"{pool}_{name}")
                net.add_arc(f"{pool}_{name}", dst)
    return net


def _explore_capturing(net):
    """``explore(net)`` and the ``(markings, is_vanishing, edges)`` it eliminated."""
    captured = []
    eliminate = reachability._eliminate_vanishing

    def capture(*args):
        captured.append(args)
        return eliminate(*args)

    with mock.patch.object(reachability, "_eliminate_vanishing", capture):
        graph = explore(net)
    return graph, captured[0]


def _dense_elimination(markings, is_vanishing, edges):
    """Dense reference elimination: ``np.linalg.solve`` on ``I - P_vv``.

    Returns ``(rates, initial_distribution)`` built by the same walk as
    :func:`repro.srn.reachability.explore`.
    """
    tangible = [i for i, vanishing in enumerate(is_vanishing) if not vanishing]
    vanishing = [i for i, vanishing in enumerate(is_vanishing) if vanishing]
    position = {orig: k for k, orig in enumerate(tangible)}
    position.update({orig: k for k, orig in enumerate(vanishing)})
    p_vv = np.zeros((len(vanishing), len(vanishing)))
    p_vt = np.zeros((len(vanishing), len(tangible)))
    for orig in vanishing:
        total = sum(weight for _, weight in edges[orig])
        for dst, weight in edges[orig]:
            target = p_vv if is_vanishing[dst] else p_vt
            target[position[orig], position[dst]] += weight / total
    y = np.linalg.solve(np.eye(len(vanishing)) - p_vv, p_vt)
    rates = {}
    for orig in tangible:
        i = position[orig]
        for dst, rate in edges[orig]:
            if is_vanishing[dst]:
                row = y[position[dst]]
                for j in np.flatnonzero(row):
                    split = rate * row[j]
                    if split > 0.0:
                        rates[i, int(j)] = rates.get((i, int(j)), 0.0) + split
            else:
                key = (i, position[dst])
                rates[key] = rates.get(key, 0.0) + rate
    initial = np.zeros(len(tangible))
    if is_vanishing[0]:
        initial[:] = y[position[0]]
    else:
        initial[position[0]] = 1.0
    return rates, initial


def _assert_matches_dense_oracle(net):
    graph, inputs = _explore_capturing(net)
    rates, initial = _dense_elimination(*inputs)
    assert list(graph.rates.items()) == list(rates.items())
    assert np.array_equal(graph.initial_distribution, initial)


class TestEliminationOracle:
    """The one sparse factor and blocked solve against a dense solve."""

    @pytest.mark.parametrize("hardware", [True, False])
    @pytest.mark.parametrize("software", [True, False])
    def test_server_nets_match_dense_solve(self, hardware, software):
        for parameters in paper_server_parameters().values():
            net = build_server_srn(
                parameters,
                hardware_can_fail_during_patch=hardware,
                software_can_fail_during_patch=software,
            )
            _assert_matches_dense_oracle(net)

    @given(cyclic_nets())
    @settings(max_examples=200, deadline=None)
    def test_cyclic_nets_match_dense_solve(self, net):
        _assert_matches_dense_oracle(net)

    def test_block_width_does_not_change_rates(self, monkeypatch):
        # Retry cycles keep this net on the factor path, the only one
        # that solves in blocks.
        net = _two_pool_net(30, retry=True)
        factor_solve = reachability._factor_solve
        factored = []
        monkeypatch.setattr(
            reachability,
            "_factor_solve",
            lambda *args: factored.append(args) or factor_solve(*args),
        )
        graphs = []
        for chunk in (1, 7, reachability._SOLVE_CHUNK):
            monkeypatch.setattr(reachability, "_SOLVE_CHUNK", chunk)
            graphs.append(explore(net))
        assert len(factored) == 3
        assert graphs[0].number_of_states == 961 > reachability._SOLVE_CHUNK
        assert graphs[0].vanishing_count == 3720
        for graph in graphs[1:]:
            assert list(graph.rates.items()) == list(graphs[0].rates.items())

    def test_factor_matches_back_substitution(self, monkeypatch):
        """On acyclic nets the sparse factor gives the back-substitution's
        graph bit for bit, so either path may eliminate them."""
        nets = [
            build_server_srn(parameters)
            for parameters in paper_server_parameters().values()
        ] + [_two_pool_net(n) for n in (1, 5, 20)]
        substituted = [explore(net) for net in nets]
        monkeypatch.setattr(reachability, "_successors_first", lambda *args: None)
        for net, expected in zip(nets, substituted):
            graph = explore(net)
            assert list(graph.rates.items()) == list(expected.rates.items())
            for name in ("term_edges", "term_keys", "term_probabilities"):
                assert np.array_equal(getattr(graph, name), getattr(expected, name))
            assert np.array_equal(
                graph.initial_distribution, expected.initial_distribution
            )

    def test_acyclic_nets_skip_the_factor(self, monkeypatch):
        monkeypatch.setattr(
            reachability,
            "_factor_solve",
            mock.Mock(side_effect=AssertionError("factored an acyclic net")),
        )
        graph = explore(_two_pool_net(30))
        assert (graph.number_of_states, graph.vanishing_count) == (961, 1860)
