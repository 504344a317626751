"""Vanishing-marking elimination at scale, on both of its paths.

:func:`repro.srn.explore` eliminates an acyclic vanishing graph by
back-substitution, successors first, and factors a cyclic ``I - P_vv``
once (SuperLU), solving ``P_vt`` against that factor in dense blocks of
``_SOLVE_CHUNK`` columns so the work array is ``n_v x _SOLVE_CHUNK``
floats.  Either way the solution stays sparse.  This bench times
``explore`` on the paper's four server SRNs (56 tangible and 25
vanishing markings each, acyclic: the lower layer every fresh engine
solves) and on two two-pool nets of 2,116 tangible markings: an acyclic
one with 4,140 vanishing markings (``large``) and one with retry cycles
and 8,280 (``cyclic``), which takes the factor.  It asserts each large
net finishes in under 10 s and peaks under 100 MB of traced
allocations, which a dense solve cannot meet: the acyclic net's
``n_v x n_v`` system alone is 137 MB.  Emits one BENCH JSON line.
"""

from __future__ import annotations

import json
import time
import tracemalloc

from repro.availability.parameters import paper_server_parameters
from repro.availability.server import build_server_srn
from repro.srn import StochasticRewardNet, explore

LARGE_POOL = 45
TIME_BOUND_S = 10.0
PEAK_BOUND_MB = 100.0


def _two_pool_net(n, retry=False):
    """Two pools of *n* tokens whose failures pass through vanishing markings.

    A failed token lands in its pool's ``mid`` place, from which it
    settles (weight 1) or knocks a token of the other pool into that
    pool's ``mid`` place (weight 2), so chains of vanishing markings
    form.  (n+1)^2 tangible and 2n(n+1) vanishing markings, and an
    acyclic vanishing graph.  With *retry*, a token in ``mid`` may also
    move to a ``wait`` place (weight 1), from which it returns to
    ``mid`` or settles (weight 1 each): 4n(n+1) vanishing markings, each
    on a cycle with an exit.
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


def _timed_explore(net):
    """``(graph, seconds, traced peak MB)`` of exploring *net*.

    The peak comes from a second run under tracemalloc, which slows it
    several-fold, so it is not the timed run.
    """
    start = time.perf_counter()
    graph = explore(net)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        explore(net)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return graph, seconds, peak_mb


def test_vanishing_elimination():
    servers = [build_server_srn(p) for p in paper_server_parameters().values()]
    start = time.perf_counter()
    for net in servers:
        graph = explore(net)
        assert (graph.number_of_states, graph.vanishing_count) == (56, 25)
    servers_s = time.perf_counter() - start

    large, large_s, large_peak_mb = _timed_explore(_two_pool_net(LARGE_POOL))
    assert (large.number_of_states, large.vanishing_count) == (2116, 4140)
    # The factor path imports scipy on first use; keep that out of cyclic_s.
    explore(_two_pool_net(1, retry=True))
    cyclic, cyclic_s, cyclic_peak_mb = _timed_explore(
        _two_pool_net(LARGE_POOL, retry=True)
    )
    assert (cyclic.number_of_states, cyclic.vanishing_count) == (2116, 8280)

    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "vanishing_elimination",
                "server_nets": len(servers),
                "server_nets_ms": round(1e3 * servers_s, 2),
                "large_tangible": large.number_of_states,
                "large_vanishing": large.vanishing_count,
                "large_s": round(large_s, 3),
                "large_peak_mb": round(large_peak_mb, 1),
                "cyclic_tangible": cyclic.number_of_states,
                "cyclic_vanishing": cyclic.vanishing_count,
                "cyclic_s": round(cyclic_s, 3),
                "cyclic_peak_mb": round(cyclic_peak_mb, 1),
            }
        )
    )
    for label, seconds, peak_mb in (
        ("4,140 acyclic", large_s, large_peak_mb),
        ("8,280 cyclic", cyclic_s, cyclic_peak_mb),
    ):
        assert seconds < TIME_BOUND_S, f"{seconds:.2f} s for {label} vanishing markings"
        assert peak_mb < PEAK_BOUND_MB, f"{peak_mb:.1f} MB traced peak ({label})"
