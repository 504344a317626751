"""Vanishing-marking elimination: one sparse factor, blocked solves.

:func:`repro.srn.explore` eliminates vanishing markings by factoring
``I - P_vv`` once (SuperLU) and solving ``P_vt`` against that factor in
dense blocks of ``_SOLVE_CHUNK`` columns, so its work array is
``n_v x _SOLVE_CHUNK`` floats and the solution stays sparse.  This bench
times ``explore`` on the paper's four server SRNs (56 tangible and 25
vanishing markings each: the lower layer every fresh engine solves) and
on a two-pool net with 2,116 tangible and 4,140 vanishing markings.  It
asserts the large net finishes in under 10 s and peaks under 100 MB of
traced allocations, which a dense solve cannot meet: its ``n_v x n_v``
system alone is 137 MB there.  Emits one BENCH JSON line.
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


def _two_pool_net(n):
    """Two pools of *n* tokens whose failures pass through vanishing markings.

    A failed token lands in its pool's ``mid`` place, from which it
    settles (weight 1) or knocks a token of the other pool into that
    pool's ``mid`` place (weight 2), so chains of vanishing markings
    form.  (n+1)^2 tangible and 2n(n+1) vanishing markings.
    """
    net = StochasticRewardNet(f"two-pool-{n}")
    pools = (("x", "y", 1.0), ("y", "x", 1.5))
    for pool, _, _ in pools:
        net.add_place(f"{pool}_up", tokens=n)
        net.add_place(f"{pool}_down")
        net.add_place(f"{pool}_mid")
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
    return net


def test_vanishing_elimination():
    servers = [build_server_srn(p) for p in paper_server_parameters().values()]
    start = time.perf_counter()
    for net in servers:
        graph = explore(net)
        assert (graph.number_of_states, graph.vanishing_count) == (56, 25)
    servers_s = time.perf_counter() - start

    large = _two_pool_net(LARGE_POOL)
    start = time.perf_counter()
    graph = explore(large)
    large_s = time.perf_counter() - start
    assert (graph.number_of_states, graph.vanishing_count) == (2116, 4140)

    # A second run under tracemalloc for the peak (tracing slows it
    # several-fold, so it is not the timed run).
    tracemalloc.start()
    try:
        explore(large)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "vanishing_elimination",
                "server_nets": len(servers),
                "server_nets_ms": round(1e3 * servers_s, 2),
                "large_tangible": graph.number_of_states,
                "large_vanishing": graph.vanishing_count,
                "large_s": round(large_s, 3),
                "large_peak_mb": round(peak_mb, 1),
            }
        )
    )
    assert large_s < TIME_BOUND_S, f"{large_s:.2f} s for 4,140 vanishing markings"
    assert peak_mb < PEAK_BOUND_MB, f"{peak_mb:.1f} MB traced peak"
