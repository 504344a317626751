"""Tentpole bench: the resident warm-pool evaluation service.

Every CLI sweep pays the full start-up bill: engine construction, the
lower-layer aggregate solves and (for the process executor) spawning
and priming a fresh worker pool — then throws all of it away.  The
warm path (``repro serve`` / a long-lived :class:`SweepEngine`) keeps
the pool, the primed workers and the caches resident, so a repeated
sweep costs only the dispatch.

Assertions on the paper's 27-design space (dns/web/app x 1..3):

* **speedup** — re-sweeping through one warm engine (warm pool,
  result memo cleared between repeats so every design is genuinely
  re-dispatched) is >= 3x faster than the cold per-call path (a fresh
  ``repro sweep`` process per repeat), measured min-over-trials;
* **byte-identity** — warm results equal the cold results bit for bit,
  repeat after repeat, including after a pool recycle;
* **resilience** — SIGKILLing a warm worker between repeats costs one
  pool recycle, not a failed sweep, and the retried results are
  byte-identical too.
"""

from __future__ import annotations

import json
import os
import signal
import time

from repro.evaluation.engine import SweepEngine
from repro.evaluation.sweep import enumerate_designs

ROLES = ("dns", "web", "app")
MAX_REPLICAS = 3
TRIALS = 5

#: Reduced grid for the <60s CI smoke.
SMOKE_ROLES = ("dns", "web")
SMOKE_REPLICAS = 2


def _space():
    return list(enumerate_designs(ROLES, max_replicas=MAX_REPLICAS))


def _assert_identical(reference, results):
    assert len(reference) == len(results)
    for a, b in zip(reference, results):
        assert a.design == b.design
        assert a.before == b.before
        assert a.after == b.after
        assert a.after.coa.hex() == b.after.coa.hex()
        assert a.before.coa.hex() == b.before.coa.hex()


COLD_TRIALS = 3


def test_warm_pool_speedup():
    """Warm served sweeps >= 3x the cold per-call CLI, byte-identically."""
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.evaluation.service import EvaluationService

    designs = _space()
    assert len(designs) == 27  # the acceptance space
    arguments = [
        "--roles",
        ",".join(ROLES),
        "--max-replicas",
        str(MAX_REPLICAS),
        "--executor",
        "process",
        "--jobs",
        "2",
        "--json",
    ]
    env = dict(
        os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])
    )

    # Cold: what every per-call invocation pays — interpreter, imports,
    # case-study precompute, pool spawn, worker priming — all discarded.
    cold_s, cold_payload = float("inf"), None
    for _ in range(COLD_TRIALS):
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", *arguments],
            env=env,
            capture_output=True,
            check=True,
        )
        cold_s = min(cold_s, time.perf_counter() - start)
        cold_payload = json.loads(completed.stdout)

    # Warm: the resident service — warm pool, primed workers.  The
    # engine memo and the service's response memory are cleared between
    # repeats, so every repeat genuinely re-dispatches all 27 designs
    # through the warm pool.
    service = EvaluationService(
        executor="process", max_workers=2, max_designs=64
    )
    client = service.start_in_thread()
    try:
        request = {"roles": list(ROLES), "max_replicas": MAX_REPLICAS}
        warm_payload = client.sweep(**request)  # priming call
        assert warm_payload == cold_payload  # byte-identical JSON payloads
        warm_s = float("inf")
        for _ in range(TRIALS):
            service.engine.clear_cache()
            service._responses.clear()
            start = time.perf_counter()
            warm_payload = client.sweep(**request)
            warm_s = min(warm_s, time.perf_counter() - start)
        assert warm_payload == cold_payload

        # Resilience: a killed warm worker costs one pool recycle, not
        # a failed request — and the retried sweep stays identical.
        pool = service.engine.executor._pool
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        # Wait (bounded) until the pool notices the dead worker, so the
        # next sweep cannot finish on the survivor without a recycle.
        noticed = time.monotonic() + 10.0
        while not pool._broken and time.monotonic() < noticed:
            time.sleep(0.01)
        service.engine.clear_cache()
        service._responses.clear()
        recycled_payload = client.sweep(**request)
        assert recycled_payload == cold_payload
        assert client.healthz()["engine"]["pool_recycles"] == 1
    finally:
        service.close()

    speedup = cold_s / warm_s
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "service_warm_pool",
                "designs": len(designs),
                "cold_s": round(cold_s, 4),
                "warm_s": round(warm_s, 4),
                "speedup": round(speedup, 1),
                "pool_recycles": 1,
            }
        )
    )
    assert speedup >= 3.0, f"warm service only {speedup:.1f}x faster"


CONTENTION_TRIALS = 3

#: Batch workload for the lane-contention cell: one scaled design whose
#: evaluation (one chunk, so one lane can only yield after it) must
#: dominate a ~6-10 ms warm 27-design interactive request that gets
#: stuck behind it.  Since the lower layer solves each distinct stack
#: once, 6x4 takes ~11 ms and no longer does; the 400 tiers of 3x400
#: take ~45 ms plus the per-context engine build on the lane thread.
CONTENTION_SCALED = "3x400"


def _contended_interactive_latency(lanes):
    """Min-over-trials latency of an interactive 27-design sweep while a
    batch ``--scaled`` sweep holds an engine lane; returns the latency
    and the final interactive payload for cross-cell parity."""
    import threading

    from repro.evaluation.service import EvaluationService

    best, payload = float("inf"), None
    with EvaluationService(
        executor="serial", max_designs=64, lanes=lanes
    ) as service:
        client = service.start_in_thread()
        for _ in range(CONTENTION_TRIALS):
            service.engine.clear_cache()
            service._responses.clear()
            done = threading.Event()

            def run_batch():
                client.sweep(scaled=CONTENTION_SCALED, priority="batch")
                done.set()

            batch = threading.Thread(target=run_batch)
            batch.start()
            # Only start the clock once the batch occupies its lane.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not done.is_set():
                lane_info = client.healthz()["lanes"]["lanes"]
                if any(
                    lane["context"] != "default" and lane["busy"]
                    for lane in lane_info
                ):
                    break
                time.sleep(0.002)
            start = time.perf_counter()
            payload = client.sweep(roles=list(ROLES), max_replicas=MAX_REPLICAS)
            best = min(best, time.perf_counter() - start)
            batch.join(timeout=180)
    return best, payload


def test_two_lane_contention():
    """One lane parks the interactive request behind the whole batch
    sweep; a second lane gives it its own warm engine.  Asserts >= 2x
    interactive latency improvement, with byte-identical payloads."""
    single_lane_s, single_payload = _contended_interactive_latency(1)
    two_lane_s, two_payload = _contended_interactive_latency(2)
    assert single_payload == two_payload  # lane pooling never changes results
    assert single_payload["design_count"] == 27
    speedup = single_lane_s / two_lane_s
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "service_two_lane_contention",
                "designs": 27,
                "single_lane_interactive_s": round(single_lane_s, 4),
                "two_lane_interactive_s": round(two_lane_s, 4),
                "speedup": round(speedup, 1),
            }
        )
    )
    assert speedup >= 2.0, f"two lanes only {speedup:.1f}x faster"


def test_service_smoke_parity(case_study, critical_policy):
    """CI smoke: one served request equals the direct engine, bit for bit
    (reduced grid, serial executor — no pool spawn in CI)."""
    from repro.evaluation.service import EvaluationService, sweep_response

    designs = list(
        enumerate_designs(SMOKE_ROLES, max_replicas=SMOKE_REPLICAS)
    )
    expected = sweep_response(
        list(SMOKE_ROLES),
        SMOKE_REPLICAS,
        None,
        False,
        "serial",
        SweepEngine(
            case_study=case_study, policy=critical_policy
        ).evaluate(designs),
    )
    service = EvaluationService(executor="serial")
    client = service.start_in_thread()
    try:
        # Counters are process-wide (registry families): compare deltas.
        computed = client.healthz()["counters"]["computed"]
        served = client.sweep(
            roles=list(SMOKE_ROLES), max_replicas=SMOKE_REPLICAS
        )
        assert served == json.loads(json.dumps(expected))
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["counters"]["computed"] == computed + 1
    finally:
        service.close()
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "service_smoke_parity",
                "designs": len(designs),
                "parity": "byte-identical",
            }
        )
    )
