"""Chaos drill: a design-space sweep that survives a locked cache.

Arms a deterministic fault plan — a sqlite cache that reports "database
is locked" on every retry attempt of its first write — then runs the
same sweep twice, clean and faulted, and verifies three things:

1. the faulted run *succeeds* (the cache retries, then degrades to
   memory-only instead of failing the sweep);
2. its results are identical to the clean run's, metric for metric;
3. the recovery path really ran, visible in the process metrics
   registry (``repro_cache_degraded``, ``repro_faults_injected_total``).

The same drill runs from the shell via ``REPRO_FAULTS`` (see the CI
chaos-smoke job)::

    REPRO_FAULTS="cache.write:error@1;cache.write:error@2;cache.write:error@3" \
        python -m repro sweep --cache c.sqlite --metrics metrics.json

Usage::

    python examples/chaos_sweep.py
"""

from __future__ import annotations

import os
import tempfile

from repro import observability
from repro.evaluation.engine import SweepEngine
from repro.evaluation.sweep import enumerate_designs
from repro.resilience import RetryPolicy
from repro.resilience import faults


def metric_value(snapshot: dict, family: str) -> float:
    """Sum of all series of *family* in a registry snapshot."""
    series = snapshot.get(family, {}).get("series", [])
    return sum(entry.get("value", 0.0) for entry in series)


def main() -> None:
    roles = ["dns", "web", "app", "db"]
    designs = list(enumerate_designs(roles, max_replicas=2))
    print(f"design space: {len(designs)} designs over {', '.join(roles)}")

    # -- clean baseline ----------------------------------------------------
    clean = SweepEngine().evaluate(designs)
    print(f"clean run:   {len(clean)} evaluations")

    # -- arm the fault plan ------------------------------------------------
    # error@k: the k-th cache write sees "database is locked" — three
    # consecutive locks exhaust the retry policy and degrade the cache
    # to memory-only.  Each spec fires exactly once, so the sweep
    # proceeds unfaulted afterwards — that's what makes the recovered
    # output reproducible.
    os.environ[faults.ENV_PLAN] = (
        "cache.write:error@1;cache.write:error@2;cache.write:error@3"
    )
    faults.reset()

    cache_path = os.path.join(tempfile.mkdtemp(prefix="chaos-"), "cache.sqlite")
    engine = SweepEngine(cache_path=cache_path)
    # No backoff sleeps in the drill: determinism comes from the plan,
    # not the cadence.
    engine.persistent_cache.retry_policy = RetryPolicy(
        attempts=3, base_delay=0.0
    )

    with engine:
        faulted = engine.evaluate(designs)
    print(f"faulted run: {len(faulted)} evaluations (no request failed)")

    # -- the recovered output is identical ---------------------------------
    assert faulted == clean, "chaos run diverged from the clean run"
    print("byte-identical: faulted results == clean results")

    # -- and the recovery path really ran ----------------------------------
    snapshot = observability.REGISTRY.to_dict()
    degraded = metric_value(snapshot, "repro_cache_degraded")
    injected = metric_value(snapshot, "repro_faults_injected_total")
    assert engine.persistent_cache.degraded, "cache did not degrade"
    assert degraded >= 1 and injected >= 3, "recovery metrics did not move"
    print(
        f"recoveries:  cache degraded={engine.persistent_cache.degraded}, "
        f"{int(injected)} fault(s) injected in this process"
    )


if __name__ == "__main__":
    main()
