"""Chaos drill: a design-space sweep that survives injected faults.

Arms a deterministic fault plan — a killed process-pool worker and a
sqlite cache that locks on every retry attempt — then runs the same
sweep twice, clean and faulted, and verifies three things:

1. the faulted run *succeeds* (every fault is absorbed by a recovery
   path: pool recycle and retry, cache degrade to memory-only);
2. its results are identical to the clean run's, metric for metric;
3. the recovery paths really ran, visible in the process metrics
   registry (``repro_pool_recycles_total``, ``repro_cache_degraded``,
   ``repro_faults_injected_total``).

The same drill runs from the shell via ``REPRO_FAULTS`` (see the CI
chaos-smoke job)::

    REPRO_FAULTS="worker.chunk:kill@1" \
        python -m repro sweep --executor process --metrics metrics.json

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
    # kill@1:   the first pool worker to enter a chunk dies (os._exit);
    # error@k:  the k-th cache write sees "database is locked" — three
    #           consecutive locks exhaust the retry policy and degrade
    #           the cache to memory-only.
    # Each spec fires exactly once across the whole process tree, so the
    # re-executed work proceeds unfaulted — that's what makes the
    # recovered output reproducible.
    os.environ[faults.ENV_PLAN] = (
        "worker.chunk:kill@1;"
        "cache.write:error@1;cache.write:error@2;cache.write:error@3"
    )
    faults.reset()

    cache_path = os.path.join(tempfile.mkdtemp(prefix="chaos-"), "cache.sqlite")
    engine = SweepEngine(
        executor="process", max_workers=2, cache_path=cache_path
    )
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

    # -- and the recovery paths really ran ---------------------------------
    snapshot = observability.REGISTRY.to_dict()
    recycles = metric_value(snapshot, "repro_pool_recycles_total")
    degraded = metric_value(snapshot, "repro_cache_degraded")
    injected = metric_value(snapshot, "repro_faults_injected_total")
    assert engine.executor.recycle_count == 1, "worker kill not recycled"
    assert engine.persistent_cache.degraded, "cache did not degrade"
    assert recycles >= 1 and degraded >= 1, "recovery metrics did not move"
    print(
        f"recoveries:  {int(recycles)} pool recycle(s), "
        f"cache degraded={engine.persistent_cache.degraded}, "
        f"{int(injected)} fault(s) injected in this process"
    )


if __name__ == "__main__":
    main()
