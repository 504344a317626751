"""Span-trace a process-pool sweep and inspect the merged telemetry.

Runs one design-space sweep through the process executor with tracing
enabled, writes the merged Chrome trace (parent engine spans plus the
worker-side solver spans shipped back with each chunk) and prints the
registry counters the sweep accrued — explorations, steady solves by
path, cache lookups by tier.

Open the trace file in https://ui.perfetto.dev (or chrome://tracing):
each worker process gets its own ``repro-worker-<pid>`` track.

Usage::

    python examples/trace_sweep.py [trace.json]
"""

from __future__ import annotations

import sys

from repro.enterprise import paper_case_study
from repro.evaluation import SweepEngine, enumerate_designs
from repro.observability import REGISTRY, tracing, write_chrome_trace
from repro.patching import CriticalVulnerabilityPolicy


def main() -> None:
    trace_path = sys.argv[1] if len(sys.argv) > 1 else "sweep-trace.json"
    designs = list(
        enumerate_designs(["dns", "web", "app"], max_replicas=2)
    )
    print(f"sweeping {len(designs)} designs on the process executor ...")

    tracing.enable()
    tracing.drain()  # start from an empty trace buffer
    before = REGISTRY.state()
    try:
        with SweepEngine(
            case_study=paper_case_study(),
            policy=CriticalVulnerabilityPolicy(),
            executor="process",
            max_workers=2,
        ) as engine:
            evaluations = engine.evaluate(designs)
    finally:
        count = write_chrome_trace(trace_path)
        tracing.disable()
    print(f"evaluated {len(evaluations)} designs; "
          f"wrote {count} span(s) to {trace_path}")

    print("\ncounters accrued by this sweep (workers merged in):")
    for (name, labels), entry in sorted(REGISTRY.delta_since(before).items()):
        if entry["kind"] != "counter":
            continue
        rendered = ",".join(f"{k}={v}" for k, v in labels)
        suffix = f"{{{rendered}}}" if rendered else ""
        print(f"  {name}{suffix} = {entry['value']:g}")


if __name__ == "__main__":
    main()
