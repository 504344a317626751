"""Span-trace a sweep and inspect its telemetry.

Runs one design-space sweep with tracing enabled, writes the Chrome
trace (engine, chunk and solver spans) and prints the registry counters
the sweep accrued — explorations, steady solves by path, cache lookups
by tier.

Open the trace file in https://ui.perfetto.dev (or chrome://tracing).

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
    print(f"sweeping {len(designs)} designs ...")

    tracing.enable()
    tracing.drain()  # start from an empty trace buffer
    before = REGISTRY.state()
    try:
        engine = SweepEngine(
            case_study=paper_case_study(), policy=CriticalVulnerabilityPolicy()
        )
        evaluations = engine.evaluate(designs)
    finally:
        count = write_chrome_trace(trace_path)
        tracing.disable()
    print(f"evaluated {len(evaluations)} designs; "
          f"wrote {count} span(s) to {trace_path}")

    print("\ncounters accrued by this sweep:")
    for (name, labels), entry in sorted(REGISTRY.state().items()):
        if entry["kind"] != "counter":
            continue
        value = entry["value"] - before.get((name, labels), {}).get("value", 0.0)
        if not value:
            continue
        rendered = ",".join(f"{k}={v}" for k, v in labels)
        suffix = f"{{{rendered}}}" if rendered else ""
        print(f"  {name}{suffix} = {value:g}")


if __name__ == "__main__":
    main()
