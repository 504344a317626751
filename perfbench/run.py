"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload sweep-designs --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  The line before it (``# detail``)
records the environment, the tail percentile and op count, and the
host-drift probe.  Exits 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import os
import sys

from common import BLAS_ENV

# Pinned before anything in this process can import numpy.
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import serve_mixed  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    SETUPS,
    environment_record,
    latency_metrics,
    pin_to_one_cpu,
    pinned_env,
    print_result,
    scale_ops,
    scaled_setup,
    startup_probe,
)
from tracer import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
IN_PROCESS = ("sweep-designs", "timeline-campaign")
WORKLOADS = IN_PROCESS + (serve_mixed.NAME,)
#: Slack on top of --seconds before a worker counts as hung.
WORKER_GRACE_S = 120.0


def spawn_worker(args, setup_only: bool = False) -> tuple[float, dict | None]:
    """Start ``worker.py``: ``(spawn-to-ready seconds, raw results)``."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=pinned_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # A hung worker is killed, whether it hangs before READY or after.
    watchdog = threading.Timer(args.seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not ready.startswith("READY "):
        raise RuntimeError(
            f"worker {args.workload} exited {proc.returncode}: {err[-2000:]}"
        )
    # Tracebacks of failed ops, which count against ok_ratio.
    sys.stderr.write(err)
    ready_s = float(ready.split()[1]) - spawned
    return ready_s, None if setup_only else json.loads(out.strip().splitlines()[-1])


def run_in_process(args) -> dict:
    if args.trace:
        ready_s, raw = spawn_worker(args)
        raw["ready_s"] = ready_s
        return raw
    setups, probes = [], []
    for _ in range(SETUPS - 1):
        probes.append(startup_probe())
        setups.append(spawn_worker(args, setup_only=True)[0])
    probes.append(startup_probe())
    ready_s, raw = spawn_worker(args)
    raw.update(setups=setups + [ready_s], startup_probes=probes)
    return raw


def end_to_end(workload: str, raw: dict) -> tuple[dict, dict]:
    """End-to-end metrics; timings scaled to the reference host speed.

    Each op's time is scaled by the host probe readings around it, each
    set-up time by the start-up probe taken just before it.  The detail
    keeps the unscaled values.
    """
    raw_latencies = raw["latencies"]
    latencies = scale_ops(raw_latencies, raw["probe_marks"], raw["probe_ms"])
    values, detail = latency_metrics(workload, latencies)
    values.update(
        items_per_s=raw["items"] / sum(latencies),
        setup_s=scaled_setup(raw["setups"], raw["startup_probes"]),
        peak_rss_mb=raw["peak_rss_mb"],
        ok_ratio=(raw["attempted"] - raw["failed"]) / raw["attempted"],
    )
    measured = latency_metrics(workload, raw_latencies)[0]
    measured.update(items_per_s=raw["items"] / sum(raw_latencies))
    detail.update(
        measured=measured,
        setups_s=raw["setups"],
        startup_probes_s=raw["startup_probes"],
    )
    return values, detail


def per_layer(raw: dict) -> dict:
    """Per-layer metrics of the traced ops: per op unless a ratio.

    Times come from the traced ops; the program's own counts cover
    ``counted_ops`` executions of the same ops, traced or not.
    """
    traced = raw["traced_latencies"]
    ops = len(traced)
    wall = sum(traced)
    trace = raw["trace"]
    self_s = {layer: trace["self_s"].get(layer, 0.0) for layer in LAYERS}
    calls = trace["calls"]
    counts = {
        name: value / raw["counted_ops"] for name, value in raw["counts"].items()
    }
    server = raw.get("server", {})

    def per_op(value: float) -> float:
        return value / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    if server:
        # The service's request window holds every wrapped layer but
        # JSON encoding (which mostly follows it) plus the service's own
        # parsing, queueing and payload building; the request read comes
        # before it.  What remains of the caller's wall is the response
        # write, the caller's HTTP client and the loopback socket.
        window = server["request_s"]
        service_self = window - sum(
            seconds for layer, seconds in self_s.items() if layer != "service.json"
        )
        read = server["read_s"]
        attributed = read + window + self_s["service.json"]
        overhead_ms = per_op(wall - window) * 1000.0
    else:
        window = service_self = read = overhead_ms = 0.0
        attributed = sum(self_s.values())
    trees = trace["trees"]
    lookups = counts["engine.memo_hits"] + counts["engine.memo_misses"]
    return {
        "startup.import_s": raw["import_s"],
        "startup.ready_s": raw["ready_s"],
        "enterprise.build_s": per_op(self_s["enterprise.build"]),
        "availability.aggregate_s": per_op(self_s["availability.aggregate"]),
        "availability.aggregate_calls": per_op(calls.get("availability.aggregate", 0)),
        "availability.self_s": per_op(self_s["availability"]),
        "srn.explore_s": per_op(self_s["srn.explore"]),
        "srn.explore_calls": counts["srn.explorations"],
        "srn.states": per_op(trace["states"]),
        "srn.designs_per_exploration": ratio(
            per_op(raw["traced_items"]), counts["srn.explorations"]
        ),
        "ctmc.steady_s": per_op(self_s["ctmc.steady"]),
        "ctmc.steady_calls": per_op(calls.get("ctmc.steady", 0)),
        "ctmc.steady_solves.gth": counts["ctmc.steady_solves.gth"],
        "ctmc.steady_solves.direct": counts["ctmc.steady_solves.direct"],
        "ctmc.steady_solves.iterative": counts["ctmc.steady_solves.iterative"],
        "ctmc.transient_s": per_op(self_s["ctmc.transient"]),
        "ctmc.transient_calls": per_op(calls.get("ctmc.transient", 0)),
        "ctmc.uniformisation_iterations": counts["ctmc.uniformisation_iterations"],
        "ctmc.adaptive_exits": counts["ctmc.adaptive_exits"],
        "harm.build_s": per_op(self_s["harm.build"]),
        "harm.build_calls": per_op(calls.get("harm.build", 0) - trees),
        "harm.metrics_s": per_op(self_s["harm.metrics"]),
        "harm.metrics_calls": per_op(calls.get("harm.metrics", 0)),
        "harm.tree_builds": per_op(trees),
        "harm.tree_distinct_ratio": ratio(trace["distinct_trees"], trees),
        "timeline.self_s": per_op(self_s["timeline"]),
        "timeline.calls": per_op(calls.get("timeline", 0)),
        "engine.self_s": per_op(self_s["engine"]),
        "engine.memo_lookups": lookups,
        "engine.memo_hit_ratio": ratio(counts["engine.memo_hits"], lookups),
        "engine.disk_hits": counts["engine.disk_hits"],
        "engine.memo_entries": raw["memo_entries"],
        "cache.get_s": per_op(self_s["cache.get"]),
        "cache.put_s": per_op(self_s["cache.put"]),
        "cache.gets": counts["cache.gets"],
        "cache.puts": counts["cache.puts"],
        "cache.hit_ratio": ratio(counts["cache.hits"], counts["cache.gets"]),
        "cache.file_mb": server.get("cache_file_mb", 0.0),
        "service.request_s": per_op(window),
        "service.self_s": per_op(service_self),
        "service.overhead_ms": overhead_ms,
        "service.json_s": per_op(self_s["service.json"]),
        "service.read_s": per_op(read),
        "service.response_kb": per_op(server.get("response_bytes", 0)) / 1024.0,
        "service.response_hit_ratio": counts["service.response_hits"],
        "service.lane_wait_s": per_op(server.get("lane_wait_s", 0.0)),
        "host.ref_ms": raw["ref_ms"],
        "unattributed_s": per_op(wall - attributed),
        "unattributed_share": ratio(wall - attributed, wall),
        # Both sides ran the same ops, so time ratio = throughput ratio.
        "trace.overhead_ratio": wall / sum(raw["latencies"]) - 1.0,
        "ops": ops,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro under {ROOT}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    cpu = pin_to_one_cpu()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.workload == serve_mixed.NAME:
            raw = serve_mixed.run(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            raw = run_in_process(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": args.workload, "cpu": cpu, **environment_record(args.seed)}
    if args.trace:
        metrics = per_layer(raw)
    else:
        metrics, latency_detail = end_to_end(args.workload, raw)
        detail.update(latency_detail)
    detail.update(ref_ms=raw["ref_ms"], attempted=raw["attempted"])
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics missing from the run: {missing}")
    print("# detail " + json.dumps(detail), flush=True)
    print_result(
        raw["failed"] == 0,
        raw["attempted"],
        raw["failed"],
        {name: metrics[name] for name in units},
        units,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
