"""Helpers shared by the orchestrator, the workers and the server launcher.

Only the standard library is imported here (:class:`HostProbe` imports
numpy when created): ``run.py`` imports this before it may import numpy,
so the BLAS thread pinning below is in place first.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every process the benchmark starts runs single-threaded BLAS/OpenMP.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Op-latency percentile reported as ``tail_ms``, fixed per workload at
#: the highest of p75/p90/p95/p99 that the workload's op count supports
#: with at least ten samples beyond it, so that a faster or slower
#: commit is compared on the same percentile.
TAIL_PERCENTILE = {
    "sweep-designs": 75,
    "timeline-campaign": 75,
    "serve-mixed": 99,
}

#: Samples a run must hold beyond its tail percentile.
TAIL_SAMPLES = 10

#: Set-ups per untraced run, each right after a start-up probe;
#: ``setup_s`` is the median of their scaled times.
SETUPS = 5


def pinned_env() -> dict[str, str]:
    """Environment for every child: pinned BLAS, ``src`` importable.

    ``REPRO_*`` overrides (fault plans, solver cutoffs) are removed so
    the program runs with its defaults, and hashing is seeded so that
    set and dict orders, and with them the per-op counts, repeat.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def min_ops(workload: str) -> int:
    """Ops a timed loop runs at least: :data:`TAIL_SAMPLES` beyond the tail."""
    return math.ceil(TAIL_SAMPLES * 100 / (100 - TAIL_PERCENTILE[workload]))


def latency_metrics(workload: str, latencies: list[float]) -> tuple[dict, dict]:
    """``p50_ms``/``tail_ms`` values plus the tail's description."""
    q = TAIL_PERCENTILE[workload]
    values = {
        "p50_ms": statistics.median(latencies) * 1000.0,
        "tail_ms": statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]
        * 1000.0,
    }
    detail = {
        "tail_percentile": q,
        "ops": len(latencies),
        "samples_beyond_tail": len(latencies) * (100 - q) / 100.0,
    }
    return values, detail


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU.

    Workers, servers and the caller then share the CPU the host probe
    samples, so the probe sees the speed the measured code ran at.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


#: What the start-up probe imports: the libraries the program loads at
#: start, not the program itself.
STARTUP_PROBE = "import numpy, scipy.sparse, scipy.sparse.linalg"
#: Start-up probe time that set-up times are scaled to.
STARTUP_NOMINAL_S = 0.5


def startup_probe() -> float:
    """Seconds to start a pinned interpreter running :data:`STARTUP_PROBE`.

    Start-up speed (process spawn, file reads, shared-library loading)
    drifts between runs apart from compute speed, so set-up times get a
    probe of their own, taken right before each set-up.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-c", STARTUP_PROBE],
        cwd=ROOT,
        env=pinned_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    # A blocking wait returns as the probe exits; ``wait(timeout=...)``
    # would poll, rounding the time up to its 50-ms polling steps.
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.monotonic() - start
    if returncode != 0:
        raise RuntimeError(f"start-up probe exited {returncode}")
    return elapsed


def scaled_setup(setups: list[float], probes: list[float]) -> float:
    """``setup_s``: median set-up, each scaled by its own start-up probe."""
    return statistics.median(
        setup * STARTUP_NOMINAL_S / probe for setup, probe in zip(setups, probes)
    )


#: Host probe time that op timings are scaled to (see :func:`scale_ops`).
REF_NOMINAL_MS = 3.5


def reference_work(rates) -> float:
    """GTH elimination of a fixed chain, timed as the host-drift probe.

    The program spends most of its time in this kind of work: short
    numpy slice operations inside Python loops.
    """
    a = rates.copy()
    for k in range(a.shape[0] - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        for j in range(k):
            a[:k, j] += a[:k, k] * a[k, j]
    return float(a[0, 1])


class HostProbe:
    """Times :func:`reference_work` between ops, at most every 0.25 s.

    The probe runs outside the op timings.  Its median over the run is
    ``host.ref_ms``; the readings around each op scale that op's time.
    """

    INTERVAL_S = 0.25

    def __init__(self) -> None:
        import numpy  # only once BLAS threads are pinned

        self.rates = numpy.random.default_rng(0).random((48, 48))
        numpy.fill_diagonal(self.rates, 0.0)
        #: Probe readings in ms, in the order taken.
        self.samples: list[float] = []
        self._last = -math.inf

    def maybe(self) -> int:
        """Probe if one is due; the index of the latest reading."""
        now = time.perf_counter()
        if now - self._last >= self.INTERVAL_S:
            reference_work(self.rates)
            self._last = time.perf_counter()
            self.samples.append((self._last - now) * 1000.0)
        return len(self.samples) - 1

    def ref_ms(self) -> float:
        if not self.samples:
            self.maybe()
        return statistics.median(self.samples)


#: Probe readings whose median scales one op: the reading right after
#: the op, and two on either side.
SCALE_WINDOW = 5


def scale_ops(latencies: list[float], marks: list[int], samples: list[float]):
    """Op latencies scaled to the reference host speed.

    The CPU speed of a shared VM drifts by tens of percent, between runs
    and within one.  Op *i* ran just before probe reading ``marks[i]``;
    its time is multiplied by ``REF_NOMINAL_MS`` over the median of the
    :data:`SCALE_WINDOW` readings centred there.
    """
    half = SCALE_WINDOW // 2
    scaled = []
    for latency, mark in zip(latencies, marks):
        start = max(0, min(mark - half, len(samples) - SCALE_WINDOW))
        window = samples[start : start + SCALE_WINDOW]
        scaled.append(latency * REF_NOMINAL_MS / statistics.median(window))
    return scaled


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def environment_record(seed: int) -> dict:
    """What the run ran on: CPUs, versions, BLAS pinning, seed."""

    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_ENV,
        "seed": seed,
    }


def registry_values(registry: dict) -> dict[tuple, float]:
    """Flatten ``MetricsRegistry.to_dict()`` to ``{key: value}``.

    A key is ``(family, sorted label pairs, part)``: *part* is ``""``
    for counters and gauges, ``"sum"`` or ``"count"`` for histograms.
    """
    flat: dict[tuple, float] = {}
    for name, family in registry.items():
        for series in family["series"]:
            labels = tuple(sorted(series["labels"].items()))
            if family["kind"] == "histogram":
                flat[(name, labels, "sum")] = series["sum"]
                flat[(name, labels, "count")] = series["count"]
            else:
                flat[(name, labels, "")] = series["value"]
    return flat


def registry_delta(before: dict, after: dict) -> dict[tuple, float]:
    """Per-series increase between two :func:`registry_values` maps."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def select(delta: dict, name: str, part: str = "", **labels: str) -> float:
    """Sum the *part* of family *name* over series carrying *labels*."""
    return sum(
        value
        for (family, items, key_part), value in delta.items()
        if family == name
        and key_part == part
        and all(dict(items).get(k) == v for k, v in labels.items())
    )


def program_counts(delta: dict) -> dict[str, float]:
    """The program's own counters over a phase, named for citation."""
    return {
        "srn.explorations": select(delta, "repro_srn_explorations_total"),
        "ctmc.steady_solves.gth": select(
            delta, "repro_steady_solves_total", path="gth"
        ),
        "ctmc.steady_solves.direct": select(
            delta, "repro_steady_solves_total", path="direct"
        ),
        "ctmc.steady_solves.iterative": select(
            delta, "repro_steady_solves_total", path="iterative"
        ),
        "ctmc.uniformisation_iterations": select(
            delta, "repro_transient_uniformisation_iterations_total"
        ),
        "ctmc.adaptive_exits": select(delta, "repro_transient_adaptive_exits_total"),
        "engine.memo_hits": select(
            delta, "repro_engine_cache_requests_total", tier="memo", outcome="hit"
        ),
        "engine.memo_misses": select(
            delta, "repro_engine_cache_requests_total", tier="memo", outcome="miss"
        ),
        "engine.disk_hits": select(
            delta, "repro_engine_cache_requests_total", tier="disk", outcome="hit"
        ),
        "cache.hits": select(delta, "repro_disk_cache_requests_total", outcome="hit"),
        "cache.gets": select(delta, "repro_disk_cache_requests_total"),
        "cache.puts": select(delta, "repro_disk_cache_writes_total"),
        "service.response_hits": select(
            delta, "repro_service_cache_hits_total", tier="response"
        ),
    }


def print_result(
    correct: bool, attempted: int, failed: int, metrics: dict, units: dict
) -> None:
    """The last stdout line: the result object the contract asks for."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
