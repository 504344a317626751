"""serve-mixed: one closed-loop HTTP caller against ``repro serve``.

The server runs in its own process (``python -m repro serve --port 0
--executor serial --cache <fresh file>``; with tracing, through
``serve_launcher.py``).  This process is the only caller: it sends the
next request of a seeded stream as soon as the previous answer is read.

The stream is about 60% ``POST /v1/sweep`` over 33 spaces (2-4 of the
four roles, ``max_replicas`` 1-3) and 40% ``POST /v1/timeline`` over
2-3 roles at up to two replicas, 24 points, with a seeded horizon of
48-1440 h.  Warm-up sends every sweep space once plus a few timelines,
so the timed phase sees response-memory and engine-memo hits beside
fresh timeline computations, and no cold sweep.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

from common import (
    ROOT,
    SETUPS,
    HostProbe,
    min_ops,
    pinned_env,
    program_counts,
    registry_delta,
    registry_values,
    select,
    startup_probe,
    vmhwm_mb,
)

NAME = "serve-mixed"
HERE = Path(__file__).resolve().parent
ROLES = ("dns", "web", "app", "db")
SWEEP_SPACES = [
    (roles, replicas)
    for size in (2, 3, 4)
    for roles in itertools.combinations(ROLES, size)
    for replicas in (1, 2, 3)
]
TIMELINE_ROLES = [
    roles for size in (2, 3) for roles in itertools.combinations(ROLES, size)
]
SWEEP_SHARE = 0.6
WARMUP_TIMELINES = 10
#: Server VmHWM is read once this many timed requests have completed,
#: so every commit is charged for the same request sequence.
RSS_AT_REQUEST = 1000
#: Every n-th timeline answer is checked in full after the run.
TIMELINE_SAMPLE_EVERY = 10
#: Typical request seconds, which sizes the traced run.
NOMINAL_REQUEST_S = 0.0125


class Request:
    """One request of the stream: its path, body and what it asks for."""

    __slots__ = ("kind", "roles", "replicas", "body")

    def __init__(self, kind: str, roles, replicas: int, horizon: float | None):
        self.kind = kind
        self.roles = roles
        self.replicas = replicas
        payload: dict = {"space": {"roles": list(roles), "max_replicas": replicas}}
        if kind == "timeline":
            payload["options"] = {"horizon": horizon, "points": 24}
        self.body = json.dumps(payload).encode()

    @property
    def path(self) -> str:
        return f"/v1/{self.kind}"


class RequestStream:
    """The seeded request sequence: a warm-up list, then the mix."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def _timeline(self) -> Request:
        roles = self.rng.choice(TIMELINE_ROLES)
        replicas = self.rng.choice((1, 2))
        horizon = round(self.rng.uniform(48.0, 1440.0), 3)
        return Request("timeline", roles, replicas, horizon)

    def warmup(self) -> list[Request]:
        requests = [Request("sweep", roles, m, None) for roles, m in SWEEP_SPACES]
        requests += [self._timeline() for _ in range(WARMUP_TIMELINES)]
        self.rng.shuffle(requests)
        return requests

    def next(self) -> Request:
        if self.rng.random() < SWEEP_SHARE:
            roles, replicas = self.rng.choice(SWEEP_SPACES)
            return Request("sweep", roles, replicas, None)
        return self._timeline()


class Server:
    """A ``repro serve`` process, ready once ``GET /v1/healthz`` answers."""

    def __init__(self, workdir: Path, index: int, summary: Path | None = None):
        self.cache = workdir / f"cache-{index}.sqlite"
        argv = [
            "serve", "--port", "0", "--executor", "serial", "--cache", str(self.cache)
        ]
        if summary is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            launcher = str(HERE / "serve_launcher.py")
            command = [sys.executable, launcher, str(summary), *argv]
        out_path = workdir / f"serve-{index}.out"
        self._err_path = workdir / f"serve-{index}.err"
        with open(out_path, "wb") as out, open(self._err_path, "wb") as err:
            spawned = time.monotonic()
            self.proc = subprocess.Popen(
                command,
                cwd=ROOT,
                env=pinned_env(),
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )
        try:
            self.port = self._announced_port(out_path)
            while self.get("/v1/healthz")[0] != 200:
                time.sleep(0.002)
        except BaseException:
            self._terminate()
            raise
        self.ready_s = time.monotonic() - spawned

    def _announced_port(self, out_path: Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            text = out_path.read_text(errors="replace")
            if "repro serve: http://" in text:
                address = text.split("repro serve: http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(
            "repro serve did not announce its port: "
            + self._err_path.read_text(errors="replace")[-2000:]
        )

    def send(self, method: str, path: str, body: bytes | None = None):
        """``(status, body bytes)`` of one request on a fresh connection."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get(self, path: str):
        try:
            return self.send("GET", path)
        except ConnectionError:
            return 0, b""

    def healthz(self) -> dict:
        status, body = self.send("GET", "/v1/healthz")
        if status != 200:
            raise RuntimeError(f"GET /v1/healthz answered {status}")
        return json.loads(body)

    def _terminate(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def stop(self) -> None:
        """Stop the server; it must exit cleanly."""
        self._terminate()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"repro serve exited {self.proc.returncode}: "
                + self._err_path.read_text(errors="replace")[-2000:]
            )


class Caller:
    """The closed-loop caller: sends, times, samples answers."""

    def __init__(self, server: Server, probe: HostProbe) -> None:
        self.server = server
        self.probe = probe
        self.latencies: list[float] = []
        #: Per request, the host probe reading taken right after it.
        self.marks: list[int] = []
        self.bytes = 0
        #: Requests refused, timed out or answered other than 200.
        self.failed = 0
        self.samples: list[tuple[Request, bytes]] = []
        self.peak_rss_mb: float | None = None
        self._sampled_spaces: set = set()
        self._timelines = 0

    def warm(self, requests: list[Request]) -> None:
        """Untimed warm-up; like its timings, its answers are discarded."""
        for request in requests:
            try:
                self.server.send("POST", request.path, request.body)
            except (OSError, http.client.HTTPException):
                pass

    def call(self, request: Request) -> None:
        start = time.perf_counter()
        try:
            status, body = self.server.send("POST", request.path, request.body)
        except (OSError, http.client.HTTPException) as error:
            print(f"{request.path}: {error!r}", file=sys.stderr)
            status, body = 0, b""
        self.latencies.append(time.perf_counter() - start)
        self.bytes += len(body)
        if status != 200:
            self.failed += 1
        elif request.kind == "sweep":
            key = (request.roles, request.replicas)
            if key not in self._sampled_spaces:
                self._sampled_spaces.add(key)
                self.samples.append((request, body))
        else:
            if self._timelines % TIMELINE_SAMPLE_EVERY == 0:
                self.samples.append((request, body))
            self._timelines += 1
        if len(self.latencies) == RSS_AT_REQUEST:
            self.peak_rss_mb = vmhwm_mb(self.server.proc.pid)
        self.marks.append(self.probe.maybe())

    def run_for(self, stream: RequestStream, seconds: float) -> None:
        """Closed loop for *seconds*, and on until :func:`common.min_ops`."""
        floor = min_ops(NAME)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(self.latencies) < floor:
            self.call(stream.next())

    def finish_rss(self, stream: RequestStream) -> float:
        """Server VmHWM after :data:`RSS_AT_REQUEST` requests.

        Tops up with untimed requests when the timed phase sent fewer.
        Their answers are not checked.
        """
        sent = len(self.latencies)
        while self.peak_rss_mb is None:
            request = stream.next()
            try:
                self.server.send("POST", request.path, request.body)
            except (OSError, http.client.HTTPException):
                pass
            sent += 1
            if sent == RSS_AT_REQUEST:
                self.peak_rss_mb = vmhwm_mb(self.server.proc.pid)
        return self.peak_rss_mb


def check_samples(samples: list[tuple[Request, bytes]]) -> int:
    """Failed sampled answers.

    Sweep answers must equal ``repro.evaluation.api.sweep_response``
    computed here; timeline answers must start all-up and unpatched and
    have non-decreasing completion curves.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.evaluation import api
    from repro.evaluation.engine import SweepEngine

    engine = SweepEngine()
    failed = 0
    for request, body in samples:
        try:
            ok = _sample_ok(api, engine, request, json.loads(body))
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
    engine.close()
    return failed


def _sample_ok(api, engine, request: Request, payload: dict) -> bool:
    space = api.SpaceSpec(roles=request.roles, max_replicas=request.replicas)
    designs = api.enumerate_space(space)
    if request.kind == "sweep":
        expected = api.sweep_response(
            list(request.roles), request.replicas, None, False, "serial",
            engine.evaluate(designs),
        )
        return payload == json.loads(json.dumps(expected))
    curves = payload["designs"]
    return payload["design_count"] == len(designs) == len(curves) and all(
        d["coa"][0] == 1.0
        and d["completion_probability"][0] == 0.0
        and all(
            b >= a
            for a, b in zip(
                d["completion_probability"], d["completion_probability"][1:]
            )
        )
        for d in curves
    )


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Raw results of one serve-mixed run (the shape ``worker.py`` prints)."""
    stream = RequestStream(seed)
    warmup = stream.warmup()
    probe = HostProbe()
    if trace:
        return _run_traced(stream, warmup, seconds, probe, workdir)
    setups, probes = [], []
    for index in range(SETUPS - 1):
        probes.append(startup_probe())
        server = Server(workdir, index)
        setups.append(server.ready_s)
        server.stop()
    probes.append(startup_probe())
    server = Server(workdir, SETUPS)
    try:
        setups.append(server.ready_s)
        caller = Caller(server, probe)
        caller.warm(warmup)
        caller.run_for(stream, seconds)
        peak = caller.finish_rss(stream)
    finally:
        server.stop()
    return {
        "setups": setups,
        "startup_probes": probes,
        "latencies": caller.latencies,
        "probe_marks": caller.marks,
        "probe_ms": probe.samples,
        "items": len(caller.latencies) - caller.failed,
        "peak_rss_mb": peak,
        "attempted": len(caller.latencies),
        "failed": caller.failed + check_samples(caller.samples),
        "ref_ms": probe.ref_ms(),
        "sampled": len(caller.samples),
    }


def _run_traced(stream, warmup, seconds, probe, workdir) -> dict:
    """The same fixed request sequence against a plain and a traced server.

    Requests alternate between the two servers (which one goes first
    alternates too), so both see the same sequence under the same host
    conditions.  The request count depends only on *seconds*, so a seed
    and a run length give the same requests and the program's counts
    repeat exactly.
    """
    requests = [
        stream.next() for _ in range(max(2, round(seconds / 2.0 / NOMINAL_REQUEST_S)))
    ]
    summary_path = workdir / "layers.json"
    servers = []
    try:
        servers.append(Server(workdir, 0))
        servers.append(Server(workdir, 1, summary=summary_path))
        plain, traced = (Caller(server, probe) for server in servers)
        plain.warm(warmup)
        traced.warm(warmup)
        server = servers[1]
        before = server.healthz()
        for index, request in enumerate(requests):
            for caller in (plain, traced) if index % 2 == 0 else (traced, plain):
                caller.call(request)
        after = server.healthz()
        cache_bytes = sum(
            path.stat().st_size for path in workdir.glob(server.cache.name + "*")
        )
    finally:
        for server in servers:
            server.stop()
    summary = json.loads(summary_path.read_text())
    delta = registry_delta(
        registry_values(before["registry"]), registry_values(after["registry"])
    )
    samples = plain.samples + traced.samples
    return {
        "import_s": summary.pop("import_s"),
        "ready_s": server.ready_s,
        "latencies": plain.latencies,
        "items": len(plain.latencies),
        "traced_latencies": traced.latencies,
        "traced_items": len(traced.latencies),
        "trace": summary,
        "counts": program_counts(delta),
        "counted_ops": len(requests),
        "memo_entries": after["engine"]["cache_info"]["size"],
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": plain.failed + traced.failed + check_samples(samples),
        "ref_ms": probe.ref_ms(),
        "sampled": len(samples),
        "server": {
            "request_s": select(
                delta, "repro_service_request_seconds", "sum", outcome="ok"
            ),
            "lane_wait_s": select(
                delta, "repro_chunk_queue_wait_seconds", "sum", queue="lane"
            ),
            "read_s": summary.pop("read_s"),
            "response_bytes": traced.bytes,
            "cache_file_mb": cache_bytes / 1e6,
        },
    }
