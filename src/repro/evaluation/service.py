"""Resident evaluation service: warm :class:`SweepEngine` lanes behind HTTP.

The CLI pays the full start-up bill on every invocation — interpreter,
case-study solves, process-pool spawn, shared-memory priming.  This
module keeps all of that resident: one :class:`EvaluationService` owns
a pool of warm :class:`~repro.evaluation.engine.SweepEngine` *lanes*
(each with its own warm worker pool, retained shared-memory segment
and caches) and fronts them with a small asyncio HTTP/JSON API
(stdlib only), multiplexing many concurrent sweep/timeline requests
over per-context engines.

/v1 API
-------
The whole surface is ``POST /v1/sweep``, ``POST /v1/timeline``,
``GET /v1/healthz`` and ``GET /v1/metrics``.  POST bodies use one
canonical envelope::

    {
      "space":   {"roles": [...], "max_replicas": N, "max_total": N|null,
                  "variants": bool, "scaled": "HxT" | [H, T]},
      "options": {"max_designs": N, "shard": {"index": I, "count": C},
                  # timeline only:
                  "horizon": H, "points": P, "times": [...],
                  "campaign": {...}, "phases": "...", "method": "..."},
      "priority": "interactive" | "batch",
      "deadline_ms": N,
      "stream": bool
    }

Every part is optional; defaults match the CLI.  Errors answer with one
stable envelope ``{"error": {"code", "message", "detail"}}`` where
``code`` is machine-readable: ``invalid_request``, ``over_budget``,
``not_found``, ``method_not_allowed``, ``saturated``,
``deadline_exceeded`` or ``internal`` (see
:mod:`repro.evaluation.api`), chosen by the error's type.  Success
payloads carry ``schema_version`` 3.  Any other path, the unversioned
``/sweep``, ``/timeline``, ``/healthz`` and ``/metrics`` included,
answers 404 ``not_found``.

Engine lanes
------------
Requests are routed to an *engine lane* keyed by evaluation context —
the default case study, a ``scaled`` space, or a campaign fingerprint —
so unrelated workloads never serialise behind one engine.  The pool is
bounded (``lanes``/``--lanes``, default :data:`DEFAULT_LANES`) with LRU
eviction of idle lanes; when every lane is busy and the pool is full,
new contexts park until a lane drains.  ``/healthz`` reports per-lane
telemetry under ``lanes``.

Priorities and streaming
------------------------
``priority: "batch"`` jobs run with a preemption checkpoint injected
into the engine's chunk seams: the moment an interactive job arrives on
the same lane, the batch job aborts at the next chunk boundary (its
completed chunks stay banked in the engine memo), the interactive job
runs, and the batch job resumes — paying only for its remaining
chunks.  ``repro_service_preemptions_total`` counts the occurrences;
per-priority lane waits land in the ``repro_chunk_queue_wait_seconds``
histogram (labels ``queue="lane"``, ``priority=...``).

``stream: true`` switches the response to
newline-delimited JSON (``application/x-ndjson``): a ``start`` event,
one ``chunk`` event per engine chunk as it completes (designs already
memoised/cached are folded into the final payload without a chunk
event), then ``complete`` with the full canonical payload (or
``error``).  Huge spaces start returning in milliseconds::

    curl -N -XPOST localhost:8351/v1/sweep \
      -d '{"space": {"roles": ["dns","web"]}, "stream": true}'

Sharding
--------
``options.shard = {"index": I, "count": C}`` restricts a request to the
designs whose stable hash (``repro.evaluation.api.shard_of``, over
``design.cache_key()``) lands on shard ``I`` of ``C`` — the server-side
half of ``repro shard``, whose coordinator fans a space out across
several service processes and merges the partial payloads
deterministically (see :mod:`repro.evaluation.sharding`).  Services
sharing a sqlite ``--cache`` share results across shards and restarts.

Request semantics
-----------------
* **Budgets.**  Every request's enumerated design count is checked
  against the service budget (``max_designs``, default
  :data:`DEFAULT_MAX_DESIGNS`); a request may lower — never raise — its
  own budget with ``max_designs``.  Over budget is a 400, not a queue
  entry.
* **Dedup.**  Requests are canonicalised (defaults filled, grids
  resolved) and fingerprinted; identical in-flight requests share one
  computation — one engine call, many responders.  Completed responses
  are kept in a small FIFO memory, so repeats are served without
  touching any lane; behind both sit the engines' in-memory memos and
  (when configured) the thread-safe sqlite store of
  :mod:`repro.evaluation.cache`.  Streaming and deadline-bearing
  requests are always computed fresh.
* **Resilience.**  A killed pool worker surfaces as one recycled pool
  (respawn + re-prime + retry under the executor's
  :class:`~repro.resilience.RetryPolicy`) inside the engine, not as a
  failed request; ``pool_recycles`` in ``/healthz`` counts the
  occurrences.  Beyond that:

  * **Deadlines.**  ``deadline_ms`` is a monotonic budget started at
    request receipt (queue wait counts).  An exhausted budget answers a
    504 promptly, even while the underlying computation is still
    finishing on its lane; the engine also checks the budget between
    chunk dispatches and aborts the sweep.
  * **Saturation.**  With ``max_queue`` set, a service whose compute
    queue is full answers 503 with a ``Retry-After`` header instead of
    queueing unboundedly; deduplicated joins onto an in-flight request
    and remembered responses are always served.
  * **Graceful drain.**  SIGTERM (when serving via :meth:`run` on the
    main thread) stops accepting new computations (503), finishes
    in-flight requests up to ``drain_grace`` seconds, then closes the
    lanes, pools and segments cleanly; a second SIGTERM forces an
    immediate stop.
  * **Degraded cache.**  Persistent sqlite-cache contention degrades
    the cache to memory-only (``repro_cache_degraded``) instead of
    failing requests; ``/healthz`` surfaces the flag alongside circuit
    -breaker states under ``resilience``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from functools import partial

from repro import observability
from repro.errors import (
    DeadlineExceeded,
    EvaluationError,
    ReproError,
    ValidationError,
)
from repro.evaluation import api
from repro.evaluation.api import sweep_response, timeline_response
from repro.resilience.breaker import breaker_states
from repro.resilience.deadline import Deadline
from repro.resilience.retry import RetryPolicy

_logger = logging.getLogger(__name__)

#: Structured JSON access log, one line per request.  Silent unless a
#: handler is attached (``repro serve`` attaches one via
#: :func:`configure_access_logs`; embedded/test services stay quiet).
_access_logger = logging.getLogger("repro.serve.access")

_REQUESTS = observability.counter(
    "repro_service_requests_total",
    "HTTP requests dispatched, by endpoint.",
)
_REQUEST_SECONDS = observability.histogram(
    "repro_service_request_seconds",
    "Request handling latency by endpoint and outcome.",
)
_SERVICE_CACHE = observability.counter(
    "repro_service_cache_hits_total",
    "Requests served from the dedup/response fast paths, by tier.",
)
_SERVICE_ERRORS = observability.counter(
    "repro_service_errors_total",
    "Requests that failed (validation or compute).",
).labels()
_SERVICE_COMPUTED = observability.counter(
    "repro_service_computed_total",
    "Requests computed through the engine (not served from caches).",
).labels()
_IN_FLIGHT = observability.gauge(
    "repro_service_in_flight",
    "Deduplicated computations currently in flight.",
).labels()
_SERVICE_REJECTED = observability.counter(
    "repro_service_rejected_total",
    "Requests refused with 503 (queue saturated or draining).",
).labels()
_DRAINING = observability.gauge(
    "repro_service_draining",
    "Whether the service is draining after SIGTERM (1) or serving (0).",
).labels()
_PREEMPTIONS = observability.counter(
    "repro_service_preemptions_total",
    "Batch jobs preempted at a chunk boundary by an interactive job.",
).labels()
_LANE_EVENTS = observability.counter(
    "repro_service_lane_events_total",
    "Engine-lane pool events (created/evicted/parked).",
)
#: Joins the engine's chunk-wait family: lane queue waits appear next to
#: executor queue waits, split by ``queue``/``priority`` labels.
_LANE_WAIT = observability.histogram(
    "repro_chunk_queue_wait_seconds",
    "Wall-clock wait between chunk dispatch and worker pickup.",
)


def _swallow_abandoned_error(future) -> None:
    """Retrieve an abandoned future's exception so asyncio never warns."""
    if not future.cancelled():
        future.exception()

#: Accept-header fragments that select the Prometheus text exposition
#: for ``GET /metrics`` (JSON stays the default).
_PROMETHEUS_ACCEPT = ("text/plain", "openmetrics", "prometheus")
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def configure_access_logs() -> None:
    """Attach a stderr handler to the access log (idempotent).

    Called by ``repro serve``: every request then emits one structured
    JSON line (time, method, path, status, duration) to stderr, keeping
    stdout for the announce line.  Embedded services skip this and stay
    silent unless the application configures the
    ``repro.serve.access`` logger itself.
    """
    if not _access_logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        _access_logger.addHandler(handler)
        _access_logger.setLevel(logging.INFO)
        _access_logger.propagate = False

__all__ = [
    "DEFAULT_LANES",
    "DEFAULT_MAX_DESIGNS",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_PORT",
    "EngineLane",
    "EvaluationService",
    "LanePool",
    "ServiceClient",
    "sweep_response",
    "timeline_response",
]

#: Default design-count budget per request.
DEFAULT_MAX_DESIGNS = 512

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8351

#: Default bound on concurrently-warm engine lanes.
DEFAULT_LANES = 4

#: Completed responses remembered for the fast path (FIFO-bounded; a
#: fallen-out entry recomputes through the engine memo, still cheap).
_MAX_REMEMBERED_RESPONSES = 128

#: Hard cap on request body size (a design-space spec is tiny).
_MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Default compute-queue bound: distinct computations admitted before
#: the service answers 503 + ``Retry-After`` (dedup joins and response
#: -memory hits are exempt — they add no compute load).
DEFAULT_MAX_QUEUE = 64

#: The ``/v1`` endpoints (the request counter's ``endpoint`` labels).
_ENDPOINTS = ("/healthz", "/metrics", "/sweep", "/timeline")


def _error(status: int, code: str, message: str, detail: dict | None = None):
    """``(status, payload, headers)`` of an error answer."""
    return status, api.error_payload(code, message, detail), {}


def _ndjson(obj) -> bytes:
    """One compact NDJSON line (the streaming wire format)."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


# -- engine lanes -------------------------------------------------------------


class _Preempted(Exception):
    """Internal: a batch job yielded its lane at a chunk boundary."""


def _resolve_future(future: Future, result, exc) -> None:
    """Settle *future*, tolerating a cancellation race (forced stop)."""
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


def _describe_engine(engine) -> dict:
    """``/healthz`` telemetry of one engine and its executor's pool."""
    executor = engine.executor
    return {
        "executor": executor.name,
        "persistent_pool": executor.max_workers is not None,
        "pool_recycles": getattr(executor, "recycle_count", 0),
        "cache_info": engine.cache_info,
        "shared_context": engine.shared_context_info,
    }


class EngineLane:
    """One evaluation context's warm engine plus its worker thread.

    Jobs arrive via :meth:`submit` in two priority classes and are
    called as ``job(engine, checkpoint=...)``.  The lane thread always
    prefers the interactive queue; a *batch* job runs with a
    ``checkpoint`` callable injected into the engine's chunk seams, and
    the checkpoint raises the moment an interactive job is waiting.
    The preempted batch job goes back to the *front* of the batch
    queue; when it re-runs, the engine memo already holds every chunk
    completed before the preemption, so only the remaining chunks are
    paid for again.

    Lanes other than the default build their engine lazily *on the
    lane thread* (``engine_factory``) so a cold context never blocks
    the event loop, and close it at retirement; the default lane wraps
    the service's own engine and never closes it.
    """

    def __init__(
        self,
        label: str,
        engine_factory,
        on_idle,
        engine=None,
        owns_engine: bool = True,
    ) -> None:
        self.label = label
        self._engine_factory = engine_factory
        self._engine = engine
        self._owns_engine = owns_engine
        self._on_idle = on_idle
        self._cond = threading.Condition()
        self._interactive: deque = deque()
        self._batch: deque = deque()
        self._busy = False
        self._retired = False
        self.completed = 0
        self.preemptions = 0
        self.last_used = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-lane-{label}", daemon=True
        )
        self._thread.start()

    # -- submission (the pool holds its lock while calling) -----------------

    def submit(self, job, priority: str, future: Future) -> None:
        entry = (job, future, time.monotonic())
        with self._cond:
            if self._retired:
                raise EvaluationError(f"lane {self.label!r} is retired")
            if priority == "batch":
                self._batch.append(entry)
            else:
                self._interactive.append(entry)
            self.last_used = time.monotonic()
            self._cond.notify()

    def idle(self) -> bool:
        with self._cond:
            return not (self._busy or self._interactive or self._batch)

    def retire(self) -> None:
        """Ask the lane to exit once its queues drain (idempotent)."""
        with self._cond:
            self._retired = True
            self._cond.notify()

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout=timeout)

    def describe(self) -> dict:
        """Per-lane ``/healthz`` telemetry."""
        with self._cond:
            info = {
                "context": self.label,
                "busy": self._busy,
                "queued_interactive": len(self._interactive),
                "queued_batch": len(self._batch),
                "completed": self.completed,
                "preemptions": self.preemptions,
                "idle_s": round(time.monotonic() - self.last_used, 3),
            }
        engine = self._engine
        info["engine"] = "pending" if engine is None else _describe_engine(engine)
        return info

    # -- the lane thread ----------------------------------------------------

    def _checkpoint(self) -> None:
        """Chunk-boundary seam: yield to a waiting interactive job."""
        with self._cond:
            if self._interactive:
                raise _Preempted()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not (self._interactive or self._batch or self._retired):
                    self._cond.wait()
                if self._retired and not (self._interactive or self._batch):
                    break
                if self._interactive:
                    entry, priority = self._interactive.popleft(), "interactive"
                else:
                    entry, priority = self._batch.popleft(), "batch"
                self._busy = True
            job, future, enqueued = entry
            _LANE_WAIT.observe(
                time.monotonic() - enqueued, queue="lane", priority=priority
            )
            preempted = False
            try:
                if self._engine is None:
                    self._engine = self._engine_factory()
                checkpoint = self._checkpoint if priority == "batch" else None
                result = job(self._engine, checkpoint=checkpoint)
            except _Preempted:
                preempted = True
            except BaseException as exc:  # noqa: BLE001 — fan out to waiter
                _resolve_future(future, None, exc)
            else:
                self.completed += 1
                _resolve_future(future, result, None)
            with self._cond:
                if preempted:
                    self.preemptions += 1
                    self._batch.appendleft((job, future, enqueued))
                self._busy = False
                self.last_used = time.monotonic()
                drained = not (self._interactive or self._batch)
                retired = self._retired
            if preempted:
                _PREEMPTIONS.inc()
            elif drained and not retired:
                self._on_idle(self)
        if self._owns_engine and self._engine is not None:
            self._engine.close()


class LanePool:
    """LRU-bounded pool of :class:`EngineLane`, keyed by context label.

    ``submit`` routes to the context's lane, creating one (evicting the
    least-recently-used *idle* lane when at capacity) or parking the
    job until any lane drains — parked jobs are the serialisation
    baseline a multi-lane service avoids.  The ``"default"`` label
    wraps the engine passed at construction; it is never closed here.
    """

    def __init__(self, max_lanes: int, default_engine) -> None:
        self.max_lanes = max_lanes
        self._default_engine = default_engine
        self._lock = threading.Lock()
        self._lanes: "OrderedDict[str, EngineLane]" = OrderedDict()
        self._parked: deque = deque()
        self.evictions = 0
        self.parked_total = 0
        self._closed = False
        self._retired: list[EngineLane] = []
        self._create("default", None)

    def submit(self, label: str, factory, job, priority: str) -> Future:
        """Queue *job* on the *label* lane; returns its result future."""
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise EvaluationError("lane pool is closed")
            lane = self._lanes.get(label)
            if lane is None:
                lane = self._admit(label, factory)
            else:
                self._lanes.move_to_end(label)
            if lane is None:
                self.parked_total += 1
                _LANE_EVENTS.inc(event="parked")
                self._parked.append((label, factory, job, priority, future))
                return future
            lane.submit(job, priority, future)
            return future

    def _admit(self, label: str, factory) -> EngineLane | None:
        """A lane for *label* under the cap, or None (park the job)."""
        if len(self._lanes) < self.max_lanes:
            return self._create(label, factory)
        victim_label = next(
            (
                name
                for name, lane in self._lanes.items()
                if lane.idle()
            ),
            None,
        )
        if victim_label is None:
            return None
        victim = self._lanes.pop(victim_label)
        victim.retire()
        self._retired.append(victim)
        self.evictions += 1
        _LANE_EVENTS.inc(event="evicted")
        return self._create(label, factory)

    def _create(self, label: str, factory) -> EngineLane:
        if label == "default":
            lane = EngineLane(
                label,
                None,
                self._lane_idle,
                engine=self._default_engine,
                owns_engine=False,
            )
        else:
            lane = EngineLane(label, factory, self._lane_idle)
        self._lanes[label] = lane
        _LANE_EVENTS.inc(event="created")
        return lane

    def _lane_idle(self, lane: EngineLane) -> None:
        """A lane drained: hand parked work to it (or a fresh lane)."""
        while True:
            with self._lock:
                if self._closed or not self._parked:
                    return
                label, factory, job, priority, future = self._parked[0]
                target = self._lanes.get(label)
                if target is None:
                    # The idle caller itself is an eviction candidate
                    # here — an idle lane always unparks *something*.
                    target = self._admit(label, factory)
                else:
                    self._lanes.move_to_end(label)
                if target is None:
                    return
                self._parked.popleft()
                target.submit(job, priority, future)

    def describe(self) -> dict:
        with self._lock:
            return {
                "max_lanes": self.max_lanes,
                "active": len(self._lanes),
                "evictions": self.evictions,
                "parked": len(self._parked),
                "parked_total": self.parked_total,
                "lanes": [lane.describe() for lane in self._lanes.values()],
            }

    def close(self, timeout: float | None = None) -> None:
        """Retire every lane, fail parked work, join the threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            lanes = list(self._lanes.values()) + self._retired
            self._lanes.clear()
            self._retired = []
            parked, self._parked = list(self._parked), deque()
        for entry in parked:
            _resolve_future(
                entry[4],
                None,
                EvaluationError("service closed before the parked request ran"),
            )
        for lane in lanes:
            lane.retire()
        for lane in lanes:
            lane.join(timeout=timeout)


class _StreamPlan:
    """A streaming response handed from ``_dispatch`` to ``_handle``."""

    def __init__(
        self,
        endpoint: str,
        queue: "asyncio.Queue",
        future: "asyncio.Future",
        deadline: Deadline | None,
        started: float,
        design_count: int,
    ) -> None:
        self.endpoint = endpoint
        self.queue = queue
        self.future = future
        self.deadline = deadline
        self.started = started
        self.design_count = design_count


# -- the service --------------------------------------------------------------


class EvaluationService:
    """Warm engine lanes behind an asyncio HTTP/JSON API.

    Parameters
    ----------
    case_study / policy:
        Evaluation context of the default lane (defaults: the paper's).
    executor:
        ``"process"`` (default) or ``"thread"`` give every lane a warm
        worker pool — what the service exists for; ``"serial"`` runs
        in-process (useful for tests).
    max_workers / chunk_size / cache_path:
        Passed through to every lane engine (``cache_path`` enables the
        thread-safe sqlite result store shared across lanes, restarts
        and shard processes).
    lanes:
        Bound on concurrently-warm engine lanes
        (:data:`DEFAULT_LANES`); least-recently-used idle lanes are
        evicted to admit new contexts.
    max_designs:
        Per-request design-count budget (:data:`DEFAULT_MAX_DESIGNS`).
    max_queue:
        Bound on distinct computations admitted to the compute queue
        (:data:`DEFAULT_MAX_QUEUE`); beyond it new computations get 503
        with ``Retry-After``.  ``None`` queues unboundedly.
    retry_after:
        The ``Retry-After`` hint (seconds) sent with 503 responses.
    drain_grace:
        How long a SIGTERM-initiated drain waits for in-flight requests
        before stopping anyway.
    startup_timeout / shutdown_timeout:
        Bounds on :meth:`start_in_thread` and :meth:`stop`; expiry
        raises a descriptive :class:`~repro.errors.EvaluationError`
        instead of hanging or silently returning.

    Use :meth:`run` to serve blocking (the CLI; SIGTERM drains
    gracefully), or :meth:`start_in_thread`/:meth:`stop` for an
    in-process instance (tests); :meth:`close` releases every lane's
    warm pool, segment and cache.
    """

    def __init__(
        self,
        case_study=None,
        policy=None,
        executor: str = "process",
        max_workers: int | None = None,
        chunk_size: int | None = None,
        cache_path=None,
        lanes: int = DEFAULT_LANES,
        max_designs: int = DEFAULT_MAX_DESIGNS,
        max_queue: int | None = DEFAULT_MAX_QUEUE,
        retry_after: float = 1.0,
        drain_grace: float = 30.0,
        startup_timeout: float = 30.0,
        shutdown_timeout: float = 30.0,
    ) -> None:
        from repro._validation import check_positive_int
        from repro.vulnerability.diversity import diversity_database

        if executor not in ("serial", "thread", "process"):
            raise EvaluationError(
                "executor must be 'serial', 'thread' or 'process' (every "
                f"lane builds its own), got {executor!r}"
            )
        check_positive_int(max_designs, "max_designs")
        self.max_designs = max_designs
        check_positive_int(lanes, "lanes")
        self.max_lanes = lanes
        if max_queue is not None:
            check_positive_int(max_queue, "max_queue")
        self.max_queue = max_queue
        if retry_after <= 0:
            raise EvaluationError(f"retry_after must be > 0, got {retry_after}")
        self.retry_after = retry_after
        for value, name in (
            (drain_grace, "drain_grace"),
            (startup_timeout, "startup_timeout"),
            (shutdown_timeout, "shutdown_timeout"),
        ):
            if value <= 0:
                raise EvaluationError(f"{name} must be > 0, got {value}")
        self.drain_grace = drain_grace
        self.startup_timeout = startup_timeout
        self.shutdown_timeout = shutdown_timeout
        self._case_study = case_study
        #: Every lane engine is built with these, plus its case study
        #: and database.
        self._engine_options = {
            "policy": policy,
            "executor": executor,
            "max_workers": max_workers,
            "chunk_size": chunk_size,
            "cache_path": cache_path,
        }
        # The diversity database serves heterogeneous (variants=true)
        # requests; homogeneous designs never consult it, so results
        # match a database-less CLI engine byte for byte.
        self.engine = self._new_engine(case_study, diversity_database())
        self._lanes = LanePool(lanes, self.engine)
        self._inflight: dict[str, asyncio.Future] = {}
        self._responses: dict[str, dict] = {}
        self._draining = False
        self._active_requests = 0
        #: Open client transports, so a forced stop can sever them
        #: instead of leaving blocked clients to their own timeouts.
        self._connections: set = set()
        #: Monotonic suffix making deadline-bearing and streaming
        #: requests dedup-unique (separate budgets / separate wires
        #: must not share a future).
        self._unique_serial = 0
        self._counters = {
            "requests_total": 0,
            "dedup_hits": 0,
            "response_cache_hits": 0,
            "computed": 0,
            "errors": 0,
            "rejected": 0,
        }
        self._latency: dict[str, dict] = {}
        self._started = time.monotonic()
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def run(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        announce: bool = True,
    ) -> None:
        """Serve until interrupted (blocking; the ``repro serve`` body)."""
        configure_access_logs()
        asyncio.run(self._serve(host, port, announce))

    async def _serve(self, host: str, port: int, announce: bool) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            # Graceful drain on SIGTERM.  Only possible when the loop
            # runs on the main thread (the CLI `repro serve` path);
            # start_in_thread services are stopped via stop() instead.
            self._loop.add_signal_handler(signal.SIGTERM, self._begin_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        server = await asyncio.start_server(self._handle, host, port)
        self.address = server.sockets[0].getsockname()[:2]
        if announce:
            print(
                f"repro serve: http://{self.address[0]}:{self.address[1]} "
                f"(endpoints: POST /v1/sweep, POST /v1/timeline, "
                f"GET /v1/healthz; executor {self.engine.executor.name}, "
                f"{self.max_lanes} lane(s), "
                f"budget {self.max_designs} designs/request)",
                flush=True,
            )
        async with server:
            await self._stop_event.wait()
        # A forced stop can leave handlers mid-request; close their
        # transports so blocked clients see EOF instead of hanging
        # until their own timeout.
        for writer in list(self._connections):
            writer.close()

    def _begin_drain(self) -> None:
        """SIGTERM entry: drain gracefully; a second signal forces stop."""
        if self._stop_event is None:
            return
        if self._draining:
            _logger.info("second SIGTERM: forcing immediate stop")
            self._stop_event.set()
            return
        self._draining = True
        _DRAINING.set(1)
        _logger.info(
            "SIGTERM: draining (%d in flight, %d active request(s), "
            "grace %.0fs)",
            len(self._inflight),
            self._active_requests,
            self.drain_grace,
        )
        assert self._loop is not None
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        """Wait for in-flight work (bounded by ``drain_grace``), then stop."""
        grace_ends = time.monotonic() + self.drain_grace
        while (
            (self._inflight or self._active_requests)
            and time.monotonic() < grace_ends
        ):
            await asyncio.sleep(0.05)
        assert self._stop_event is not None
        self._stop_event.set()

    def start_in_thread(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "ServiceClient":
        """Serve from a daemon thread; returns a ready client.

        ``port=0`` binds an ephemeral port (see :attr:`address`).  Used
        by tests and embedding applications; pair with :meth:`stop`.
        """
        if self._thread is not None:
            raise EvaluationError("service already started")
        started = threading.Event()

        def _target() -> None:
            async def _main() -> None:
                started.set()
                await self._serve(host, port, announce=False)

            asyncio.run(_main())

        self._thread = threading.Thread(
            target=_target, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=self.startup_timeout):
            raise EvaluationError(
                f"service thread did not enter its event loop within "
                f"the startup_timeout of {self.startup_timeout:.1f}s "
                f"(thread alive: {self._thread.is_alive()})"
            )
        # The event fires just before the socket binds; poll readiness.
        bind_deadline = time.monotonic() + self.startup_timeout
        while self.address is None:
            if not self._thread.is_alive():
                raise EvaluationError(
                    f"service thread died before binding {host}:{port} "
                    "(bad address, port in use, or a loop-startup error "
                    "— see the thread's traceback on stderr)"
                )
            if time.monotonic() > bind_deadline:
                raise EvaluationError(
                    f"service did not bind {host}:{port} within the "
                    f"startup_timeout of {self.startup_timeout:.1f}s"
                )
            time.sleep(0.01)
        client = ServiceClient(self.address[0], self.address[1])
        client.wait_until_ready(timeout=self.startup_timeout)
        return client

    def stop(self) -> None:
        """Stop a :meth:`start_in_thread` server (idempotent).

        Raises a descriptive :class:`~repro.errors.EvaluationError` if
        the serving thread is still alive after ``shutdown_timeout``
        seconds (an in-flight request stuck past the bound) — the
        thread is a daemon, so abandoning it cannot hang interpreter
        exit.
        """
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:  # loop already closed
                pass
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=self.shutdown_timeout)
            if thread.is_alive():
                raise EvaluationError(
                    f"service thread still serving after the "
                    f"shutdown_timeout of {self.shutdown_timeout:.1f}s "
                    f"({len(self._inflight)} computation(s) in flight, "
                    f"{self._active_requests} active request(s)); "
                    "abandoning the daemon thread"
                )

    def close(self) -> None:
        """Stop serving and release every lane's warm-pool resources."""
        if self._closed:
            return
        self._closed = True
        self.stop()
        self._lanes.close(timeout=self.shutdown_timeout)
        self.engine.close()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        started = time.perf_counter()
        request = None
        extra_headers: dict[str, str] = {}
        self._active_requests += 1
        self._connections.add(writer)
        try:
            try:
                request = await self._read_request(reader)
                if request is None:
                    status, payload = 400, api.error_payload(
                        api.ERROR_INVALID_REQUEST, "malformed HTTP request"
                    )
                else:
                    result = await self._dispatch(*request)
                    if isinstance(result, _StreamPlan):
                        status = await self._write_stream(writer, result)
                        self._log_access(
                            request, status, time.perf_counter() - started
                        )
                        return
                    status, payload, extra_headers = result
            except (ConnectionError, asyncio.IncompleteReadError):
                writer.close()
                return
            except asyncio.CancelledError:
                # Forced-stop teardown cancelled this handler; end the
                # task quietly (re-raising makes asyncio's stream
                # callback log a spurious traceback at loop close).
                writer.close()
                return
            except Exception as exc:  # never leak a traceback as a hang
                self._counters["errors"] += 1
                _SERVICE_ERRORS.inc()
                status, payload = 500, api.error_payload(
                    api.ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
                )
            if isinstance(payload, str):
                # Pre-rendered text (the Prometheus exposition).
                body = payload.encode()
                content_type = _PROMETHEUS_CONTENT_TYPE
            else:
                body = (json.dumps(payload, indent=2) + "\n").encode()
                content_type = "application/json"
            header_lines = "".join(
                f"{name}: {value}\r\n" for name, value in extra_headers.items()
            )
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{header_lines}"
                "Connection: close\r\n\r\n"
            ).encode()
            try:
                writer.write(head + body)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # client went away
                pass
            self._log_access(request, status, time.perf_counter() - started)
        finally:
            self._active_requests -= 1
            self._connections.discard(writer)

    @staticmethod
    def _log_access(request, status: int, seconds: float) -> None:
        if not _access_logger.isEnabledFor(logging.INFO):
            return
        method, path = (request[0], request[1]) if request else ("-", "-")
        _access_logger.info(
            json.dumps(
                {
                    "time": time.strftime(
                        "%Y-%m-%dT%H:%M:%S%z", time.localtime()
                    ),
                    "method": method,
                    "path": path,
                    "status": status,
                    "duration_ms": round(seconds * 1000.0, 3),
                },
                sort_keys=True,
            )
        )

    @staticmethod
    async def _read_request(reader):
        """``(method, path, body, headers)`` of one request, else None.

        *headers* maps lower-cased names to values (last wins) — enough
        for content-length framing and ``Accept`` negotiation.
        """
        line = await reader.readline()
        parts = line.decode("latin1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return None
        if length < 0 or length > _MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], body, headers

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes, headers=None
    ):
        """``(status, payload, headers)`` of one request, or a stream plan."""
        self._counters["requests_total"] += 1
        base = path[3:] if path.startswith("/v1/") else None
        _REQUESTS.inc(endpoint=base if base in _ENDPOINTS else "other")
        if base in ("/healthz", "/metrics"):
            if method != "GET":
                return _error(405, api.ERROR_METHOD_NOT_ALLOWED, f"{path} is GET-only")
            if base == "/healthz":
                return 200, self.healthz(), {}
            accept = (headers or {}).get("accept", "")
            if any(token in accept for token in _PROMETHEUS_ACCEPT):
                self._sync_registry()
                return 200, observability.REGISTRY.to_prometheus(), {}
            return 200, self.metrics(), {}
        if base not in ("/sweep", "/timeline"):
            return _error(
                404,
                api.ERROR_NOT_FOUND,
                f"unknown path {path!r}; endpoints: POST /v1/sweep, "
                "POST /v1/timeline, GET /v1/healthz, GET /v1/metrics",
            )
        if method != "POST":
            return _error(405, api.ERROR_METHOD_NOT_ALLOWED, f"{path} is POST-only")
        try:
            request = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _error(400, api.ERROR_INVALID_REQUEST, f"invalid JSON body: {exc}")
        if not isinstance(request, dict):
            return _error(
                400, api.ERROR_INVALID_REQUEST, "request body must be a JSON object"
            )
        start = time.perf_counter()
        try:
            req, key, job, deadline, design_count = self._prepare(base, request)
        except ReproError as exc:
            return self._failed(base, start, exc)
        if req.stream:
            return await self._start_stream(
                base, req, key, job, deadline, design_count, start
            )
        response = self._responses.get(key)
        if response is not None:
            self._counters["response_cache_hits"] += 1
            _SERVICE_CACHE.inc(tier="response")
            self._record_latency(base, time.perf_counter() - start)
            return 200, response, {}
        loop = asyncio.get_running_loop()
        future = self._inflight.get(key)
        if future is not None:
            # Identical request already computing: one computation,
            # many responders.
            self._counters["dedup_hits"] += 1
            _SERVICE_CACHE.inc(tier="dedup")
        else:
            rejected = self._reject_new_computation(base, start)
            if rejected is not None:
                return rejected
            future = loop.create_future()
            self._inflight[key] = future
            submit = self._lane_submit(req, job)
            loop.create_task(self._compute_job(key, submit, future))
        try:
            if deadline is None:
                response = await future
            else:
                # Shield the computation: a blown budget abandons the
                # wait (prompt 504), never cancels the shared engine
                # work — the memo still banks the eventual result.
                remaining = deadline.remaining()
                if remaining <= 0.0:
                    raise DeadlineExceeded(
                        f"deadline of {deadline.budget * 1000.0:.0f} ms "
                        "exceeded before the request reached the engine"
                    )
                response = await asyncio.wait_for(
                    asyncio.shield(future), timeout=remaining
                )
        except (DeadlineExceeded, asyncio.TimeoutError) as exc:
            future.add_done_callback(_swallow_abandoned_error)
            budget_ms = deadline.budget * 1000.0 if deadline else None
            if not isinstance(exc, DeadlineExceeded):
                exc = DeadlineExceeded(
                    f"deadline of {budget_ms:.0f} ms exceeded while the "
                    "request was queued or computing"
                )
            return self._failed(
                base, start, exc, "deadline", {"deadline_ms": budget_ms}
            )
        except ReproError as exc:
            return self._failed(base, start, exc)
        self._record_latency(base, time.perf_counter() - start)
        return 200, response, {}

    def _failed(self, base, start, exc, outcome="errors", detail=None):
        """Count a failed request and answer with its typed error.

        Failing requests stay visible in the latency aggregates, under
        the *outcome* class.
        """
        self._counters["errors"] += 1
        _SERVICE_ERRORS.inc()
        self._record_latency(base, time.perf_counter() - start, outcome=outcome)
        status, code = api.error_status(exc)
        return _error(status, code, str(exc), detail)

    def _reject_new_computation(self, base: str, start: float):
        """The 503 response if admission is refused, else None."""
        rejection = self._admission_rejection()
        if rejection is None:
            return None
        self._counters["rejected"] += 1
        _SERVICE_REJECTED.inc()
        self._record_latency(
            base, time.perf_counter() - start, outcome="rejected"
        )
        status, payload, _ = _error(
            503,
            api.ERROR_SATURATED,
            f"service saturated: {rejection}; "
            f"retry after {self.retry_after:g}s",
            {"retry_after_s": self.retry_after, "reason": rejection},
        )
        return status, payload, {"Retry-After": str(max(1, round(self.retry_after)))}

    def _admission_rejection(self) -> str | None:
        """Why a *new* computation cannot be admitted now (None = admit)."""
        if self._draining:
            return "draining after SIGTERM, not accepting new computations"
        if self.max_queue is not None and len(self._inflight) >= self.max_queue:
            return (
                f"compute queue full ({len(self._inflight)} computation(s) "
                f"in flight >= max_queue {self.max_queue})"
            )
        return None

    async def _compute_job(
        self, key: str, submit, future: asyncio.Future, remember: bool = True
    ) -> None:
        """Queue the job on its lane; fan the settled result out."""
        try:
            lane_future = submit()
            response = await asyncio.wrap_future(lane_future)
        except BaseException as exc:
            self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_exception(exc)
            return
        self._inflight.pop(key, None)
        self._counters["computed"] += 1
        _SERVICE_COMPUTED.inc()
        if remember:
            self._remember(key, response)
        if not future.cancelled():
            future.set_result(response)

    def _lane_submit(self, req, job):
        """A thunk queueing *job* on the request's context lane."""
        return partial(
            self._lanes.submit,
            req.context_label(),
            self._lane_engine_factory(req.space),
            job,
            req.priority,
        )

    def _new_engine(self, case_study, database):
        from repro.evaluation.engine import SweepEngine

        return SweepEngine(
            case_study=case_study, database=database, **self._engine_options
        )

    def _lane_engine_factory(self, space):
        """A builder for a fresh per-context engine (lane-thread-side)."""
        scaled = space.scaled

        def build():
            if scaled is not None:
                from repro.enterprise.scaled import scaled_case_study

                case_study, _ = scaled_case_study(*scaled)
                return self._new_engine(case_study, None)
            from repro.vulnerability.diversity import diversity_database

            return self._new_engine(self._case_study, diversity_database())

        return build

    def _prepare(self, base: str, request: dict):
        """Parsed request, dedup key, lane job and deadline.

        Raises :class:`~repro.errors.ReproError` on validation
        failures, including a blown design-count budget
        (:class:`~repro.evaluation.api.OverBudgetError`) — checked here,
        before the request can occupy the queue.  The deadline's clock
        starts here, at request receipt: queue wait spends the budget.
        """
        timeline = base == "/timeline"
        cls = api.TimelineRequest if timeline else api.SweepRequest
        req = cls.from_payload(request)
        deadline = (
            None
            if req.deadline_ms is None
            else Deadline.after_ms(req.deadline_ms)
        )
        designs = api.enumerate_space(req.space)
        if req.shard is not None:
            designs = [d for d in designs if req.shard.owns(d)]
        budget = (
            self.max_designs
            if req.max_designs is None
            else min(req.max_designs, self.max_designs)
        )
        if len(designs) > budget:
            raise api.OverBudgetError(
                f"request enumerates {len(designs)} designs, over the "
                f"budget of {budget}; shrink the space or raise the "
                "service's --max-designs"
            )
        if req.space.scaled is not None and designs:
            # Scaled spaces answer with the generated tier roles,
            # exactly like `repro sweep --scaled`.
            roles = list(designs[0].roles)
        else:
            roles = list(req.space.roles)
        space = {
            "roles": roles,
            "max_replicas": req.space.max_replicas,
            "max_total": req.space.max_total,
            "variants": req.space.variants,
        }
        if timeline:
            job = partial(
                self._timeline_job,
                space=space,
                designs=designs,
                times=req.times,
                campaign=req.campaign,
                method=req.method,
                deadline=deadline,
            )
        else:
            job = partial(
                self._sweep_job, space=space, designs=designs, deadline=deadline
            )
        canonical = req.canonical()
        if deadline is not None or req.stream:
            # A deadline carries its own budget and a stream is produced
            # on one wire: never share a computation (or a remembered
            # response) across requests.
            self._unique_serial += 1
            canonical["serial"] = self._unique_serial
        key = api.canonical_json(canonical)
        return req, key, job, deadline, len(designs)

    # -- streaming ----------------------------------------------------------

    async def _start_stream(
        self, base, req, key, job, deadline, design_count, start
    ):
        """Admit a ``stream: true`` request and hand back its plan."""
        rejected = self._reject_new_computation(base, start)
        if rejected is not None:
            return rejected
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        timeline = base == "/timeline"

        def emit_chunk(chunk) -> None:
            records = self._stream_records(chunk, timeline)
            loop.call_soon_threadsafe(queue.put_nowait, ("chunk", records))

        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        submit = self._lane_submit(req, partial(job, progress=emit_chunk))
        loop.create_task(self._compute_job(key, submit, future, remember=False))

        def _finish(fut) -> None:
            if fut.cancelled():
                queue.put_nowait(
                    ("error", EvaluationError("stream computation cancelled"))
                )
            elif fut.exception() is not None:
                queue.put_nowait(("error", fut.exception()))
            else:
                queue.put_nowait(("complete", fut.result()))

        future.add_done_callback(_finish)
        return _StreamPlan(
            endpoint=base,
            queue=queue,
            future=future,
            deadline=deadline,
            started=start,
            design_count=design_count,
        )

    @staticmethod
    def _stream_records(chunk, timeline: bool) -> list[dict]:
        """Serialised per-design records of one completed engine chunk."""
        if timeline:
            from repro.evaluation.timeline import timeline_payload

            return [timeline_payload(entry) for entry in chunk]
        from repro.evaluation.report import design_payload

        # Streamed sweep records carry no `pareto` flag — the front is
        # only known once the whole space is in; the `complete` event's
        # payload has it.
        return [design_payload(evaluation, False) for evaluation in chunk]

    async def _write_stream(self, writer, plan: _StreamPlan) -> int:
        """Write the NDJSON event stream; returns the logged status."""
        outcome = "ok"
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Connection: close\r\n\r\n"
            )
            writer.write(
                _ndjson(
                    {
                        "event": "start",
                        "schema_version": api.SCHEMA_VERSION,
                        "endpoint": plan.endpoint,
                        "design_count": plan.design_count,
                    }
                )
            )
            await writer.drain()
            while True:
                if plan.deadline is not None:
                    remaining = plan.deadline.remaining()
                    if remaining <= 0.0:
                        raise asyncio.TimeoutError
                    kind, value = await asyncio.wait_for(
                        plan.queue.get(), timeout=remaining
                    )
                else:
                    kind, value = await plan.queue.get()
                if kind == "chunk":
                    writer.write(_ndjson({"event": "chunk", "designs": value}))
                    await writer.drain()
                    continue
                if kind == "complete":
                    writer.write(
                        _ndjson({"event": "complete", "response": value})
                    )
                else:
                    outcome = "errors"
                    self._counters["errors"] += 1
                    _SERVICE_ERRORS.inc()
                    _, code = api.error_status(value)
                    writer.write(
                        _ndjson(
                            {
                                "event": "error",
                                "error": api.error_payload(code, str(value))[
                                    "error"
                                ],
                            }
                        )
                    )
                await writer.drain()
                break
        except asyncio.TimeoutError:
            # The stream is already committed as 200; the deadline
            # surfaces as a final error event instead of a 504 head.
            plan.future.add_done_callback(_swallow_abandoned_error)
            outcome = "deadline"
            self._counters["errors"] += 1
            _SERVICE_ERRORS.inc()
            budget_ms = plan.deadline.budget * 1000.0
            try:
                writer.write(
                    _ndjson(
                        {
                            "event": "error",
                            "error": api.error_payload(
                                api.ERROR_DEADLINE_EXCEEDED,
                                f"deadline of {budget_ms:.0f} ms exceeded "
                                "mid-stream",
                                {"deadline_ms": budget_ms},
                            )["error"],
                        }
                    )
                )
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass
        except (ConnectionError, BrokenPipeError):
            # Client went away mid-stream; the lane finishes and banks
            # the result in the memo regardless.
            plan.future.add_done_callback(_swallow_abandoned_error)
            outcome = "aborted"
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
        self._record_latency(
            plan.endpoint, time.perf_counter() - plan.started, outcome=outcome
        )
        return 200

    # The job bodies run on lane threads — the only place engines are
    # ever touched after construction — called with the lane's engine.

    def _sweep_job(
        self, engine, space: dict, designs, deadline=None, checkpoint=None,
        progress=None,
    ) -> dict:
        evaluations = engine.evaluate(
            designs, deadline=deadline, checkpoint=checkpoint, progress=progress
        )
        return sweep_response(
            space["roles"],
            space["max_replicas"],
            space["max_total"],
            space["variants"],
            engine.executor.name,
            evaluations,
        )

    def _timeline_job(
        self,
        engine,
        space: dict,
        designs,
        times,
        campaign,
        method: str = "uniformisation",
        deadline=None,
        checkpoint=None,
        progress=None,
    ) -> dict:
        timelines = engine.timeline(
            designs,
            times,
            campaign=campaign,
            method=method,
            deadline=deadline,
            checkpoint=checkpoint,
            progress=progress,
        )
        return timeline_response(
            space["roles"],
            space["max_replicas"],
            space["max_total"],
            space["variants"],
            engine.executor.name,
            campaign,
            times,
            timelines,
        )

    def _remember(self, key: str, response: dict) -> None:
        while len(self._responses) >= _MAX_REMEMBERED_RESPONSES:
            self._responses.pop(next(iter(self._responses)))
        self._responses[key] = response

    def _record_latency(
        self, path: str, seconds: float, outcome: str = "ok"
    ) -> None:
        """Fold one request's latency into the per-endpoint aggregates.

        Failing requests land in a separate ``<path>#<outcome>`` class
        so error latencies never skew the healthy aggregates — and are
        never silently dropped.  The path is the endpoint without its
        ``/v1`` prefix.
        """
        key = path if outcome == "ok" else f"{path}#{outcome}"
        stats = self._latency.setdefault(
            key,
            {
                "count": 0,
                "total_s": 0.0,
                "mean_s": 0.0,
                "min_s": None,
                "max_s": 0.0,
                "last_s": 0.0,
            },
        )
        stats["count"] += 1
        stats["total_s"] = round(stats["total_s"] + seconds, 6)
        stats["mean_s"] = round(stats["total_s"] / stats["count"], 6)
        previous_min = stats["min_s"]
        stats["min_s"] = round(
            seconds if previous_min is None else min(previous_min, seconds), 6
        )
        stats["max_s"] = round(max(stats["max_s"], seconds), 6)
        stats["last_s"] = round(seconds, 6)
        _REQUEST_SECONDS.observe(seconds, endpoint=path, outcome=outcome)

    # -- observability ------------------------------------------------------

    def _sync_registry(self) -> None:
        """Refresh registry series derived from live service state."""
        _IN_FLIGHT.set(len(self._inflight))
        _DRAINING.set(1 if self._draining else 0)

    def metrics(self) -> dict:
        """Request/cache counters, latency aggregates and the registry.

        ``counters``/``latency`` keep their original shapes;
        ``registry`` is the process-wide observability registry — every
        solver/cache/executor series, including telemetry merged back
        from pool workers.  ``GET /metrics`` with an ``Accept`` header
        naming ``text/plain`` (or ``prometheus``/``openmetrics``)
        serves the same registry in Prometheus text exposition format.
        """
        self._sync_registry()
        return {
            "counters": dict(self._counters, in_flight=len(self._inflight)),
            "latency": {path: dict(stats) for path, stats in self._latency.items()},
            "registry": observability.REGISTRY.to_dict(),
        }

    def healthz(self) -> dict:
        """Liveness plus engine/lane/pool observability.

        The ``engine`` section reports the default lane's engine (kept
        for compatibility); ``lanes`` reports the whole pool — bounds,
        evictions, parked jobs and per-lane context/queue/preemption
        telemetry.  The ``resilience`` section reports degradation
        state: drain status, queue occupancy against ``max_queue``,
        whether the persistent cache fell back to memory-only, and
        every registered circuit breaker (name → state/failures/opens).
        """
        cache = self.engine.persistent_cache
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "engine": _describe_engine(self.engine),
            "max_designs": self.max_designs,
            "lanes": self._lanes.describe(),
            "resilience": {
                "draining": self._draining,
                "active_requests": self._active_requests,
                "queue_depth": len(self._inflight),
                "max_queue": self.max_queue,
                "drain_grace_s": self.drain_grace,
                "retry_after_s": self.retry_after,
                "cache_degraded": bool(cache.degraded) if cache else False,
                "breakers": breaker_states(),
            },
            **self.metrics(),
        }


# -- client -------------------------------------------------------------------


class ServiceClient:
    """Small synchronous client for :class:`EvaluationService`.

    Used by the test-suite, the CI smoke, the shard coordinator and
    scripts; any HTTP client works — the API is plain JSON over
    HTTP/1.1.  :meth:`sweep`/:meth:`timeline` build the typed ``/v1``
    envelope from keyword arguments; :meth:`request` stays available
    for raw exchanges.

    Every request sends ``Connection: close`` explicitly — the service
    closes the socket after one exchange, and advertising it keeps a
    client from trying to reuse a drained server's half-open socket.

    A saturated or draining service answers 503 with a ``Retry-After``
    header; the client honours it under *retry* (a bounded
    :class:`~repro.resilience.RetryPolicy`, deterministic backoff) so
    benches and examples survive a briefly-unavailable server.  Pass
    ``retry=None`` to observe 503s directly.
    """

    #: Default 503 handling: three attempts, honouring ``Retry-After``
    #: (capped at ``max_delay``) and falling back to 0.2 s → 0.4 s.
    DEFAULT_RETRY = RetryPolicy(attempts=3, base_delay=0.2, max_delay=5.0)

    _SPACE_FIELDS = ("roles", "max_replicas", "max_total", "variants", "scaled")
    _SWEEP_OPTIONS = ("max_designs", "shard")
    _TIMELINE_OPTIONS = (
        "max_designs",
        "shard",
        "horizon",
        "points",
        "times",
        "campaign",
        "phases",
        "method",
    )
    _TOP_FIELDS = ("priority", "deadline_ms", "stream")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 300.0,
        retry: RetryPolicy | None = DEFAULT_RETRY,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retry = retry

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ):
        """``(status, parsed body)`` of one request (no status check).

        JSON responses are parsed; text responses (e.g. the Prometheus
        exposition negotiated via ``headers={"Accept": "text/plain"}``)
        come back as the raw string.  503 responses are retried under
        :attr:`retry`; the final attempt's response is returned as-is.
        """
        attempts = self.retry.attempts if self.retry is not None else 1
        for attempt in range(1, attempts + 1):
            status, parsed, retry_after = self._request_once(
                method, path, payload, headers
            )
            if status != 503 or attempt == attempts:
                return status, parsed
            pause = self.retry.delay(attempt)
            if retry_after is not None:
                pause = min(max(retry_after, pause), self.retry.max_delay)
            _logger.debug(
                "service %s answered 503 (attempt %d/%d); retrying in %.2fs",
                path,
                attempt,
                attempts,
                pause,
            )
            if pause > 0.0:
                time.sleep(pause)
        raise AssertionError("unreachable retry state")  # pragma: no cover

    def _request_once(
        self,
        method: str,
        path: str,
        payload: dict | None,
        headers: dict | None,
    ):
        """One HTTP exchange: ``(status, parsed body, retry_after)``."""
        import http.client

        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None if payload is None else json.dumps(payload).encode()
            request_headers = dict(headers or {})
            if body:
                request_headers.setdefault("Content-Type", "application/json")
            # One exchange per connection, stated on the wire: the
            # service always closes, and an explicit header keeps any
            # client stack from trying to reuse a dying socket.
            request_headers.setdefault("Connection", "close")
            connection.request(
                method, path, body=body, headers=request_headers
            )
            response = connection.getresponse()
            data = response.read()
            status = response.status
            content_type = response.getheader("Content-Type", "")
            retry_after_header = response.getheader("Retry-After")
        finally:
            connection.close()
        retry_after = None
        if retry_after_header is not None:
            try:
                retry_after = float(retry_after_header)
            except ValueError:
                pass
        if not content_type.startswith("application/json"):
            return status, data.decode(), retry_after
        try:
            return status, json.loads(data.decode()), retry_after
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise EvaluationError(
                f"service returned non-JSON for {path} (HTTP {status}): {exc}"
            ) from exc

    def _checked(self, method: str, path: str, payload: dict | None = None) -> dict:
        status, parsed = self.request(method, path, payload)
        if status != 200:
            detail = parsed.get("error", parsed) if isinstance(parsed, dict) else parsed
            raise EvaluationError(
                f"service {path} request failed (HTTP {status}): {detail}"
            )
        return parsed

    def _envelope(self, fields: dict, timeline: bool) -> dict:
        """The /v1 request envelope built from flat keyword arguments."""
        option_names = self._TIMELINE_OPTIONS if timeline else self._SWEEP_OPTIONS
        allowed = (
            set(self._SPACE_FIELDS) | set(option_names) | set(self._TOP_FIELDS)
        )
        unknown = sorted(set(fields) - allowed)
        if unknown:
            endpoint = "timeline" if timeline else "sweep"
            raise ValidationError(
                f"unknown {endpoint} field(s) {unknown}; "
                f"allowed: {sorted(allowed)}"
            )
        payload: dict = {}
        space = {k: fields[k] for k in self._SPACE_FIELDS if k in fields}
        options = {k: fields[k] for k in option_names if k in fields}
        if space:
            payload["space"] = space
        if options:
            payload["options"] = options
        for k in self._TOP_FIELDS:
            if k in fields:
                payload[k] = fields[k]
        return payload

    def sweep(self, **fields) -> dict:
        """``POST /v1/sweep`` built from flat keyword arguments."""
        return self._checked(
            "POST", "/v1/sweep", self._envelope(fields, timeline=False)
        )

    def timeline(self, **fields) -> dict:
        """``POST /v1/timeline`` built from flat keyword arguments."""
        return self._checked(
            "POST", "/v1/timeline", self._envelope(fields, timeline=True)
        )

    def sweep_stream(self, **fields):
        """Iterate ``POST /v1/sweep`` NDJSON events (``stream: true``)."""
        fields["stream"] = True
        return self._stream("/v1/sweep", self._envelope(fields, timeline=False))

    def timeline_stream(self, **fields):
        """Iterate ``POST /v1/timeline`` NDJSON events."""
        fields["stream"] = True
        return self._stream(
            "/v1/timeline", self._envelope(fields, timeline=True)
        )

    def _stream(self, path: str, payload: dict):
        """Yield parsed events from one streaming exchange."""
        import http.client

        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "POST",
                path,
                body=json.dumps(payload).encode(),
                headers={
                    "Content-Type": "application/json",
                    "Connection": "close",
                },
            )
            response = connection.getresponse()
            if response.status != 200:
                data = response.read().decode()
                try:
                    parsed = json.loads(data)
                except json.JSONDecodeError:
                    parsed = data
                detail = (
                    parsed.get("error", parsed)
                    if isinstance(parsed, dict)
                    else parsed
                )
                raise EvaluationError(
                    f"service {path} stream failed "
                    f"(HTTP {response.status}): {detail}"
                )
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            connection.close()

    def healthz(self) -> dict:
        return self._checked("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._checked("GET", "/v1/metrics")

    def metrics_text(self) -> str:
        """The Prometheus text exposition of ``GET /metrics``."""
        status, text = self.request(
            "GET", "/v1/metrics", headers={"Accept": "text/plain"}
        )
        if status != 200 or not isinstance(text, str):
            raise EvaluationError(
                f"Prometheus /metrics request failed (HTTP {status})"
            )
        return text

    def wait_until_ready(self, timeout: float = 30.0, interval: float = 0.2) -> dict:
        """Poll ``/healthz`` until the service answers (or *timeout*)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except (OSError, EvaluationError) as exc:
                if time.monotonic() >= deadline:
                    raise EvaluationError(
                        f"service at {self.host}:{self.port} not ready "
                        f"after {timeout:.0f}s: {exc}"
                    ) from exc
                time.sleep(interval)
