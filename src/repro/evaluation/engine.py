"""Parallel design-sweep engine over the security/availability pipeline.

This module is the scaling entry point for whole-design-space studies
(the paper's Figs. 6-7 generalised from five designs to thousands).  It
wraps :func:`repro.evaluation.combined.evaluate_design` behind a
:class:`SweepEngine` with pluggable executors and deterministic output.

The engine is design-kind agnostic: anything implementing the
:class:`~repro.enterprise.design.DesignSpec` protocol — homogeneous
:class:`~repro.enterprise.design.RedundancyDesign`, diverse-stack
:class:`~repro.enterprise.heterogeneous.HeterogeneousDesign`, or a mix —
is cached, chunked and dispatched identically.

Caching / batching contract
---------------------------
* **One memo.**  ``SweepEngine.evaluate`` and ``SweepEngine.timeline``
  are thin wrappers over one memo keyed by ``(kind, design, params)``
  (specs are hashable value objects; a timeline's params are its time
  grid and campaign).  Re-sweeping an overlapping space only pays for
  the results not seen before; ``clear_cache()`` resets it.  An
  optional sqlite tier sits behind the memo.
* **Chunked, incremental dispatch.**  Uncached designs are split into
  contiguous chunks; one dispatch loop hands them to the executor and
  memoises each chunk's results as it arrives, so a call stopped by a
  deadline or a preemption checkpoint keeps every finished chunk.
* **One evaluator pair.**  The serial executor runs every chunk over
  the engine's long-lived ``SecurityEvaluator``/``AvailabilityEvaluator``
  pair (one lower-layer SRN solve per server group, that is per role or
  variant; the upper-layer COA is closed-form).  The process executor
  solves those aggregates in the parent and hands them to every pool
  worker as pool-initializer arguments, so workers never re-solve the
  lower layer and chunks carry only designs.
* **Deterministic ordering.**  Results are always returned in input
  order, regardless of executor: chunks are indexed at submission and
  reassembled positionally.  Every executor produces byte-identical
  results.  A memo or disk hit answers for the requested design: equal
  specs built in a different role order get their own labels back.
* **Failure reporting.**  A design that fails inside any executor
  raises an error carrying the design label (a
  :class:`~repro.errors.ValidationError` for bad input, otherwise an
  :class:`~repro.errors.EvaluationError` with the original traceback);
  both always pickle.  A worker that dies outright surfaces the failing
  batch's design labels instead of a bare ``BrokenProcessPool``.

Executors
---------
``"serial"``
    In-process loop; zero overhead, the default.
``"process"``
    ``concurrent.futures.ProcessPoolExecutor``; one chunk per task.
Custom executors implement :class:`Executor` (an ``iter_run(fn,
batches)`` generator yielding results in batch order) and can be passed
directly.

Warm pools
----------
A process pool starts on first use and stays warm until
:meth:`Executor.close` (or :meth:`SweepEngine.close`; use the engine as
a context manager).  A single chunk with no live pool runs in-process
instead of spawning one.  The engine keeps one growing table of the
server groups it has primed workers with: a dispatch that adds an
entry recycles the pool once so fresh workers get the larger table;
every other dispatch, new replica counts over known stacks included,
reuses the warm pool.  A worker death (``BrokenExecutor``) recycles the
pool — shutdown, respawn, re-run the initializer — and retries the
batches not yet yielded under the executor's
:class:`~repro.resilience.RetryPolicy` (one retry by default); chunk
evaluation is pure and deterministic, so the retry is byte-identical to
an undisturbed run.

Every call can carry a :class:`~repro.resilience.Deadline` and a
preemption checkpoint: both are checked before dispatch and at every
chunk boundary the dispatch loop consumes (the serial executor also
checks at chunk entry), raising the typed
:class:`~repro.errors.DeadlineExceeded` — or the checkpoint's own
signal — instead of finishing work nobody is waiting for.
"""

from __future__ import annotations

import logging
import os
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import closing
from dataclasses import replace
from functools import partial
from typing import Any

from repro import observability
from repro._validation import check_positive_int
from repro.availability.aggregation import ServiceAggregate
from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import DesignSpec
from repro.enterprise.heterogeneous import design_tiers
from repro.errors import EvaluationError
from repro.evaluation.availability import AvailabilityEvaluator, GroupKey
from repro.evaluation.combined import (
    DesignEvaluation,
    evaluate_designs_shared,
    labelled,
)
from repro.evaluation.security import SecurityEvaluator
from repro.observability import tracing
from repro.resilience.deadline import Deadline
from repro.resilience.faults import active_plan, fault_point
from repro.resilience.retry import RetryPolicy
from repro.patching.policy import CriticalVulnerabilityPolicy, PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "SweepEngine",
]

_logger = logging.getLogger(__name__)

_CACHE_LOOKUPS = observability.counter(
    "repro_engine_cache_requests_total",
    "Engine result-cache lookups by tier and outcome.",
)
_MEMO_HITS = _CACHE_LOOKUPS.labels(tier="memo", outcome="hit")
_DISK_TIER_HITS = _CACHE_LOOKUPS.labels(tier="disk", outcome="hit")
_MEMO_MISSES = _CACHE_LOOKUPS.labels(tier="memo", outcome="miss")
_POOL_RECYCLES = observability.counter(
    "repro_pool_recycles_total",
    "Persistent pools recycled after a worker death.",
)


class Executor:
    """Strategy interface: run ``fn`` over argument batches, in order."""

    name = "abstract"

    #: Parallelism hint used by the engine to size chunks: ``None`` means
    #: "no concurrency, hand me one batch"; pool-backed executors set it
    #: to their worker count.  Custom executors with real parallelism
    #: must set this, or they receive a single batch holding everything.
    max_workers: int | None = None

    def iter_run(
        self,
        fn: Callable[..., Any],
        batches: Sequence[tuple],
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        key: object = None,
    ):
        """Yield ``fn(*batch)`` for each batch, in batch order.

        *initializer* (called with *initargs*) primes every pool worker
        before it runs a batch — a process sweep hands workers the
        lower-layer aggregates this way.  *key* identifies that priming:
        a warm pool is reused while the key matches and recycled when it
        changes (``None`` never matches).  In-process executors have no
        workers to prime and ignore all three.
        """
        raise NotImplementedError

    def run(self, fn: Callable[..., Any], batches: Sequence[tuple], **priming) -> list:
        """:meth:`iter_run` realised as a list aligned with *batches*."""
        return list(self.iter_run(fn, batches, **priming))

    def close(self) -> None:
        """Release the executor's pool, if it has one (idempotent)."""


class SerialExecutor(Executor):
    """In-process executor (the reference semantics)."""

    name = "serial"

    def iter_run(self, fn, batches, initializer=None, initargs=(), key=None):
        for batch in batches:
            yield fn(*batch)


class ProcessExecutor(Executor):
    """``ProcessPoolExecutor``-backed executor with ordered results.

    The pool is created on first use, kept warm across calls, recycled
    when a worker dies, and torn down by :meth:`close` — see the module
    docstring.  A dispatch interrupted by a worker death is retried
    under *retry_policy* (default: one immediate retry — the pool
    respawn is itself the backoff).
    """

    name = "process"

    #: Recycle-and-retry after worker death: one retry, no sleep.
    DEFAULT_RETRY = RetryPolicy(attempts=2, base_delay=0.0)

    def __init__(
        self,
        max_workers: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_workers is not None:
            check_positive_int(max_workers, "max_workers")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.retry_policy = retry_policy or self.DEFAULT_RETRY
        self._pool = None
        #: Identity of the priming the current pool was built with; a
        #: differing key on the next primed dispatch recycles the pool.
        self._pool_key: object = None
        self._initializer: Callable[..., None] | None = None
        self._initargs: tuple = ()
        #: Pools recycled after a worker death (observability counter).
        self.recycle_count = 0

    @property
    def live(self) -> bool:
        """Whether a warm pool is up."""
        return self._pool is not None

    def iter_run(self, fn, batches, initializer=None, initargs=(), key=None):
        """Submit all batches, yield results in order, recycle on death.

        A worker death resubmits only the batches not yet *yielded* —
        already-consumed results are never produced twice, so consumers
        see exactly one result per batch and the stream stays
        byte-identical to an undisturbed run (chunk evaluation is pure).
        Batches still queued when the consumer stops early are
        cancelled.
        """
        if not batches:
            return
        if initializer is not None:
            self._prime(initializer, initargs, key)
        elif len(batches) == 1 and self._pool is None:
            # A single batch gains nothing from spawning a pool.
            yield fn(*batches[0])
            return
        position = 0
        attempt = 1
        while True:
            pool = self._ensure_pool()
            futures: list = []
            try:
                try:
                    futures = [
                        pool.submit(fn, *batch) for batch in batches[position:]
                    ]
                except BrokenExecutor as exc:
                    raise EvaluationError(
                        f"{self.name} pool broke before dispatching "
                        f"{len(batches) - position} batch(es); a worker died "
                        f"while the pool was idle: {exc!r}"
                    ) from exc
                for future in futures:
                    try:
                        result = future.result()
                    except BrokenExecutor as exc:
                        # Every unfinished future raises once the pool
                        # breaks; this batch is only the first to surface
                        # it — the dead worker may have run any of them.
                        raise EvaluationError(
                            f"{self.name} pool broke while batch "
                            f"{position + 1}/{len(batches)}"
                            f"{_batch_labels(batches[position])} was pending; a "
                            "worker died before reporting a result (crash, "
                            "out-of-memory or failed initializer) and may "
                            f"have been running any unfinished batch: {exc!r}"
                        ) from exc
                    yield result
                    position += 1
                return
            except EvaluationError as exc:
                if not self._worker_died(exc):
                    raise
                # Fresh workers re-run the stored initializer with the
                # stored aggregate table.  Broken on every
                # attempt means something systematic (a failing
                # initializer, OOM): raise, leaving no zombie pool.
                self._shutdown_pool()
                if attempt >= self.retry_policy.attempts:
                    raise
                self._note_recycle(exc, len(batches) - position)
                pause = self.retry_policy.delay(attempt)
                if pause > 0.0:
                    time.sleep(pause)
                attempt += 1
            finally:
                for future in futures:
                    future.cancel()

    # -- pool lifecycle -------------------------------------------------------

    def _prime(
        self, initializer: Callable[..., None], initargs: tuple, key: object
    ) -> None:
        """Adopt a worker priming; a changed key recycles the pool."""
        if self._pool is not None and (key is None or key != self._pool_key):
            self._shutdown_pool()
        self._initializer = initializer
        self._initargs = initargs
        self._pool_key = key

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._pool

    @staticmethod
    def _worker_died(exc: BaseException) -> bool:
        return isinstance(exc.__cause__, BrokenExecutor)

    def _note_recycle(self, exc: BaseException, batch_count: int) -> None:
        self.recycle_count += 1
        _POOL_RECYCLES.inc(executor=self.name)
        _logger.debug(
            "%s pool broke (%r); recycling (recycle #%d) and "
            "retrying %d batch(es)",
            self.name,
            exc.__cause__,
            self.recycle_count,
            batch_count,
        )

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Tear down the warm pool (idempotent)."""
        self._shutdown_pool()
        self._initializer = None
        self._initargs = ()
        self._pool_key = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _serial_factory(max_workers: int | None) -> Executor:
    if max_workers is not None:
        raise EvaluationError(
            "max_workers requires the 'process' executor; the serial "
            "executor runs everything in-process"
        )
    return SerialExecutor()


_EXECUTORS: dict[str, Callable[[int | None], Executor]] = {
    "serial": _serial_factory,
    "process": ProcessExecutor,
}


def _resolve_executor(
    executor: str | Executor, max_workers: int | None
) -> Executor:
    if isinstance(executor, Executor):
        if max_workers is not None:
            raise EvaluationError(
                "max_workers only applies to named executors; configure "
                f"the {type(executor).__name__} instance directly"
            )
        return executor
    factory = _EXECUTORS.get(executor)
    if factory is None:
        raise EvaluationError(
            f"unknown executor {executor!r}; choose from {sorted(_EXECUTORS)} "
            "or pass an Executor instance"
        )
    return factory(max_workers)


#: Design labels quoted in failure messages before eliding the rest; a
#: large chunk would otherwise inflate the exception with every label.
_MAX_BATCH_LABELS = 8


def _batch_labels(batch: tuple) -> str:
    """Human-readable design labels hidden inside an argument batch.

    Bounded: at most :data:`_MAX_BATCH_LABELS` labels are spelled out,
    the rest collapse into an "… and N more" suffix.
    """
    for element in reversed(batch):
        if isinstance(element, (list, tuple)) and element:
            items = list(element)
            labels = [
                getattr(item, "label", None)
                for item in items[:_MAX_BATCH_LABELS]
            ]
            if all(label is not None for label in labels):
                more = (
                    ""
                    if len(items) <= _MAX_BATCH_LABELS
                    else f", … and {len(items) - _MAX_BATCH_LABELS} more"
                )
                return f" (designs: {', '.join(labels)}{more})"
    return ""


def _checked_chunk(
    deadline: Deadline | None,
    checkpoint: Callable[[], None] | None,
    fn: Callable[..., Any],
    *args: Any,
) -> Any:
    """In-process chunk wrapper: deadline and preemption at chunk entry.

    *checkpoint* is the service's priority seam — it raises (a
    preemption signal the caller catches) when a higher-priority
    request is waiting, so batch sweeps stop at the next chunk boundary
    exactly like an exhausted deadline does.
    """
    if deadline is not None:
        deadline.check("chunk evaluation")
    if checkpoint is not None:
        checkpoint()
    return fn(*args)


def _chunk(
    evaluators: Callable[[], tuple],
    kind: str,
    params: tuple,
    designs: Sequence[DesignSpec],
    telemetry: dict | None = None,
) -> list:
    """Chunk entry point: evaluate *designs* with one evaluator pair.

    *evaluators* is the evaluator source, a zero-argument callable
    returning ``(security, availability, case_study, policy)``: the
    engine's own long-lived pair (in-process chunks) or
    :func:`_worker_evaluators` (the pair a pool worker's initializer
    primed).  *kind* is ``"evaluation"`` or ``"timeline"``; a
    timeline's *params* are ``(times, campaign)``.
    """
    fault_point("worker.chunk", worker_only=True)
    return observability.capture(
        telemetry, lambda: _evaluate_chunk(evaluators(), kind, params, designs)
    )


def _evaluate_chunk(pair: tuple, kind: str, params: tuple, designs) -> list:
    security, availability, case_study, policy = pair
    if kind == "evaluation":
        with tracing.span("chunk:evaluate", designs=len(designs)):
            return evaluate_designs_shared(
                designs,
                case_study,
                policy,
                security_evaluator=security,
                availability_evaluator=availability,
            )
    from repro.evaluation.timeline import evaluate_timelines_shared

    times, campaign = params
    with tracing.span("chunk:timeline", designs=len(designs), points=len(times)):
        return evaluate_timelines_shared(
            designs,
            times,
            case_study,
            policy,
            security_evaluator=security,
            availability_evaluator=availability,
            campaign=campaign,
        )


def _new_evaluator_pair(case_study, policy, database) -> tuple:
    """A fresh ``(security, availability, case_study, policy)`` pair."""
    return (
        SecurityEvaluator(case_study, database=database),
        AvailabilityEvaluator(case_study, policy, database=database),
        case_study,
        policy,
    )


#: This pool worker's evaluator pair, built by :func:`_initialize_worker`.
_WORKER_PAIR: tuple | None = None


def _initialize_worker(case_study, policy, database, aggregates) -> None:
    """Pool initializer: build this worker's primed evaluator pair.

    *aggregates* (``(role, variant)`` -> aggregate) are the parent's
    lower-layer Table V rows.  They arrive as initializer arguments,
    bit-exact, so no worker re-solves the lower layer and worker results
    are byte-identical to in-process ones.
    """
    global _WORKER_PAIR
    pair = _new_evaluator_pair(case_study, policy, database)
    pair[1].prime_aggregates(aggregates)
    _WORKER_PAIR = pair


def _worker_evaluators() -> tuple:
    """Evaluator source of pool workers: the pair the initializer built."""
    if _WORKER_PAIR is None:
        raise EvaluationError(
            "pool worker used before initialization; the pool initializer "
            "did not run"
        )
    return _WORKER_PAIR


def _answering(result, design: DesignSpec):
    """*result* bound to the requested *design*.

    The memo and the disk tier match specs by value, so a hit may carry
    an equal spec built in another role or variant order, whose label
    and ``counts`` read differently.  The numbers are the same: every
    evaluator reads a design in canonical order.
    """
    return result if result.design is design else replace(result, design=design)


def _map_chunk(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    telemetry: dict | None = None,
) -> list:
    """Worker entry point for :meth:`SweepEngine.map`."""
    fault_point("worker.chunk", worker_only=True)
    return observability.capture(
        telemetry, lambda: [fn(item) for item in items]
    )


class SweepEngine:
    """Evaluate design spaces with caching and pluggable parallelism.

    Parameters
    ----------
    case_study:
        Enterprise description (default: the paper's).
    policy:
        Patch policy (default: critical-only, base score > 8.0).
    executor:
        ``"serial"``, ``"process"`` or an :class:`Executor` instance.
        The process pool stays warm until :meth:`close`, so build
        process engines as context managers.
    max_workers:
        Worker cap for the process executor; rejected alongside an
        :class:`Executor` instance (configure the instance directly).
    chunk_size:
        Designs per executor task; defaults to an even split over
        ``4 * workers`` tasks (at least one design per task).
    database:
        Vulnerability database for variant lookups of heterogeneous
        designs (default: the case study's own database).
    cache_path:
        Optional sqlite file for a
        :class:`~repro.evaluation.cache.PersistentEvaluationCache`
        behind the in-memory memo: evaluations (and timelines) found on
        disk skip computation entirely, and fresh results are written
        back, so repeated CLI sweeps across sessions only pay for new
        designs.  Entries are keyed by ``DesignSpec.cache_key()`` plus a
        fingerprint of the case study / policy / database, so a cache
        file can never serve results from a different context.

    Examples
    --------
    >>> engine = SweepEngine()
    >>> evaluations = engine.sweep(["dns", "web"], max_replicas=2)
    >>> [e.design.total_servers for e in evaluations]
    [2, 3, 3, 4]
    """

    def __init__(
        self,
        case_study: EnterpriseCaseStudy | None = None,
        policy: PatchPolicy | None = None,
        executor: str | Executor = "serial",
        max_workers: int | None = None,
        chunk_size: int | None = None,
        database: VulnerabilityDatabase | None = None,
        cache_path=None,
    ) -> None:
        self.case_study = case_study if case_study is not None else paper_case_study()
        self.policy = policy if policy is not None else CriticalVulnerabilityPolicy()
        self.executor = _resolve_executor(executor, max_workers)
        if chunk_size is not None:
            check_positive_int(chunk_size, "chunk_size")
        self.chunk_size = chunk_size
        self.database = database
        self._evaluator_pair: tuple | None = None
        if cache_path is not None:
            from repro.evaluation.cache import PersistentEvaluationCache

            self.persistent_cache = PersistentEvaluationCache(cache_path)
        else:
            self.persistent_cache = None
        self._fingerprint: str | None = None
        #: Results keyed by ``(kind, design, params)``.
        self._memo: dict[tuple, Any] = {}
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        # Arm any REPRO_FAULTS plan now, in the coordinating process:
        # this materialises the shared one-shot token directory before
        # pool workers fork, so they inherit it through the environment.
        active_plan()
        # The lower-layer aggregates process-pool workers are primed
        # with.  Grows per distinct server group, never per design.
        self._primed: dict[GroupKey, ServiceAggregate] = {}

    # -- sweeping -----------------------------------------------------------

    def evaluate(
        self,
        designs: Iterable[DesignSpec],
        deadline: Deadline | None = None,
        checkpoint: Callable[[], None] | None = None,
        progress: Callable[[list], None] | None = None,
    ) -> list[DesignEvaluation]:
        """Evaluate *designs* (any mix of spec kinds), in input order.

        *deadline* bounds the call: the budget is checked before
        dispatch and at every chunk boundary, raising
        :class:`~repro.errors.DeadlineExceeded` once spent.  Results
        memoised by earlier calls are free, so a retried call only pays
        for designs the deadline cut off.

        *checkpoint* is called at the same chunk boundaries as the
        deadline check; raising from it aborts the sweep there — the
        service's batch-priority preemption seam.  Chunks finished
        before the abort stay memoised, so a resumed call pays only for
        the rest.  *progress* receives each chunk's evaluations as they
        complete (after memoisation; cached designs never reach it) —
        the streaming-response seam.  Any of the three splits a serial
        sweep into several chunks, so the boundaries actually occur.
        """
        designs = list(designs)
        with tracing.span("engine:evaluate", designs=len(designs)) as sp:
            return self._memoised(
                "evaluation", (), designs, sp, deadline, checkpoint, progress
            )

    def timeline(
        self,
        designs: Iterable[DesignSpec],
        times: Sequence[float],
        campaign=None,
        deadline: Deadline | None = None,
        checkpoint: Callable[[], None] | None = None,
        progress: Callable[[list], None] | None = None,
    ) -> list:
        """Patch timelines of *designs* over *times*, in input order.

        The transient companion of :meth:`evaluate`, over the same memo
        (keyed per design by time grid and campaign, and persisted on
        disk when a ``cache_path`` is configured), the same dispatch and
        the same deterministic ordering.  *campaign* optionally stages
        the rollout (:class:`~repro.patching.campaign.PatchCampaign`);
        see :func:`repro.evaluation.timeline.evaluate_timeline`.
        *deadline*, *checkpoint* and *progress* behave exactly as in
        :meth:`evaluate`.
        """
        designs = list(designs)
        params = (tuple(float(t) for t in times), campaign)
        with tracing.span(
            "engine:timeline", designs=len(designs), points=len(params[0])
        ) as sp:
            return self._memoised(
                "timeline", params, designs, sp, deadline, checkpoint, progress
            )

    def _memoised(
        self, kind, params, designs, span, deadline, checkpoint, progress
    ) -> list:
        """The memoised job core behind :meth:`evaluate`/:meth:`timeline`.

        Memo hits are free, disk hits are promoted into the memo, and
        the distinct remaining designs are dispatched in chunks whose
        results are memoised (and written to disk) as each arrives.
        Every result answers for the design this call asked for.
        """
        pending: list[DesignSpec] = []
        seen_pending: set[DesignSpec] = set()
        for design in designs:
            key = (kind, design, params)
            if key in self._memo:
                self._hits += 1
                _MEMO_HITS.inc()
                continue
            if self.persistent_cache is not None:
                stored = self.persistent_cache.get(
                    kind, self._disk_key(kind, design, params)
                )
                if stored is not None:
                    self._memo[key] = stored
                    self._disk_hits += 1
                    _DISK_TIER_HITS.inc()
                    continue
            if design not in seen_pending:
                self._misses += 1
                _MEMO_MISSES.inc()
                seen_pending.add(design)
                pending.append(design)
        span.add(pending=len(pending))
        if pending:
            split = any(seam is not None for seam in (deadline, checkpoint, progress))
            chunks = self._chunks(pending, split)
            for chunk_result in self._run_chunks(
                kind, params, chunks, deadline, checkpoint
            ):
                for result in chunk_result:
                    self._memo[(kind, result.design, params)] = result
                    if self.persistent_cache is not None:
                        self.persistent_cache.put(
                            kind,
                            self._disk_key(kind, result.design, params),
                            result,
                        )
                if progress is not None:
                    progress(list(chunk_result))
        return [
            _answering(self._memo[(kind, design, params)], design)
            for design in designs
        ]

    def sweep(
        self,
        roles: Sequence[str],
        max_replicas: int,
        max_total: int | None = None,
    ) -> list[DesignEvaluation]:
        """Enumerate and evaluate every homogeneous design of the space."""
        from repro.evaluation.sweep import enumerate_designs

        return self.evaluate(enumerate_designs(roles, max_replicas, max_total))

    def pareto(
        self,
        evaluations: Iterable[DesignEvaluation],
        after_patch: bool = True,
    ) -> list[DesignEvaluation]:
        """The (lower ASP, higher COA) Pareto front of *evaluations*."""
        from repro.evaluation.sweep import pareto_front

        return pareto_front(evaluations, after_patch=after_patch)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Ordered map of a picklable *fn* over *items* via the executor.

        The escape hatch for per-design measures beyond the standard
        snapshot (MTTC, survivability, cost): benchmarks and extensions
        fan out through the same executor without reimplementing
        chunking or ordering.
        """
        options = observability.telemetry_options()
        batches = [(fn, chunk, options) for chunk in self._chunks(list(items))]
        return [
            result
            for chunk_result in self._dispatch(_map_chunk, batches)
            for result in chunk_result
        ]

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release pool resources (idempotent).

        Shuts down the executor's warm pool and closes the persistent
        disk cache.  Use the context-manager form::

            with SweepEngine(executor="process") as engine:
                engine.evaluate(designs)
        """
        self.executor.close()
        if self.persistent_cache is not None:
            self.persistent_cache.close()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cache bookkeeping ----------------------------------------------------

    def clear_cache(self) -> None:
        """Drop memoised results and counters (the disk cache survives)."""
        self._memo.clear()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0

    @property
    def cache_info(self) -> dict[str, int]:
        """``{"hits", "misses", "size"}`` of the in-memory result cache
        (plus ``"disk_hits"`` when a persistent cache is configured)."""
        info = {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._memo),
        }
        if self.persistent_cache is not None:
            info["disk_hits"] = self._disk_hits
            info["disk_degraded"] = int(self.persistent_cache.degraded)
        return info

    # -- internal -------------------------------------------------------------

    def _evaluators(self) -> tuple:
        """Evaluator source: the engine's long-lived pair (lazily created).

        Shared across every in-process chunk this engine runs, and the
        solver of the aggregates process-pool workers are primed with —
        repeated sweeps only solve aggregates they have not seen before.
        """
        if self._evaluator_pair is None:
            _logger.debug(
                "creating the engine's shared evaluator pair (executor=%s)",
                self.executor.name,
            )
            self._evaluator_pair = _new_evaluator_pair(
                self.case_study, self.policy, self.database
            )
        return self._evaluator_pair

    def _worker_priming(self, designs: Sequence[DesignSpec]) -> dict[str, Any]:
        """Pool priming that covers every server group of *designs*.

        Folds their aggregates into the engine's primed table, solving
        only stacks not seen before; a bad design raises its labelled
        error here, before anything is submitted.  The table only grows,
        so the engine and the table's size form the pool key: a dispatch
        that adds an entry recycles the pool once, every other dispatch
        reuses it, and an executor shared between engines re-primes.
        """
        availability = self._evaluators()[1]
        primed = self._primed

        def fold(design: DesignSpec) -> None:
            for role, groups in design_tiers(design):
                for variant, _ in groups:
                    primed[(role, variant)] = availability.aggregate(role, variant)

        for design in designs:
            labelled(
                "precomputing aggregates for design", design, partial(fold, design)
            )
        return {
            "initializer": _initialize_worker,
            "initargs": (
                self.case_study,
                self.policy,
                self.database,
                dict(primed),
            ),
            "key": (self, len(primed)),
        }

    def _run_chunks(self, kind, params, chunks, deadline, checkpoint):
        """Dispatch *chunks* over the evaluator source the executor needs.

        Process pools get the pair their workers were primed with,
        except for a single chunk with no live pool, which runs
        in-process on the engine's own pair like the serial executor.
        """
        priming: dict[str, Any] = {}
        if isinstance(self.executor, ProcessExecutor) and (
            len(chunks) > 1 or self.executor.live
        ):
            priming = self._worker_priming(
                [design for chunk in chunks for design in chunk]
            )
            source = _worker_evaluators
        else:
            source = self._evaluators
        options = observability.telemetry_options()
        batches = [(source, kind, params, chunk, options) for chunk in chunks]
        return self._dispatch(_chunk, batches, deadline, checkpoint, **priming)

    def _dispatch(self, fn, batches, deadline=None, checkpoint=None, **priming):
        """The dispatch loop: yield each chunk's result as it arrives.

        Worker-process chunks come back wrapped in
        :class:`~repro.observability.ChunkTelemetry`; absorbing merges
        their metric deltas and spans into this process and unwraps the
        untouched results, so callers see the same shapes either way.

        *deadline* and *checkpoint* are checked before anything is
        submitted and at every chunk boundary the loop consumes, for
        every executor — a stop there forfeits at most the chunks
        computed ahead, which simply recompute on resume (chunk
        evaluation is pure).  The serial executor also checks at chunk
        entry, where closing over the checkpoint needs no pickling.
        """

        def check() -> None:
            if deadline is not None:
                deadline.check("chunk dispatch")
            if checkpoint is not None:
                checkpoint()

        check()
        if (deadline is not None or checkpoint is not None) and isinstance(
            self.executor, SerialExecutor
        ):
            fn = partial(_checked_chunk, deadline, checkpoint, fn)
        dispatched = time.time()
        with tracing.span(
            "engine:dispatch",
            executor=self.executor.name,
            chunks=len(batches),
        ), closing(self.executor.iter_run(fn, batches, **priming)) as results:
            for index, result in enumerate(results, start=1):
                yield observability.absorb(result, dispatched)
                if index < len(batches):
                    check()

    def _disk_key(self, kind: str, design: DesignSpec, params: tuple) -> str:
        """Persistent-cache key: context fingerprint + design identity.

        Timeline keys append the time grid, plus the campaign when
        there is one.
        """
        from repro.evaluation.cache import PersistentEvaluationCache, context_fingerprint

        if self._fingerprint is None:
            self._fingerprint = context_fingerprint(
                self.case_study, self.policy, self.database
            )
        parts: tuple = ()
        if kind == "timeline":
            times, campaign = params
            parts = (times,)
            if campaign is not None:
                parts += (campaign.cache_key(),)
        return PersistentEvaluationCache.entry_key(
            self._fingerprint, design.cache_key(), *parts
        )

    def _chunks(self, items: Sequence[Any], split: bool = False) -> list[Sequence[Any]]:
        """Contiguous chunks of *items*.

        *split* asks for several chunks even on a serial executor: under
        a deadline, a preemption checkpoint or a streaming consumer the
        chunk boundary is the abort / hand-off point.
        """
        if not items:
            return []
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            workers = self.executor.max_workers
            if workers is None:
                # Serial executors otherwise gain nothing from splitting;
                # one chunk keeps a single evaluator pair across designs.
                size = 4 if split else len(items)
            else:
                size = max(1, -(-len(items) // max(1, 4 * workers)))
        return [items[i : i + size] for i in range(0, len(items), size)]
