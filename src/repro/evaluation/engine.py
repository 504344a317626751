"""Design-sweep engine over the security/availability pipeline.

This module is the scaling entry point for whole-design-space studies
(the paper's Figs. 6-7 generalised from five designs to thousands).  It
wraps :func:`repro.evaluation.combined.evaluate_designs_shared` behind a
:class:`SweepEngine` with caching, chunking and deterministic output.

The engine is design-kind agnostic: anything implementing the
:class:`~repro.enterprise.design.DesignSpec` protocol — homogeneous
:class:`~repro.enterprise.design.RedundancyDesign`, diverse-stack
:class:`~repro.enterprise.heterogeneous.HeterogeneousDesign`, or a mix —
is cached, chunked and evaluated identically.

Caching / batching contract
---------------------------
* **One memo.**  ``SweepEngine.evaluate`` and ``SweepEngine.timeline``
  are thin wrappers over one memo keyed by ``(kind, design, params)``
  (specs are hashable value objects; a timeline's params are its time
  grid and campaign).  Re-sweeping an overlapping space only pays for
  the results not seen before; ``clear_cache()`` resets it.  An
  optional sqlite tier sits behind the memo; each finished chunk is
  written to it in one transaction.
* **Chunked, incremental dispatch.**  Uncached designs are split into
  contiguous chunks; one in-process loop evaluates them in turn and
  memoises each chunk's results as it finishes, so a call stopped by a
  deadline or a preemption checkpoint keeps every finished chunk.  A
  call is one chunk unless a deadline, a checkpoint or a progress
  callback needs chunk boundaries; then chunks hold 4 designs
  (``chunk_size`` overrides both).
* **One evaluator pair.**  Every chunk runs over the engine's
  long-lived ``SecurityEvaluator``/``AvailabilityEvaluator`` pair (one
  exploration of the server SRN, one lower-layer solve per distinct
  server stack, each chunk's new stacks solved in one stacked call; the
  upper-layer COA is closed-form).
* **Deterministic ordering.**  Results are always returned in input
  order, whatever the chunking, and are byte-identical across chunk
  sizes.  A memo or disk hit answers for the requested design: equal
  specs built in a different role order get their own labels back.
* **Failure reporting.**  A design that fails raises an error carrying
  the design label (a :class:`~repro.errors.ValidationError` for bad
  input, otherwise an :class:`~repro.errors.EvaluationError` with the
  original traceback).

Every call can carry a :class:`~repro.resilience.Deadline` and a
preemption checkpoint: both are checked before every chunk, raising the
typed :class:`~repro.errors.DeadlineExceeded` — or the checkpoint's own
signal — instead of finishing work nobody is waiting for.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace
from typing import Any

from repro import observability
from repro._validation import check_positive_int
from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import DesignSpec
from repro.evaluation.availability import AvailabilityEvaluator
from repro.evaluation.combined import DesignEvaluation, evaluate_designs_shared
from repro.evaluation.security import SecurityEvaluator
from repro.observability import tracing
from repro.resilience.deadline import Deadline
from repro.resilience.faults import active_plan
from repro.patching.policy import CriticalVulnerabilityPolicy, PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = ["SweepEngine"]

_logger = logging.getLogger(__name__)

_CACHE_LOOKUPS = observability.counter(
    "repro_engine_cache_requests_total",
    "Engine result-cache lookups by tier and outcome.",
)
_MEMO_HITS = _CACHE_LOOKUPS.labels(tier="memo", outcome="hit")
_DISK_TIER_HITS = _CACHE_LOOKUPS.labels(tier="disk", outcome="hit")
_MEMO_MISSES = _CACHE_LOOKUPS.labels(tier="memo", outcome="miss")


def _evaluate_chunk(pair: tuple, kind: str, params: tuple, designs) -> list:
    """Evaluate one chunk of *designs* with one evaluator pair.

    *pair* is ``(security, availability, case_study, policy)``; *kind*
    is ``"evaluation"`` or ``"timeline"``, and a timeline's *params*
    are ``(times, campaign)``.
    """
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


def _answering(result, design: DesignSpec):
    """*result* bound to the requested *design*.

    The memo and the disk tier match specs by value, so a hit may carry
    an equal spec built in another role or variant order, whose label
    and ``counts`` read differently.  The numbers are the same: every
    evaluator reads a design in canonical order.
    """
    return result if result.design is design else replace(result, design=design)


class SweepEngine:
    """Evaluate design spaces with caching and chunked dispatch.

    Parameters
    ----------
    case_study:
        Enterprise description (default: the paper's).
    policy:
        Patch policy (default: critical-only, base score > 8.0).
    chunk_size:
        Designs per chunk.  By default a call is one chunk, or chunks
        of 4 when a deadline, checkpoint or progress callback needs
        chunk boundaries.
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

    :meth:`for_space` builds the engine a request's design space
    evaluates under (the CLI and every service lane use it).

    Examples
    --------
    >>> from repro.evaluation.sweep import enumerate_designs
    >>> engine = SweepEngine()
    >>> evaluations = engine.evaluate(enumerate_designs(["dns", "web"], 2))
    >>> [e.design.total_servers for e in evaluations]
    [2, 3, 3, 4]
    """

    def __init__(
        self,
        case_study: EnterpriseCaseStudy | None = None,
        policy: PatchPolicy | None = None,
        chunk_size: int | None = None,
        database: VulnerabilityDatabase | None = None,
        cache_path=None,
    ) -> None:
        self.case_study = case_study if case_study is not None else paper_case_study()
        self.policy = policy if policy is not None else CriticalVulnerabilityPolicy()
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
        # Parse any REPRO_FAULTS plan now, so a malformed plan fails
        # when the engine is built rather than at the first fault point.
        active_plan()

    @classmethod
    def for_space(
        cls, space, case_study: EnterpriseCaseStudy | None = None, **options
    ) -> "SweepEngine":
        """The engine that evaluates *space* (an ``api.SpaceSpec``).

        A scaled space evaluates under its generated case study.  Any
        other space evaluates under *case_study* (default: the paper's)
        with the diversity database, which variant designs read and
        homogeneous ones never do, so a ``repro sweep``, a ``repro
        timeline`` and every ``repro serve`` lane share one context and
        its ``--cache`` entries.  *options* are the other constructor
        arguments.
        """
        if space.scaled is not None:
            from repro.enterprise.scaled import scaled_case_study

            case_study, _ = scaled_case_study(*space.scaled)
            return cls(case_study=case_study, **options)
        from repro.vulnerability.diversity import diversity_database

        return cls(case_study=case_study, database=diversity_database(), **options)

    # -- sweeping -----------------------------------------------------------

    def evaluate(
        self,
        designs: Iterable[DesignSpec],
        deadline: Deadline | None = None,
        checkpoint: Callable[[], None] | None = None,
        progress: Callable[[list], None] | None = None,
    ) -> list[DesignEvaluation]:
        """Evaluate *designs* (any mix of spec kinds), in input order.

        *deadline* bounds the call: the budget is checked before every
        chunk, raising :class:`~repro.errors.DeadlineExceeded` once
        spent.  Results
        memoised by earlier calls are free, so a retried call only pays
        for designs the deadline cut off.

        *checkpoint* is called at the same chunk boundaries as the
        deadline check; raising from it aborts the sweep there — the
        service's batch-priority preemption seam.  Chunks finished
        before the abort stay memoised, so a resumed call pays only for
        the rest.  *progress* receives each chunk's evaluations as they
        complete (after memoisation; cached designs never reach it) —
        the streaming-response seam.  Any of the three splits the call
        into chunks, so the boundaries actually occur.
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
        results are memoised (and written to disk, one transaction per
        chunk) as each arrives.
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
                    self.persistent_cache.put_many(
                        kind,
                        [
                            (self._disk_key(kind, result.design, params), result)
                            for result in chunk_result
                        ],
                    )
                if progress is not None:
                    progress(list(chunk_result))
        return [
            _answering(self._memo[(kind, design, params)], design)
            for design in designs
        ]

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close the persistent disk cache, if any (idempotent).

        Use the context-manager form::

            with SweepEngine(cache_path="results.db") as engine:
                engine.evaluate(designs)
        """
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
        """The engine's long-lived evaluator pair (lazily created).

        ``(security, availability, case_study, policy)``, shared by
        every chunk this engine runs, so repeated sweeps only solve
        lower-layer stacks they have not seen before.
        """
        if self._evaluator_pair is None:
            _logger.debug("creating the engine's shared evaluator pair")
            self._evaluator_pair = (
                SecurityEvaluator(self.case_study, database=self.database),
                AvailabilityEvaluator(
                    self.case_study, self.policy, database=self.database
                ),
                self.case_study,
                self.policy,
            )
        return self._evaluator_pair

    def _run_chunks(self, kind, params, chunks, deadline, checkpoint):
        """The dispatch loop: evaluate *chunks* in turn, yield each result.

        *deadline* and *checkpoint* are checked before every chunk, so a
        stop forfeits no finished chunk: the caller has memoised each
        result before asking for the next.
        """
        pair = self._evaluators()
        with tracing.span("engine:dispatch", chunks=len(chunks)):
            for chunk in chunks:
                if deadline is not None:
                    deadline.check("chunk dispatch")
                if checkpoint is not None:
                    checkpoint()
                yield _evaluate_chunk(pair, kind, params, chunk)

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

        One chunk unless *split* asks for boundaries: under a deadline,
        a preemption checkpoint or a streaming consumer the chunk
        boundary is the abort / hand-off point, so chunks hold 4 items.
        ``chunk_size`` overrides both.
        """
        if not items:
            return []
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            size = 4 if split else len(items)
        return [items[i : i + size] for i in range(0, len(items), size)]
