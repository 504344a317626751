"""Joint security + availability snapshots per design (Figs. 6-7 data).

Every entry point accepts any :class:`~repro.enterprise.design.DesignSpec`
— homogeneous :class:`~repro.enterprise.design.RedundancyDesign` and
diverse-stack :class:`~repro.enterprise.heterogeneous.HeterogeneousDesign`
flow through the same evaluators and produce the same
:class:`DesignEvaluation` shape, so sweeps and Pareto ranking can mix
design kinds freely.
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from typing import TypeVar

from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import DesignSpec
from repro.errors import EvaluationError, ReproError, ValidationError
from repro.evaluation.availability import AvailabilityEvaluator
from repro.evaluation.security import SecurityEvaluator
from repro.harm import SecurityMetrics
from repro.patching.policy import CriticalVulnerabilityPolicy, PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = [
    "DesignSnapshot",
    "DesignEvaluation",
    "evaluate_design",
    "evaluate_designs",
    "evaluate_designs_shared",
    "labelled",
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class DesignSnapshot:
    """One point of Figs. 6-7: security metrics plus COA.

    The COA reflects the patch schedule regardless of the security
    snapshot ("before patch" charts the security state before the cycle
    completes; servers are patched — and briefly down — either way).
    """

    security: SecurityMetrics
    coa: float

    def metric(self, name: str) -> float:
        """Look up a metric by paper abbreviation (incl. ``"COA"``)."""
        if name == "COA":
            return self.coa
        return float(self.security.as_dict()[name])


@dataclass(frozen=True)
class DesignEvaluation:
    """Before- and after-patch snapshots of one design (any spec kind)."""

    design: DesignSpec
    before: DesignSnapshot
    after: DesignSnapshot

    @property
    def label(self) -> str:
        """The design's paper-style label."""
        return self.design.label


def evaluate_design(
    design: DesignSpec,
    case_study: EnterpriseCaseStudy | None = None,
    policy: PatchPolicy | None = None,
    security_evaluator: SecurityEvaluator | None = None,
    availability_evaluator: AvailabilityEvaluator | None = None,
    database: VulnerabilityDatabase | None = None,
) -> DesignEvaluation:
    """Evaluate one design before and after patching.

    With no arguments beyond *design*, uses the paper's case study and
    critical-vulnerability policy.  Pass shared evaluator instances when
    scoring many designs so lower-layer solutions are reused; *database*
    supplies variant vulnerability records for heterogeneous designs
    (ignored when explicit evaluators are given).
    """
    if case_study is None:
        case_study = paper_case_study()
    if policy is None:
        policy = CriticalVulnerabilityPolicy()
    if security_evaluator is None:
        security_evaluator = SecurityEvaluator(case_study, database=database)
    if availability_evaluator is None:
        availability_evaluator = AvailabilityEvaluator(
            case_study, policy, database=database
        )

    coa = availability_evaluator.coa(design)
    return DesignEvaluation(
        design=design,
        before=DesignSnapshot(
            security=security_evaluator.before_patch(design), coa=coa
        ),
        after=DesignSnapshot(
            security=security_evaluator.after_patch(design, policy), coa=coa
        ),
    )


def evaluate_designs_shared(
    designs: Iterable[DesignSpec],
    case_study: EnterpriseCaseStudy,
    policy: PatchPolicy,
    database: VulnerabilityDatabase | None = None,
    security_evaluator: SecurityEvaluator | None = None,
    availability_evaluator: AvailabilityEvaluator | None = None,
) -> list[DesignEvaluation]:
    """Serial evaluation of *designs* with one shared evaluator pair.

    This is the chunk primitive of the sweep engine: the shared
    :class:`AvailabilityEvaluator` first solves the lower-layer stacks
    of every server group in the chunk that it has not solved yet, in
    one call (:meth:`AvailabilityEvaluator.solve_groups`), whatever mix
    of spec kinds the chunk holds.  Pass evaluator instances (e.g. a
    pool worker's primed pair) to reuse their caches.

    A failing design raises an error carrying the design label (see
    :func:`labelled`) — always picklable, so process-pool sweeps surface
    the real failure instead of a bare ``BrokenProcessPool``.
    """
    if security_evaluator is None:
        security_evaluator = SecurityEvaluator(case_study, database=database)
    if availability_evaluator is None:
        availability_evaluator = AvailabilityEvaluator(
            case_study, policy, database=database
        )
    designs = list(designs)
    availability_evaluator.solve_groups(designs, "evaluating design")
    return [
        labelled(
            "evaluating design",
            design,
            partial(
                evaluate_design,
                design,
                case_study=case_study,
                policy=policy,
                security_evaluator=security_evaluator,
                availability_evaluator=availability_evaluator,
            ),
        )
        for design in designs
    ]


def labelled(action: str, design: DesignSpec, fn: Callable[[], _T]) -> _T:
    """Call *fn* on behalf of *design*, labelling any failure with it.

    Messages read ``"<action> '<label>' failed: <Type>: <message>"``.  A
    :class:`~repro.errors.ValidationError` re-raises as a
    ``ValidationError`` (bad input stays the caller's mistake across the
    process pool); other domain errors re-raise as
    :class:`~repro.errors.EvaluationError`, their messages already
    self-explanatory.  Unexpected exceptions additionally embed the
    formatted traceback.  The chain is dropped, so the error survives
    the process-pool pickle boundary whatever the original carried.
    """
    try:
        return fn()
    except ReproError as exc:
        error = ValidationError if isinstance(exc, ValidationError) else EvaluationError
        raise error(
            f"{action} {design.label!r} failed: {type(exc).__name__}: {exc}"
        ) from None
    except Exception as exc:
        raise EvaluationError(
            f"{action} {design.label!r} failed: "
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        ) from None


def evaluate_designs(
    designs: Iterable[DesignSpec],
    case_study: EnterpriseCaseStudy | None = None,
    policy: PatchPolicy | None = None,
    executor: str | None = None,
    max_workers: int | None = None,
    database: VulnerabilityDatabase | None = None,
) -> list[DesignEvaluation]:
    """Evaluate many designs with shared (cached) evaluators.

    *executor* selects a sweep-engine executor (``"serial"`` or
    ``"process"``); the default runs in-process without engine
    overhead.
    """
    if case_study is None:
        case_study = paper_case_study()
    if policy is None:
        policy = CriticalVulnerabilityPolicy()
    if executor is not None and executor != "serial":
        from repro.evaluation.engine import SweepEngine

        with SweepEngine(
            case_study=case_study,
            policy=policy,
            executor=executor,
            max_workers=max_workers,
            database=database,
        ) as engine:
            return engine.evaluate(designs)
    return evaluate_designs_shared(designs, case_study, policy, database=database)
