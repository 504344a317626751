"""Joint security + availability snapshots per design (Figs. 6-7 data).

Every entry point accepts any :class:`~repro.enterprise.design.DesignSpec`
— homogeneous :class:`~repro.enterprise.design.RedundancyDesign` and
diverse-stack :class:`~repro.enterprise.heterogeneous.HeterogeneousDesign`
flow through the same evaluators and produce the same
:class:`DesignEvaluation` shape, so sweeps and Pareto ranking can mix
design kinds freely.

Each design is read once, as its
:func:`~repro.enterprise.heterogeneous.design_tiers` view, and that one
view feeds its COA and both of its security rows.  The chunk primitive
:func:`evaluate_designs_shared` reduces a whole chunk's security rows in
one call (:meth:`SecurityEvaluator.rows`), so designs of one shape share
one attack-path plan per patch set.
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from typing import TypeVar

from repro.availability import product_form
from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import DesignSpec
from repro.enterprise.heterogeneous import design_tiers
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

    tiers = design_tiers(design)
    coa = product_form.coa(availability_evaluator.group_rates(tiers))
    [(before, after)] = security_evaluator.rows([design], [tiers], policy)
    return _evaluation(design, coa, before, after)


def _evaluation(
    design: DesignSpec, coa: float, before: SecurityMetrics, after: SecurityMetrics
) -> DesignEvaluation:
    return DesignEvaluation(
        design=design,
        before=DesignSnapshot(security=before, coa=coa),
        after=DesignSnapshot(security=after, coa=coa),
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

    This is the chunk primitive of the sweep engine.  Each design is
    read once (:meth:`AvailabilityEvaluator.read_tiers`), and the shared
    :class:`AvailabilityEvaluator` solves the lower-layer stacks of
    every server group in the chunk that it has not solved yet, in one
    call, whatever mix of spec kinds the chunk holds.  The security rows
    of the whole chunk come from one :meth:`SecurityEvaluator.rows`
    call.  Pass evaluator instances (e.g. a sweep engine's long-lived
    pair) to reuse their caches.

    A failing design raises an error carrying the design label (see
    :func:`labelled`).  When any design fails, the chunk is re-run
    design by design, so the error raised is the first one
    :func:`evaluate_design` meets.
    """
    if security_evaluator is None:
        security_evaluator = SecurityEvaluator(case_study, database=database)
    if availability_evaluator is None:
        availability_evaluator = AvailabilityEvaluator(
            case_study, policy, database=database
        )
    designs = list(designs)
    tiers = availability_evaluator.read_tiers(designs, "evaluating design")
    try:
        coas = [
            product_form.coa(availability_evaluator.group_rates(view))
            for view in tiers
        ]
        rows = security_evaluator.rows(designs, tiers, policy)
    except Exception:
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
    return [
        _evaluation(design, coa, before, after)
        for design, coa, (before, after) in zip(designs, coas, rows)
    ]


def labelled(action: str, design: DesignSpec, fn: Callable[[], _T]) -> _T:
    """Call *fn* on behalf of *design*, labelling any failure with it.

    Messages read ``"<action> '<label>' failed: <Type>: <message>"``.  A
    :class:`~repro.errors.ValidationError` re-raises as a
    ``ValidationError`` (bad input stays the caller's mistake); other
    domain errors re-raise as :class:`~repro.errors.EvaluationError`,
    their messages already self-explanatory.  Unexpected exceptions
    additionally embed the formatted traceback.  The chain is dropped,
    so the error stays picklable whatever the original carried.
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
    database: VulnerabilityDatabase | None = None,
) -> list[DesignEvaluation]:
    """Evaluate many designs with shared (cached) evaluators."""
    if case_study is None:
        case_study = paper_case_study()
    if policy is None:
        policy = CriticalVulnerabilityPolicy()
    return evaluate_designs_shared(designs, case_study, policy, database=database)
