"""Patch-timeline evaluation: transient curves over whole design spaces.

The paper scores each design by *steady-state* security/availability
snapshots before and after a patch cycle (Figs. 6-7).  The operational
question during a patch campaign is *transient*: between patch start
(t = 0, every server up and unpatched) and patch completion, how do
availability and the attack surface evolve, per design?  This module
generalises the paper's per-design snapshots into time-resolved curves
for any :class:`~repro.enterprise.design.DesignSpec`:

- **transient COA**: the expected Table VI reward at each time, from
  all servers up, in closed form
  (:func:`repro.availability.product_form.coa_curve`);
- **patch-completion curves**: every unpatched server patches
  independently at its group's (role's or variant's) Table V
  ``lambda_eq``, so P(campaign complete by t), the expected unpatched
  fraction and the mean **time to patch completion** follow in closed
  form from each group's probability of being still unpatched
  (:func:`repro.availability.product_form.completion_curves`);
- **security exposure curves**: each HARM metric interpolated between
  its before- and after-patch values by the expected unpatched
  fraction — the attack surface decays exactly as fast as the campaign
  retires unpatched servers.

:func:`evaluate_timelines` fans whole design spaces out through the
:class:`~repro.evaluation.engine.SweepEngine` executors with the same
chunked, deterministic, cache-friendly dispatch as the steady-state
sweep.

Staged rollouts
---------------
Every entry point accepts an optional
:class:`~repro.patching.campaign.PatchCampaign`: an ordered sequence of
rollout phases (canary -> ramp -> fleet), each scaling the patch rates
by a multiplier and ending on a fixed duration or a completion-fraction
trigger.  Both the COA and the completion curves carry each server's
state across phase boundaries in closed form, and each design resolves
its own triggers against its expected patched fraction.  The
stationary timeline is the single-phase multiplier-1 campaign, so such a
campaign reproduces it bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial

from repro.availability.product_form import completion_curves, trigger_time
from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import DesignSpec
from repro.enterprise.heterogeneous import HeterogeneousDesign
from repro.errors import EvaluationError
from repro.evaluation.availability import AvailabilityEvaluator
from repro.evaluation.combined import labelled
from repro.evaluation.security import SecurityEvaluator
from repro.harm import SecurityMetrics
from repro.patching.campaign import PatchCampaign
from repro.patching.policy import CriticalVulnerabilityPolicy, PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = [
    "DesignTimeline",
    "default_time_grid",
    "evaluate_timeline",
    "evaluate_timelines",
    "evaluate_timelines_shared",
    "timeline_payload",
]

def default_time_grid(horizon: float = 720.0, points: int = 24) -> tuple[float, ...]:
    """An evenly spaced grid ``0 .. horizon`` (hours), *points* samples.

    The default spans the paper's monthly (720 h) patch interval.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise EvaluationError(f"horizon must be finite and > 0, got {horizon}")
    if points < 2:
        raise EvaluationError(f"points must be >= 2, got {points}")
    step = horizon / (points - 1)
    return tuple(i * step for i in range(points))


@dataclass(frozen=True)
class DesignTimeline:
    """Time-resolved patch-campaign behaviour of one design.

    All curves align with :attr:`times`.  Security metrics are exposed
    through :meth:`security_curve` (exposure-weighted interpolation
    between the before- and after-patch HARM snapshots).
    """

    design: DesignSpec
    times: tuple[float, ...]
    coa: tuple[float, ...]
    completion_probability: tuple[float, ...]
    unpatched_fraction: tuple[float, ...]
    mean_time_to_completion: float
    steady_coa: float
    before: SecurityMetrics
    after: SecurityMetrics
    #: The staged rollout the curves were computed under (``None`` for
    #: the stationary model).
    campaign: PatchCampaign | None = None
    #: Absolute start time (hours) of each campaign phase; ``math.inf``
    #: marks phases made unreachable by a never-ending predecessor.
    #: Empty for the stationary model.
    phase_starts: tuple[float, ...] = ()

    @property
    def label(self) -> str:
        """The design's paper-style label."""
        return self.design.label

    @property
    def min_coa(self) -> float:
        """The worst expected COA over the sampled campaign window."""
        return min(self.coa)

    def security_curve(self, metric: str) -> tuple[float, ...]:
        """*metric* over time: after-patch value plus the residual
        exposure, ``after + (before - after) * unpatched_fraction(t)``.

        Raises
        ------
        EvaluationError
            If the metric abbreviation is unknown.
        """
        before = self.before.as_dict()
        if metric not in before:
            raise EvaluationError(
                f"unknown security metric {metric!r}; "
                f"choose from {sorted(before)}"
            )
        hi = float(before[metric])
        lo = float(self.after.as_dict()[metric])
        return tuple(
            lo + (hi - lo) * fraction for fraction in self.unpatched_fraction
        )

    def security_curves(self) -> dict[str, tuple[float, ...]]:
        """Every HARM metric's exposure curve, keyed by abbreviation."""
        return {name: self.security_curve(name) for name in self.before.as_dict()}


def timeline_payload(timeline: DesignTimeline) -> dict:
    """The canonical JSON-ready dict of one design timeline.

    Shared by the ``repro timeline`` CLI and the evaluation service
    (``repro serve``), so their JSON outputs agree by construction.
    JSON has no ``inf``: an infinite mean time to completion serialises
    as ``None``, and unreachable campaign phases get ``None`` starts.
    """
    mttc = timeline.mean_time_to_completion
    payload = {
        "label": timeline.label,
        "counts": timeline.design.counts,
        "total_servers": timeline.design.total_servers,
        "mean_time_to_completion": mttc if math.isfinite(mttc) else None,
        "steady_coa": timeline.steady_coa,
        "min_coa": timeline.min_coa,
        "coa": list(timeline.coa),
        "completion_probability": list(timeline.completion_probability),
        "unpatched_fraction": list(timeline.unpatched_fraction),
        "security": {
            name: list(curve)
            for name, curve in timeline.security_curves().items()
        },
    }
    if timeline.campaign is not None:
        payload["phase_starts"] = [
            start if math.isfinite(start) else None
            for start in timeline.phase_starts
        ]
    if isinstance(timeline.design, HeterogeneousDesign):
        payload["variants"] = timeline.design.tiers()
    return payload


# -- campaigns ----------------------------------------------------------------


def _resolve_campaign(
    campaign: PatchCampaign, groups: Sequence[tuple[int, float]]
) -> tuple[list[float], list[float], tuple[float, ...]]:
    """Reachable phase multipliers and durations, and every phase start.

    Fixed durations are taken as given; completion-fraction triggers
    resolve against the design's *expected* patched fraction
    (:func:`~repro.availability.product_form.trigger_time`).  The final
    phase is open-ended (campaign validation guarantees it).  A phase
    that never ends is the last reachable one: the phases behind it get
    a start of ``math.inf``.
    """
    total = sum(count for count, _ in groups)
    multipliers: list[float] = []
    durations: list[float] = []
    starts: list[float] = []
    start = 0.0
    for position, phase in enumerate(campaign.phases):
        if durations and math.isinf(durations[-1]):
            starts.append(math.inf)
            continue
        starts.append(start)
        multipliers.append(phase.effective_multiplier(total))
        if position == len(campaign.phases) - 1:
            duration = math.inf
        elif phase.duration_hours is not None:
            duration = phase.duration_hours
        else:
            duration = trigger_time(
                groups, multipliers, durations, 1.0 - phase.completion_fraction
            )
        durations.append(duration)
        start += duration
    return multipliers, durations, tuple(starts)


# -- per-design evaluation ----------------------------------------------------


def evaluate_timeline(
    design: DesignSpec,
    times: Sequence[float],
    case_study: EnterpriseCaseStudy | None = None,
    policy: PatchPolicy | None = None,
    security_evaluator: SecurityEvaluator | None = None,
    availability_evaluator: AvailabilityEvaluator | None = None,
    database: VulnerabilityDatabase | None = None,
    campaign: PatchCampaign | None = None,
) -> DesignTimeline:
    """The patch-timeline curves of one design.

    With no arguments beyond *design* and *times*, uses the paper's case
    study and critical-vulnerability policy.  Pass shared evaluator
    instances when scoring many designs so each server group's
    lower-layer aggregate is solved once (*database* supplies variant
    records for heterogeneous designs and is ignored when explicit
    evaluators are given).

    *campaign* optionally stages the rollout
    (:class:`~repro.patching.campaign.PatchCampaign`): each phase
    scales the patch rates, curves are carried across phase boundaries,
    and completion-fraction triggers are resolved against the design's
    own expected patched fraction.  Without one the rollout is a single
    open-ended multiplier-1 phase, so a campaign of exactly that is
    bit-identical to ``campaign=None``.
    """
    times = tuple(float(t) for t in times)
    if not times:
        raise EvaluationError("a timeline needs at least one time point")
    if not all(math.isfinite(t) and t >= 0 for t in times):
        raise EvaluationError("times must be finite and non-negative")
    if campaign is not None and not isinstance(campaign, PatchCampaign):
        raise EvaluationError(
            f"campaign must be a PatchCampaign, got {type(campaign).__name__}"
        )
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

    steady_coa = availability_evaluator.coa(design)
    # The server groups the COA reads, in the same canonical order, so
    # equal designs built in different orders get equal timelines.
    groups = [
        (count, rate)
        for tier in availability_evaluator._tiers(design)
        for count, rate, _ in tier
    ]
    multipliers, durations, phase_starts = [1.0], [math.inf], ()
    if campaign is not None:
        multipliers, durations, phase_starts = _resolve_campaign(campaign, groups)
    coa_curve = availability_evaluator.transient_coa_piecewise(
        design, times, multipliers, durations
    )
    completion, unpatched, mean_completion = completion_curves(
        groups, times, multipliers, durations
    )
    return DesignTimeline(
        design=design,
        times=times,
        coa=tuple(float(v) for v in coa_curve),
        completion_probability=tuple(float(v) for v in completion),
        unpatched_fraction=tuple(float(v) for v in unpatched),
        mean_time_to_completion=mean_completion,
        steady_coa=float(steady_coa),
        before=security_evaluator.before_patch(design),
        after=security_evaluator.after_patch(design, policy),
        campaign=campaign,
        phase_starts=phase_starts,
    )


def evaluate_timelines_shared(
    designs: Iterable[DesignSpec],
    times: Sequence[float],
    case_study: EnterpriseCaseStudy,
    policy: PatchPolicy,
    database: VulnerabilityDatabase | None = None,
    security_evaluator: SecurityEvaluator | None = None,
    availability_evaluator: AvailabilityEvaluator | None = None,
    campaign: PatchCampaign | None = None,
) -> list[DesignTimeline]:
    """Serial timelines of *designs* with one shared evaluator pair.

    The chunk primitive of :meth:`SweepEngine.timeline`: the shared
    :class:`AvailabilityEvaluator` first solves the lower-layer stacks
    of every server group in the chunk that it has not solved yet, in
    one call, whatever mix of spec kinds the chunk holds.  Pass
    evaluator instances (e.g. a pool worker's primed pair) to reuse
    their caches.  Failures carry the design label (see
    :func:`repro.evaluation.combined.labelled`).
    """
    if security_evaluator is None:
        security_evaluator = SecurityEvaluator(case_study, database=database)
    if availability_evaluator is None:
        availability_evaluator = AvailabilityEvaluator(
            case_study, policy, database=database
        )
    designs = list(designs)
    availability_evaluator.solve_groups(designs, "timeline of design")
    return [
        labelled(
            "timeline of design",
            design,
            partial(
                evaluate_timeline,
                design,
                times,
                case_study=case_study,
                policy=policy,
                security_evaluator=security_evaluator,
                availability_evaluator=availability_evaluator,
                campaign=campaign,
            ),
        )
        for design in designs
    ]


def evaluate_timelines(
    designs: Iterable[DesignSpec],
    times: Sequence[float],
    case_study: EnterpriseCaseStudy | None = None,
    policy: PatchPolicy | None = None,
    executor: str | None = None,
    max_workers: int | None = None,
    database: VulnerabilityDatabase | None = None,
    campaign: PatchCampaign | None = None,
) -> list[DesignTimeline]:
    """Timelines of many designs, optionally fanned out in parallel.

    *executor* selects a sweep-engine executor (``"serial"`` or
    ``"process"``); the default runs in-process without engine
    overhead.  Results are in input order and byte-identical
    across executors.  *campaign* stages the rollout (shared by every
    design; completion-fraction triggers still resolve per design).
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
            return engine.timeline(designs, times, campaign=campaign)
    return evaluate_timelines_shared(
        designs,
        times,
        case_study,
        policy,
        database=database,
        campaign=campaign,
    )
