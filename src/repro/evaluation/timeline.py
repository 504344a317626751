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
- **patch-completion curve**: the design's patch-completion CTMC (one
  state per vector of still-unpatched servers per role/variant, each
  group patching at its Table V ``lambda_eq``) is absorbing at
  all-patched; its transient analysis yields P(campaign complete by t)
  and the expected unpatched fraction, its mean time to absorption the
  **time to patch completion**;
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
trigger.  The COA curve carries each server's down-probability across
phase boundaries in closed form; the completion curves come from
piecewise-constant uniformisation of the completion chain
(:func:`repro.ctmc.transient.transient_piecewise`) — one batch pass per
phase, the state vector carried across phase boundaries — and the mean
time to completion from per-phase occupancy algebra plus a
fundamental-matrix solve on the terminal phase.  A single-phase
multiplier-1 campaign reproduces the stationary curves bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.ctmc import Ctmc, mean_time_to_absorption
from repro.ctmc.transient import BatchTransientSolver, transient_piecewise
from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import DesignSpec
from repro.enterprise.heterogeneous import (
    HeterogeneousDesign,
    check_design_kind as _check_spec_kind,
)
from repro.errors import CtmcError, EvaluationError, SolverError
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

#: Safety bound on the patch-completion state space (product of
#: per-group counts + 1); generous for any realistic design sweep.
_MAX_COMPLETION_STATES = 200_000


def default_time_grid(horizon: float = 720.0, points: int = 24) -> tuple[float, ...]:
    """An evenly spaced grid ``0 .. horizon`` (hours), *points* samples.

    The default spans the paper's monthly (720 h) patch interval.
    """
    if horizon <= 0:
        raise EvaluationError(f"horizon must be > 0, got {horizon}")
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


# -- patch-completion chain ---------------------------------------------------


def _patch_groups(
    availability_evaluator: AvailabilityEvaluator, design: DesignSpec
) -> list[tuple[str, int, float]]:
    """``(group name, replica count, lambda_eq)`` per role or variant."""
    if isinstance(design, HeterogeneousDesign):
        return [
            (
                variant.name,
                count,
                availability_evaluator.variant_aggregate(variant, role).patch_rate,
            )
            for role in design.roles
            for variant, count in design.variants(role).items()
        ]
    _check_spec_kind(design)
    return [
        (role, count, availability_evaluator.aggregate(role).patch_rate)
        for role, count in design.counts.items()
    ]


def _completion_chain(
    groups: Sequence[tuple[str, int, float]],
) -> tuple[Ctmc, tuple[int, ...], tuple[int, ...]]:
    """The absorbing patch-completion CTMC of a design.

    States are vectors of still-unpatched replica counts per group; each
    unpatched server of group *g* is patched independently at that
    group's aggregated rate, so state ``u`` moves to ``u - e_g`` at rate
    ``u_g * lambda_g``.  The all-zero state (campaign complete) is
    absorbing.  Returns the chain, the all-unpatched start state and the
    absorbing state.
    """
    counts = [count for _, count, _ in groups]
    states_total = math.prod(count + 1 for count in counts)
    if states_total > _MAX_COMPLETION_STATES:
        raise EvaluationError(
            f"patch-completion chain would have {states_total} states "
            f"(cap {_MAX_COMPLETION_STATES}); the design is too large"
        )
    states = [
        tuple(state)
        for state in itertools.product(*(range(count, -1, -1) for count in counts))
    ]
    chain = Ctmc(states)
    for state in states:
        for g, (_, _, rate) in enumerate(groups):
            if state[g] > 0 and rate > 0.0:
                successor = state[:g] + (state[g] - 1,) + state[g + 1 :]
                chain.add_rate(state, successor, state[g] * rate)
    full = tuple(counts)
    zero = tuple(0 for _ in counts)
    return chain, full, zero


# -- staged campaigns ---------------------------------------------------------


class _CompletionSolvers:
    """Per-multiplier uniformised solvers over one completion chain.

    A phase at multiplier 1.0 reuses the chain's own generator (the
    stationary solver, bit for bit); any other multiplier scales the
    generator — every transition of the completion chain is a patch
    transition, so ``Q_m = m * Q``.
    """

    def __init__(
        self, chain: Ctmc, tolerance: float, method: str = "uniformisation"
    ) -> None:
        self._chain = chain
        self._tolerance = tolerance
        self._method = method
        self._generator = None
        self._solvers: dict[float, BatchTransientSolver] = {}

    def for_multiplier(self, multiplier: float) -> BatchTransientSolver:
        solver = self._solvers.get(multiplier)
        if solver is None:
            if multiplier == 1.0:
                solver = BatchTransientSolver(
                    self._chain,
                    tolerance=self._tolerance,
                    method=self._method,
                )
            else:
                if self._generator is None:
                    self._generator = (
                        self._chain.generator().tocsr().astype(float)
                    )
                solver = BatchTransientSolver.from_generator(
                    self._generator * multiplier,
                    states=self._chain.states,
                    tolerance=self._tolerance,
                    method=self._method,
                )
            self._solvers[multiplier] = solver
        return solver


#: Safety cap on the bracketing search for completion-fraction
#: triggers; reached only on pathological inputs (treated as "never
#: fires", like an analytically unreachable threshold).
_MAX_TRIGGER_DOUBLINGS = 208

#: Probes per batched round of the trigger search (each round is one
#: anchored uniformisation pass over the whole probe ladder).
_TRIGGER_PROBES = 16


def _trigger_time(
    solver: BatchTransientSolver,
    carry,
    unpatched_vector: np.ndarray,
    threshold: float,
    unreachable_fraction: float,
) -> float:
    """Hours until the expected unpatched fraction first drops to
    *threshold*, starting from *carry* under *solver*'s dynamics.

    Returns ``math.inf`` when the trigger never fires: frozen dynamics
    (a zero effective rate), a threshold of zero (reached only
    asymptotically), or a threshold at or below *unreachable_fraction*
    — the limiting fraction held forever by groups whose effective
    patch rate is zero.  Otherwise the decay is monotone, so the time
    is bracketed by a doubling ladder and refined by 17-section down to
    adjacent floats, both evaluated in *batched* solver calls — the
    batch solver serves a whole probe ladder from one anchored iterate
    stream, so each round costs about as much as its largest single
    probe.  Pure float arithmetic throughout: the result is
    deterministic across runs and executors.
    """

    def fractions(offsets: Sequence[float]) -> np.ndarray:
        return solver.distributions(carry, offsets) @ unpatched_vector

    if float(fractions([0.0])[0]) <= threshold:
        return 0.0
    if solver.lam == 0.0 or threshold <= unreachable_fraction:
        return math.inf
    # Bracket: ladders of doublings, one batched pass per ladder.
    hi = None
    lo = 0.0
    start = 1.0
    for _ in range(_MAX_TRIGGER_DOUBLINGS // _TRIGGER_PROBES):
        ladder = [start * 2.0**i for i in range(_TRIGGER_PROBES)]
        values = fractions(ladder)
        below = np.nonzero(values <= threshold)[0]
        if below.size:
            first = int(below[0])
            hi = ladder[first]
            if first > 0:
                lo = ladder[first - 1]
            break
        lo = ladder[-1]
        start = ladder[-1] * 2.0
    if hi is None:  # pragma: no cover - unreachable-threshold safety net
        return math.inf
    # Refine: 17-section, one batched pass per round, keeping the
    # invariant fraction(hi) <= threshold < fraction(lo).
    while True:
        step = (hi - lo) / (_TRIGGER_PROBES + 1)
        probes = [lo + i * step for i in range(1, _TRIGGER_PROBES + 1)]
        probes = [probe for probe in probes if lo < probe < hi]
        if not probes:
            return hi
        values = fractions(probes)
        new_lo, new_hi = lo, hi
        for probe, value in zip(probes, values):
            if value <= threshold:
                new_hi = probe
                break
            new_lo = probe
        if new_lo == lo and new_hi == hi:
            return hi
        lo, hi = new_lo, new_hi


def _resolve_campaign(
    campaign: PatchCampaign,
    multipliers: Sequence[float],
    groups: Sequence[tuple[str, int, float]],
    solvers: _CompletionSolvers,
    full,
    unpatched_vector: np.ndarray,
) -> tuple[list[float], tuple[float, ...]]:
    """Concrete phase durations and absolute phase start times.

    Fixed durations are taken as given; completion-fraction triggers
    are resolved against the design's patch-completion chain (the
    trigger is defined on the *expected* patched fraction of the
    fleet), walking the carried distribution phase by phase.  The final
    phase is open-ended (campaign validation guarantees it).  Phases
    behind a never-ending phase are unreachable and get a start of
    ``math.inf``.
    """
    total = sum(count for _, count, _ in groups)
    # The carried distribution is only consumed by completion-fraction
    # triggers; past the last trigger phase, propagation is dead work
    # (the curves recompute their own carries in one batch pass each).
    last_trigger = max(
        (
            position
            for position, phase in enumerate(campaign.phases)
            if phase.completion_fraction is not None
        ),
        default=-1,
    )
    durations: list[float] = []
    starts: list[float] = []
    carry = {full: 1.0}
    start = 0.0
    terminal = False
    for position, (phase, multiplier) in enumerate(
        zip(campaign.phases, multipliers)
    ):
        last = position == len(campaign.phases) - 1
        starts.append(math.inf if terminal else start)
        if terminal:
            durations.append(math.inf)
            continue
        if last:
            duration = math.inf
        elif phase.duration_hours is not None:
            duration = phase.duration_hours
        else:
            # The fraction cannot decay below the share of the fleet
            # whose effective patch rate is zero in this phase.
            unreachable = (
                sum(
                    count
                    for _, count, rate in groups
                    if rate * multiplier == 0.0
                )
                / total
            )
            duration = _trigger_time(
                solvers.for_multiplier(multiplier),
                carry,
                unpatched_vector,
                1.0 - phase.completion_fraction,
                unreachable,
            )
        durations.append(duration)
        if math.isinf(duration):
            terminal = True
        elif duration > 0.0:
            if position < last_trigger:
                carry = solvers.for_multiplier(multiplier).distributions(
                    carry, [duration]
                )[0]
            start += duration
    return durations, tuple(starts)


def _campaign_mean_completion(
    chain: Ctmc,
    multipliers: Sequence[float],
    durations: Sequence[float],
    carries: Sequence[np.ndarray],
) -> float:
    """Expected hours until every server is patched, under a campaign.

    ``E[T] = sum_p int_{phase p} P(not yet absorbed at t) dt``, with
    the same absorption semantics as the stationary path's
    ``mean_time_to_absorption(chain, start=full)`` (a design whose
    groups all patch absorbs only at completion).  For each finite
    phase the integral is exact occupancy algebra: integrating the
    forward equation over the phase gives
    ``(int pi_T dt) Q_TT = pi_T(end) - pi_T(start)``, one sparse solve
    per phase.  The terminal phase contributes the fundamental-matrix
    expectation ``sum_i pi_T(i) * MTTA_i`` under its scaled generator.
    Returns ``math.inf`` when absorption is not certain (frozen
    terminal dynamics with transient mass left, or a chain the MTTA
    solve rejects) — mirroring the stationary path's error handling.
    """
    from scipy.sparse import linalg as sparse_linalg

    states = chain.states
    absorbing = {chain.index_of(state) for state in chain.absorbing_states()}
    transient_idx = [i for i in range(len(states)) if i not in absorbing]
    if not transient_idx:
        # Every state absorbing (nothing ever patches): never completes.
        return math.inf
    q_tt = None
    mean = 0.0
    terminal = len(carries) - 1
    for position in range(terminal + 1):
        multiplier = multipliers[position]
        duration = durations[position]
        carry = carries[position]
        if position == terminal:
            if multiplier == 0.0:
                remaining = float(np.sum(carry[transient_idx]))
                return mean if remaining <= 1e-12 else math.inf
            try:
                # MTTA(m * Q) = MTTA(Q) / m: one solve on the base chain
                # covers every terminal multiplier (and / 1.0 keeps the
                # degenerate single-phase case bit-identical).
                table = mean_time_to_absorption(chain)
            except (SolverError, CtmcError):
                return math.inf
            for i, state in enumerate(states):
                weight = float(carry[i])
                if weight == 0.0:
                    continue
                tail = table.get(state)
                if tail is None:
                    continue  # already absorbed: contributes no time
                mean += weight * tail / multiplier
            return mean
        if duration == 0.0:
            continue
        if multiplier == 0.0:
            mean += duration * float(np.sum(carry[transient_idx]))
            continue
        if q_tt is None:
            q = chain.generator().tocsc().astype(float)
            q_tt = q[np.ix_(transient_idx, transient_idx)]
        rhs = (
            carries[position + 1][transient_idx] - carry[transient_idx]
        )
        try:
            occupancy = sparse_linalg.spsolve(
                (q_tt * multiplier).transpose().tocsc(), rhs
            )
        except Exception:
            return math.inf
        occupancy = np.atleast_1d(occupancy)
        if not np.all(np.isfinite(occupancy)):
            return math.inf
        mean += float(np.sum(occupancy))
    return mean  # pragma: no cover - loop always returns at terminal


# -- per-design evaluation ----------------------------------------------------


def evaluate_timeline(
    design: DesignSpec,
    times: Sequence[float],
    case_study: EnterpriseCaseStudy | None = None,
    policy: PatchPolicy | None = None,
    security_evaluator: SecurityEvaluator | None = None,
    availability_evaluator: AvailabilityEvaluator | None = None,
    database: VulnerabilityDatabase | None = None,
    tolerance: float = 1e-10,
    campaign: PatchCampaign | None = None,
    method: str = "uniformisation",
) -> DesignTimeline:
    """The patch-timeline curves of one design.

    *method* selects the transient propagation backend of the
    completion-chain solves (see
    :class:`~repro.ctmc.transient.BatchTransientSolver`); the default
    keeps the exact bit-identical uniformisation path.  The COA curve is
    closed-form and takes neither *method* nor *tolerance*.

    With no arguments beyond *design* and *times*, uses the paper's case
    study and critical-vulnerability policy.  Pass shared evaluator
    instances when scoring many designs so the per-role / per-variant
    lower-layer aggregates are solved once (*database* supplies variant
    records for heterogeneous designs and is ignored when explicit
    evaluators are given).

    *campaign* optionally stages the rollout
    (:class:`~repro.patching.campaign.PatchCampaign`): each phase
    scales the patch rates, curves are carried across phase boundaries,
    and completion-fraction triggers are resolved against the design's
    own patch-completion chain.  A single-phase multiplier-1 campaign
    is bit-identical to ``campaign=None``.
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
    groups = _patch_groups(availability_evaluator, design)
    chain, full, zero = _completion_chain(groups)
    total = sum(count for _, count, _ in groups)
    zero_index = chain.index_of(zero)
    unpatched_vector = np.array(
        [sum(state) / total for state in chain.states]
    )

    if campaign is None:
        coa_curve = availability_evaluator.transient_coa(design, times)
        solver = BatchTransientSolver(chain, tolerance=tolerance, method=method)
        distributions = solver.distributions({full: 1.0}, times)
        try:
            mean_completion = float(mean_time_to_absorption(chain, start=full))
        except (SolverError, CtmcError):
            # A zero patch rate leaves part of the design unpatched
            # forever (the start state may itself be absorbing then).
            mean_completion = math.inf
        phase_starts: tuple[float, ...] = ()
    else:
        multipliers = [
            phase.effective_multiplier(total) for phase in campaign.phases
        ]
        solvers = _CompletionSolvers(chain, tolerance, method)
        durations, phase_starts = _resolve_campaign(
            campaign, multipliers, groups, solvers, full, unpatched_vector
        )
        # Segments behind a never-ending phase are unreachable; keep the
        # reachable prefix (transient_piecewise stops there anyway).
        reach = next(
            (
                position + 1
                for position, duration in enumerate(durations)
                if math.isinf(duration)
            ),
            len(durations),
        )
        multipliers, durations = multipliers[:reach], durations[:reach]
        coa_curve = availability_evaluator.transient_coa_piecewise(
            design, times, multipliers, durations
        )
        segments = [
            (solvers.for_multiplier(multiplier), duration)
            for multiplier, duration in zip(multipliers, durations)
        ]
        distributions, carries = transient_piecewise(
            segments, {full: 1.0}, times, return_carries=True
        )
        mean_completion = _campaign_mean_completion(
            chain, multipliers, durations, carries
        )
    completion = distributions[:, zero_index]
    unpatched = distributions @ unpatched_vector

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
    tolerance: float = 1e-10,
    security_evaluator: SecurityEvaluator | None = None,
    availability_evaluator: AvailabilityEvaluator | None = None,
    campaign: PatchCampaign | None = None,
    method: str = "uniformisation",
) -> list[DesignTimeline]:
    """Serial timelines of *designs* with one shared evaluator pair.

    The chunk primitive of :meth:`SweepEngine.timeline`: the shared
    :class:`AvailabilityEvaluator` amortises the per-role and
    per-variant lower-layer SRN solves across every design in the
    chunk, whatever mix of spec kinds the chunk holds.  Pass
    evaluator instances (e.g. primed from shared memory) to reuse their
    caches.  Failures carry the design label (see
    :func:`repro.evaluation.combined.labelled`).
    """
    if security_evaluator is None:
        security_evaluator = SecurityEvaluator(case_study, database=database)
    if availability_evaluator is None:
        availability_evaluator = AvailabilityEvaluator(
            case_study, policy, database=database
        )
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
                tolerance=tolerance,
                campaign=campaign,
                method=method,
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
    tolerance: float = 1e-10,
    campaign: PatchCampaign | None = None,
    method: str = "uniformisation",
) -> list[DesignTimeline]:
    """Timelines of many designs, optionally fanned out in parallel.

    *executor* selects a sweep-engine executor (``"serial"``,
    ``"thread"`` or ``"process"``); the default runs in-process without
    engine overhead.  Results are in input order and byte-identical
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
            return engine.timeline(
                designs, times, tolerance=tolerance, campaign=campaign,
                method=method,
            )
    return evaluate_timelines_shared(
        designs,
        times,
        case_study,
        policy,
        database=database,
        tolerance=tolerance,
        campaign=campaign,
        method=method,
    )
