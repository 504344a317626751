"""The per-design timeline curves: the oracle of the stacked closed forms.

This is the closed form of :mod:`repro.availability.product_form`
evaluated one design at a time, with the scalar trigger bisection: each
campaign trigger bisects the design's own expected unpatched fraction,
one ``fraction`` call per probe.  The stacked forms evaluate a chunk's
designs together and must match it ``==``, field for field.  It shares
the steady COA and the quadrature rule of ``R(u)`` with the program.
"""

from __future__ import annotations

import math

import numpy as np

from repro.availability.product_form import _DE_NODES, _DE_WEIGHTS, coa
from repro.errors import EvaluationError

#: ``fraction`` calls made by :func:`trigger_time` so far (one int).
fraction_calls = [0]


def curves(rates, times, campaign) -> dict:
    """Every :class:`~repro.evaluation.timeline.DesignTimeline` field but
    the design and its security metrics, from the design's
    ``(count, lambda_eq, mu_eq)`` server groups, per tier."""
    steady_coa = coa(rates)
    groups = [(count, rate) for tier in rates for count, rate, _ in tier]
    multipliers, durations, phase_starts = [1.0], [math.inf], ()
    if campaign is not None:
        multipliers, durations, phase_starts = resolve_campaign(campaign, groups)
    curve = coa_curve(rates, times, multipliers, durations)
    completion, unpatched, mean_completion = completion_curves(
        groups, times, multipliers, durations
    )
    return {
        "times": times,
        "coa": tuple(float(v) for v in curve),
        "completion_probability": tuple(float(v) for v in completion),
        "unpatched_fraction": tuple(float(v) for v in unpatched),
        "mean_time_to_completion": mean_completion,
        "steady_coa": float(steady_coa),
        "campaign": campaign,
        "phase_starts": phase_starts,
    }


def resolve_campaign(campaign, groups):
    """Reachable phase multipliers and durations, and every phase start,
    with each trigger bisected by :func:`trigger_time`."""
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


def coa_curve(tiers, times, multipliers=(1.0,), durations=(math.inf,)):
    """Expected COA at each time from the all-up state."""
    lam = np.array([[g[1]] for groups in tiers for g in groups], dtype=float)
    mu = np.array([[g[2]] for groups in tiers for g in groups], dtype=float)

    def relax(down, multiplier, hours):
        rate = multiplier * lam + mu
        return _relax(down, multiplier * lam / rate, rate, hours)

    down = _piecewise(times, multipliers, durations, np.zeros(len(lam)), relax)
    rows = iter(down)
    return np.asarray(
        _coa(tiers, [[next(rows) for _ in groups] for groups in tiers]),
        dtype=float,
    )


def completion_curves(groups, times, multipliers=(1.0,), durations=(math.inf,)):
    """P(complete), the expected unpatched fraction and the mean time to
    completion of ``(server count, lambda_eq)`` *groups*."""
    counts, lam = np.array(groups, dtype=float).T
    unpatched = _unpatched(lam, times, multipliers, durations)
    return (
        np.exp(_log_complete(counts, unpatched)),
        _unpatched_share(counts, unpatched),
        float(_mean_completion(counts, lam, multipliers, durations)),
    )


def trigger_time(groups, multipliers, durations, threshold) -> float:
    """Hours until the expected unpatched fraction drops to *threshold*,
    by doubling from one hour and bisecting down to adjacent floats."""
    counts, lam = np.array(groups, dtype=float).T
    carry = _unpatched(lam, [sum(durations)], multipliers, [*durations, math.inf])
    carry, rate = carry[:, 0], multipliers[-1] * lam

    def fraction(offset: float) -> float:
        fraction_calls[0] += 1
        return float(_unpatched_share(counts, _decay(carry, rate, offset)))

    if fraction(0.0) <= threshold:
        return 0.0
    if threshold <= counts[rate == 0.0].sum() / counts.sum():
        return math.inf
    lo, hi = 0.0, 1.0
    while fraction(hi) > threshold:
        lo, hi = hi, 2.0 * hi
        if math.isinf(hi):
            return math.inf
    while True:
        mid = lo + (hi - lo) / 2.0
        if not lo < mid < hi:
            return hi
        if fraction(mid) <= threshold:
            hi = mid
        else:
            lo = mid


def _piecewise(times, multipliers, durations, start, advance):
    """Per-group values at each time, a ``(groups, times)`` array."""
    if len(multipliers) != len(durations) or not multipliers:
        raise EvaluationError(
            f"piecewise curves need one duration per multiplier, got "
            f"{len(multipliers)} multipliers and {len(durations)} durations"
        )
    times = [float(t) for t in times]
    if not all(math.isfinite(t) and t >= 0 for t in times):
        raise EvaluationError("times must be finite and non-negative")
    out = np.empty((len(start), len(times)))
    carry = start[:, None]
    begin = 0.0
    for position, (multiplier, duration) in enumerate(zip(multipliers, durations)):
        if duration != duration or duration < 0:
            raise EvaluationError(f"phase duration must be >= 0, got {duration}")
        end = math.inf if position == len(multipliers) - 1 else begin + duration
        indices = [i for i, t in enumerate(times) if begin <= t < end]
        if indices:
            offsets = np.array([times[i] - begin for i in indices])
            out[:, indices] = advance(carry, multiplier, offsets)
        if math.isinf(end):
            break
        if duration > 0.0:
            carry = advance(carry, multiplier, np.array([duration]))
        begin = end
    return out


def _decay(unpatched, rate, hours):
    return unpatched * np.exp(-rate * hours)


def _unpatched(lam, times, multipliers, durations):
    return _piecewise(
        times,
        multipliers,
        durations,
        np.ones(len(lam)),
        lambda u, multiplier, hours: _decay(u, multiplier * lam[:, None], hours),
    )


def _log_complete(counts, unpatched):
    with np.errstate(divide="ignore"):
        return sum(count * np.log1p(-row) for count, row in zip(counts, unpatched))


def _unpatched_share(counts, unpatched):
    return sum(count * row for count, row in zip(counts, unpatched)) / counts.sum()


def _pending(counts, unpatched):
    return -np.expm1(_log_complete(counts, unpatched))


def _remaining(counts, lam, unpatched) -> float:
    live = unpatched > 0.0
    if not live.any():
        return 0.0
    scale = lam[live].min()
    pending = _pending(
        counts[live],
        _decay(unpatched[live, None], lam[live, None], _DE_NODES / scale),
    )
    return float(_DE_WEIGHTS @ pending) / scale


def _mean_completion(counts, lam, multipliers, durations) -> float:
    if (lam == 0.0).any():
        return math.inf
    mean = 0.0
    carry = np.ones(len(lam))
    for position, (multiplier, duration) in enumerate(zip(multipliers, durations)):
        if position == len(multipliers) - 1 or math.isinf(duration):
            break
        if multiplier == 0.0:
            mean += duration * _pending(counts, carry)
        elif duration > 0.0:
            tail = _remaining(counts, lam, carry)
            carry = _decay(carry, multiplier * lam, duration)
            mean += (tail - _remaining(counts, lam, carry)) / multiplier
    if multiplier == 0.0:
        return mean if _pending(counts, carry) <= 1e-12 else math.inf
    return mean + _remaining(counts, lam, carry) / multiplier


def _relax(carry, limit, rate, offset):
    decay = -rate * offset
    return limit * -np.expm1(decay) + carry * np.exp(decay)


def _coa(tiers, down):
    total = sum(count for groups in tiers for count, _, _ in groups)
    expected = []
    any_up = []
    for groups, downs in zip(tiers, down):
        up = 0.0
        none_up = 1.0
        for (count, _, _), d in zip(groups, downs):
            up = up + count * (1.0 - d)
            none_up = none_up * d**count
        expected.append(up)
        any_up.append(1.0 - none_up)
    running = 0.0
    for i, up in enumerate(expected):
        for j, p in enumerate(any_up):
            if j != i:
                up = up * p
        running = running + up
    return running / total
