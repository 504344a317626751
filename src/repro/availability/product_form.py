"""Closed-form capacity-oriented availability: the evaluator's COA path.

The upper-layer SRN (Fig. 4, Table VI) is a product of independent
two-state chains: every server leaves for patching at its group's
aggregated rate ``lambda_eq`` and returns at ``mu_eq``, whatever the
other servers do.  So the number of up servers ``U_i`` of each tier is
a sum of independent indicators, the tiers are independent of each
other, and COA factorises per tier with no state space at all.  Per
tier *i* with server groups *g* of ``n_g`` servers (one group for a
homogeneous role, one per variant in a diverse tier), each down with
probability ``d_g``:

    E[U_i]     = sum_g n_g * (1 - d_g)
    P(U_i > 0) = 1 - prod_g d_g ** n_g
    COA        = (1/N) * sum_i E[U_i] * prod_{j != i} P(U_j > 0)

(the Table VI reward is ``sum_i U_i / N`` while every tier has a server
up, and ``U_i = 0`` contributes nothing to ``E[U_i; U_i > 0]``).  At
steady state ``d = lambda / (lambda + mu)``.  Over time every server
starts up (``d = 0`` at ``t = 0``) and its down-probability solves the
two-state forward equation; with patch rates scaled by *m* during a
campaign phase, from the phase start ``t0``:

    d(t0 + s) = d_inf * (1 - exp(-r s)) + d(t0) * exp(-r s),
    r = m * lambda + mu,  d_inf = m * lambda / r.

Phase windows follow :func:`repro.ctmc.transient.transient_piecewise`,
so a one-phase multiplier-1 campaign *is* the stationary curve.

Patch completion factorises the same way.  Every unpatched server of
group *g* patches independently at ``m * lambda_g``, so the probability
``u_g`` that one is still unpatched decays from ``u = 1`` at ``t = 0``
as ``u(t0 + s) = u(t0) * exp(-m * lambda * s)``, and

    P(complete by t)   = prod_g (1 - u_g) ** n_g
    unpatched fraction = sum_g n_g * u_g / N

The mean time to completion integrates ``P(not complete)`` phase by
phase through one primitive, the expected remaining time at base rates
``R(u) = int_0^inf 1 - prod_g (1 - u_g exp(-lambda_g x)) ** n_g dx``:
a phase at multiplier *m* that takes the state from ``u`` to ``u'``
spends ``(R(u) - R(u')) / m`` hours incomplete.

This is exact only because servers are independent.  A model that
couples them — shared components, correlated failures, a limited patch
crew — has no product form; build it as an SRN and solve it with
:func:`repro.srn.solve`, the pipeline behind
:class:`~repro.availability.network.NetworkAvailabilityModel` (the same
tiers of server groups as an SRN) that stays the paper-faithful oracle
for this module.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from math import comb

import numpy as np

from repro._validation import check_positive, check_positive_int
from repro.errors import EvaluationError

__all__ = [
    "Group",
    "coa",
    "coa_curve",
    "completion_curves",
    "product_form_coa",
    "tier_up_distribution",
    "trigger_time",
]

#: One server group: ``(replica count, lambda_eq, mu_eq)``.
Group = tuple[int, float, float]

#: The double-exponential rule behind ``R(u)``: ``x = exp(t - exp(-t))``
#: maps the real line onto ``(0, inf)`` and the trapezoid rule in *t*,
#: step 1/8 over ``[-6, 6]`` (97 nodes), converges geometrically on the
#: integrand's exponential tails.  Nodes are in units of the slowest
#: live group's mean patch time.
_DE_T = np.arange(-48, 49) / 8.0
_DE_NODES = np.exp(_DE_T - np.exp(-_DE_T))
_DE_WEIGHTS = _DE_NODES * (1.0 + np.exp(-_DE_T)) / 8.0


def coa(tiers: Sequence[Sequence[Group]]) -> float:
    """Steady-state COA of independent *tiers* of server groups."""
    return _coa(
        tiers,
        [[lam / (lam + mu) for _, lam, mu in groups] for groups in tiers],
    )


def coa_curve(
    tiers: Sequence[Sequence[Group]],
    times: Sequence[float],
    multipliers: Sequence[float] = (1.0,),
    durations: Sequence[float] = (math.inf,),
) -> np.ndarray:
    """Expected COA at each time from the all-up state.

    *multipliers* and *durations* describe one rollout phase each: during
    phase *p* every patch rate is scaled by ``multipliers[p]`` while
    recovery rates stay fixed.  The last duration is open-ended.  A time
    on a phase boundary belongs to the next phase at offset 0, a
    zero-duration phase is a no-op and a non-final ``inf`` duration is
    terminal (every later time falls in it).
    """
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


def completion_curves(
    groups: Sequence[tuple[int, float]],
    times: Sequence[float],
    multipliers: Sequence[float] = (1.0,),
    durations: Sequence[float] = (math.inf,),
) -> tuple[np.ndarray, np.ndarray, float]:
    """Patch completion of ``(server count, lambda_eq)`` *groups*.

    Every server starts unpatched at ``t = 0``; *multipliers* and
    *durations* are rollout phases as in :func:`coa_curve`.  Returns
    P(every server patched by t) and the expected unpatched fraction at
    each time, and the mean time to completion: ``math.inf`` when some
    server can never patch (a zero rate, or a frozen final phase with
    work left).
    """
    counts, lam = np.array(groups, dtype=float).T
    unpatched = _unpatched(lam, times, multipliers, durations)
    return (
        np.exp(_log_complete(counts, unpatched)),
        _unpatched_share(counts, unpatched),
        float(_mean_completion(counts, lam, multipliers, durations)),
    )


def trigger_time(
    groups: Sequence[tuple[int, float]],
    multipliers: Sequence[float],
    durations: Sequence[float],
    threshold: float,
) -> float:
    """Hours until the expected unpatched fraction drops to *threshold*.

    The rollout so far ran at ``multipliers[:-1]`` for *durations*
    hours each (all finite); the phase being resolved runs at
    ``multipliers[-1]``.  Returns 0 when the fraction is already at or
    below *threshold*, and ``math.inf`` when it never gets there: a
    threshold of 0 (reached only asymptotically), or one at or below
    the share of servers whose effective patch rate is zero (a zero
    multiplier freezes them all).  Otherwise the fraction decays
    monotonically: the time is bracketed by doubling from one hour and
    bisected down to adjacent floats.
    """
    counts, lam = np.array(groups, dtype=float).T
    carry = _unpatched(lam, [sum(durations)], multipliers, [*durations, math.inf])
    carry, rate = carry[:, 0], multipliers[-1] * lam

    def fraction(offset: float) -> float:
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


def tier_up_distribution(count: int, up_probability: float) -> list[float]:
    """Binomial pmf over 0..count servers up."""
    check_positive_int(count, "count")
    if not 0.0 <= up_probability <= 1.0:
        raise EvaluationError(f"up_probability must be in [0,1], got {up_probability}")
    return [
        comb(count, k) * up_probability**k * (1.0 - up_probability) ** (count - k)
        for k in range(count + 1)
    ]


def product_form_coa(
    capacities: Mapping[str, int],
    patch_rates: Mapping[str, float],
    recovery_rates: Mapping[str, float],
) -> float:
    """Exact COA of a homogeneous design from the per-service rates.

    Parameters
    ----------
    capacities:
        Service name -> number of servers.
    patch_rates, recovery_rates:
        Service name -> lambda_eq / mu_eq.
    """
    if not capacities:
        raise EvaluationError("COA needs at least one service")
    tiers = []
    for service, count in capacities.items():
        if service not in patch_rates or service not in recovery_rates:
            raise EvaluationError(f"missing rates for service {service!r}")
        lam = check_positive(patch_rates[service], f"patch rate of {service!r}")
        mu = check_positive(recovery_rates[service], f"recovery rate of {service!r}")
        tiers.append([(check_positive_int(count, "count"), lam, mu)])
    return coa(tiers)


def _piecewise(times, multipliers, durations, start, advance):
    """Per-group values at each time, a ``(groups, times)`` array.

    Values begin at *start* at ``t = 0``; ``advance(values, multiplier,
    hours)`` moves a column of them on by an array of hours within one
    phase.  A time on a phase boundary belongs to the next phase at
    offset 0, a zero-duration phase is a no-op and a non-final ``inf``
    duration is terminal (every later time falls in it).
    """
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
    """Unpatched probabilities *hours* on at patch rates *rate*."""
    return unpatched * np.exp(-rate * hours)


def _unpatched(lam, times, multipliers, durations):
    """Per-group probability that a server is still unpatched at each
    time, every server unpatched at ``t = 0``."""
    return _piecewise(
        times,
        multipliers,
        durations,
        np.ones(len(lam)),
        lambda u, multiplier, hours: _decay(u, multiplier * lam[:, None], hours),
    )


def _log_complete(counts, unpatched):
    """``log P(complete) = sum_g n_g log(1 - u_g)``, row by row, so each
    column's bits do not depend on the other columns."""
    with np.errstate(divide="ignore"):
        return sum(count * np.log1p(-row) for count, row in zip(counts, unpatched))


def _unpatched_share(counts, unpatched):
    """The expected unpatched fraction ``sum_g n_g u_g / N``."""
    return sum(count * row for count, row in zip(counts, unpatched)) / counts.sum()


def _pending(counts, unpatched):
    """P(not complete) ``= 1 - prod_g (1 - u_g) ** n_g``."""
    return -np.expm1(_log_complete(counts, unpatched))


def _remaining(counts, lam, unpatched) -> float:
    """``R(u)``: expected hours until completion at base rates."""
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
    """Expected hours until every server is patched.

    Sums the hours each phase spends incomplete: ``(R(u) - R(u')) / m``
    for a finite phase at multiplier *m* taking the state from ``u`` to
    ``u'``, ``R(u) / m`` for the open-ended one (so one open-ended
    phase at *m* takes exactly ``1/m`` of the base mean), and the
    duration times ``P(not complete)`` for a paused one.  A paused
    final phase never completes unless the campaign already has (to
    within 1e-12).
    """
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
    """Two-state down-probability *offset* hours after *carry*."""
    decay = -rate * offset
    return limit * -np.expm1(decay) + carry * np.exp(decay)


def _coa(tiers, down):
    """The COA formula over per-group down-probabilities (floats or
    arrays over time, aligned with *tiers*)."""
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
