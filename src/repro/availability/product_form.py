"""Closed-form capacity-oriented availability: the evaluator's COA path.

The upper-layer SRN (Fig. 4, Table VI) is a product of independent
two-state chains: every server leaves for patching at its group's
aggregated rate ``lambda_eq`` and returns at ``mu_eq``, whatever the
other servers do.  So the number of up servers ``U_i`` of each tier is
a sum of independent indicators, the tiers are independent of each
other, and COA factorises per tier with no state space at all.  Per
tier *i* with variant groups *g* of ``n_g`` servers, each down with
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

This is exact only because servers are independent.  A model that
couples them — shared components, correlated failures, a limited patch
crew — has no product form; build it as an SRN and solve it with
:func:`repro.srn.solve`, the pipeline behind
:class:`~repro.availability.network.NetworkAvailabilityModel` and
:class:`~repro.availability.heterogeneous.HeterogeneousAvailabilityModel`
that stays the paper-faithful oracle for this module.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from math import comb

import numpy as np

from repro._validation import check_positive, check_positive_int
from repro.errors import EvaluationError

__all__ = ["Group", "coa", "coa_curve", "product_form_coa", "tier_up_distribution"]

#: One server group: ``(replica count, lambda_eq, mu_eq)``.
Group = tuple[int, float, float]


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
    if len(multipliers) != len(durations) or not multipliers:
        raise EvaluationError(
            f"piecewise COA needs one duration per multiplier, got "
            f"{len(multipliers)} multipliers and {len(durations)} durations"
        )
    times = [float(t) for t in times]
    if not all(math.isfinite(t) and t >= 0 for t in times):
        raise EvaluationError("times must be finite and non-negative")
    lam = np.array([g[1] for groups in tiers for g in groups], dtype=float)
    mu = np.array([g[2] for groups in tiers for g in groups], dtype=float)
    down = np.empty((len(lam), len(times)))
    carry = np.zeros(len(lam))
    start = 0.0
    for position, (multiplier, duration) in enumerate(zip(multipliers, durations)):
        if duration != duration or duration < 0:
            raise EvaluationError(f"phase duration must be >= 0, got {duration}")
        last = position == len(multipliers) - 1
        end = math.inf if last else start + duration
        rate = multiplier * lam + mu
        limit = multiplier * lam / rate
        indices = [i for i, t in enumerate(times) if start <= t < end]
        if indices:
            offsets = np.array([times[i] - start for i in indices])
            down[:, indices] = _relax(
                carry[:, None], limit[:, None], rate[:, None], offsets
            )
        if last or math.isinf(duration):
            break
        if duration > 0.0:
            carry = _relax(carry, limit, rate, duration)
        start = end
    rows = iter(down)
    return np.asarray(
        _coa(tiers, [[next(rows) for _ in groups] for groups in tiers]),
        dtype=float,
    )


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
