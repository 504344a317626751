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
spends ``(R(u) - R(u')) / m`` hours incomplete.  A campaign phase that
ends on a completion-fraction trigger lasts until the expected
unpatched fraction drops to its threshold: the fraction decays
monotonically within the phase, so its end is bracketed by doubling
from one hour and bisected down to adjacent floats.

Stacked evaluation
------------------
A timeline chunk is evaluated in one pass.  :class:`GroupStack` holds
designs of one *shape* — the number of server groups in each tier — as
``(groups, designs)`` arrays, and :class:`Rollout` samples them on one
time grid, each design under its own rollout phases.  The state at
every phase start is a ``(phases, groups, designs)`` array; each time
takes its design's phase window, offset and start state, so the relax
and the decay are one ``(groups, designs, times)`` expression each;
COA, completion probability and unpatched fraction fold over the group
axis; and ``R(u)`` is evaluated once for each distinct (design,
phase-start state).  :meth:`GroupStack.resolve` bisects the triggers in lock step:
each design runs the scalar bisection as a generator that yields its
next probe (a Python float), and each round evaluates the unpatched
fraction of every design still bisecting, each at its own probe, in one
array expression, so every design takes exactly the probes it would
take alone.  :func:`coa_curve` is the one-design call of the same code.

The stacked curves are bit-identical to evaluating one design at a time
(the per-design oracle in ``tests/oracles/timeline.py``) because every
element goes through the same floating-point operations in the same
order:

- ``d ** count`` keeps the Python-int count, and rows are grouped by
  distinct count: ``d ** 2`` takes numpy's square, while an array
  exponent goes through ``pow``, which differs in the last bit;
- each ``R(u)`` state is reduced by its own 1-D ``_DE_WEIGHTS @ row``
  (a matrix-vector product sums in another order);
- sums over groups fold sequentially from int 0, never with ``np.sum``
  over the group axis (pairwise summation reorders them);
- hours outside a design's own phase window are zeroed before ``exp``.

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
from collections.abc import Iterable, Mapping, Sequence
from math import comb

import numpy as np

from repro._validation import check_positive, check_positive_int
from repro.errors import EvaluationError

__all__ = [
    "Group",
    "GroupStack",
    "Rollout",
    "coa",
    "coa_curve",
    "product_form_coa",
    "tier_up_distribution",
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
    terms = []
    for groups in tiers:
        tier = []
        for count, lam, mu in groups:
            down = lam / (lam + mu)
            tier.append((count * (1.0 - down), down**count))
        terms.append(tier)
    return _coa(terms, sum(count for groups in tiers for count, _, _ in groups))


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
    terminal (every later time falls in it).  One design of
    :meth:`Rollout.coa_curves`.
    """
    times, multipliers, durations = _checked(times, multipliers, durations)
    rollout = Rollout(GroupStack([tiers]), times, [multipliers], [durations])
    return rollout.coa_curves()[0]


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


class GroupStack:
    """Designs of one shape as ``(groups, designs)`` arrays.

    A design is its tiers of :data:`Group` tuples
    (:meth:`~repro.evaluation.availability.AvailabilityEvaluator.group_rates`);
    the designs of one stack have the same number of groups in each
    tier, and each keeps its replica counts as Python ints for
    ``d ** count``.
    """

    def __init__(self, designs: Sequence[Sequence[Sequence[Group]]]) -> None:
        rows = [[group for tier in design for group in tier] for design in designs]
        #: Per tier, the indices of its groups.
        self.tiers = []
        first = 0
        for tier in designs[0]:
            self.tiers.append(range(first, first + len(tier)))
            first += len(tier)
        #: Per design, each group's replica count.
        self.counts = [tuple(count for count, _, _ in row) for row in rows]
        #: Per design, its number of servers.
        self.totals = [sum(counts) for counts in self.counts]
        self.n, self.lam, self.mu = np.array(rows, dtype=float).T.copy()
        self._powers = []
        for column in zip(*self.counts):
            rows_of: dict[int, list[int]] = {}
            for design, count in enumerate(column):
                rows_of.setdefault(count, []).append(design)
            self._powers.append(rows_of)

    def __len__(self) -> int:
        return len(self.counts)

    def resolve(
        self, phases: Iterable[tuple[Sequence[float], float | None, float | None]]
    ) -> tuple[list[list[float]], list[list[float]], list[tuple[float, ...]], int]:
        """Each design's reachable phase multipliers and durations, every
        phase start, and the rounds the trigger bisection took.

        *phases* are ``(multipliers, hours, threshold)``, one multiplier
        per design: a phase with a *threshold* ends when the design's
        expected unpatched fraction drops to it (:meth:`_triggers`), any
        other after *hours* (``math.inf`` for the open-ended last one).
        A phase that never ends is the last reachable one: the phases
        behind it get a start of ``math.inf``.
        """
        phases = list(phases)
        size = len(self)
        multipliers: list[list[float]] = [[] for _ in range(size)]
        durations: list[list[float]] = [[] for _ in range(size)]
        starts: list[list[float]] = [[] for _ in range(size)]
        clock = [0.0] * size
        unpatched = np.ones_like(self.lam)
        rounds = 0
        for position, (factors, hours, threshold) in enumerate(phases):
            live = []
            for design in range(size):
                if durations[design] and math.isinf(durations[design][-1]):
                    starts[design].append(math.inf)
                    continue
                starts[design].append(clock[design])
                multipliers[design].append(factors[design])
                live.append(design)
            if threshold is None:
                ends = [hours] * len(live)
            else:
                ends, spent = self._triggers(live, unpatched, factors, threshold)
                rounds += spent
            step = [0.0] * size
            for design, end in zip(live, ends):
                durations[design].append(end)
                clock[design] += end
                if 0.0 < end < math.inf:
                    step[design] = end
            if any(later is not None for _, _, later in phases[position + 1 :]):
                rate = np.array(factors) * self.lam
                unpatched = _decay(unpatched, rate, np.array(step))
        return multipliers, durations, [tuple(s) for s in starts], rounds

    def _triggers(
        self,
        rows: list[int],
        unpatched: np.ndarray,
        factors: Sequence[float],
        threshold: float,
    ) -> tuple[list[float], int]:
        """Hours until each design of *rows* gets its expected unpatched
        fraction down to *threshold* from the state *unpatched*, with
        patch rates scaled by its factor, and the rounds taken.

        Each design runs its own :func:`_bisection`; every round
        evaluates the fraction of all *rows* in one array expression,
        each design at its own probe (0 once it is done).
        """
        rate = np.array([factors[d] for d in rows]) * self.lam[:, rows]
        start = unpatched[:, rows]
        falling = -rate
        counts = [self.counts[d] for d in rows]
        totals = [self.totals[d] for d in rows]
        searches = []
        for design, column, total in zip(counts, rate.T.tolist(), totals):
            frozen = sum(n for n, r in zip(design, column) if r == 0.0) / total
            searches.append(_bisection(threshold, frozen))
        probes = [next(search) for search in searches]
        ends: list[float] = [0.0] * len(rows)
        active = list(range(len(rows)))
        rounds = 0
        while active:
            rounds += 1
            left = (start * np.exp(falling * np.array(probes))).T.tolist()
            still = []
            for i in active:
                share = 0
                for n, u in zip(counts[i], left[i]):
                    share = share + n * u
                try:
                    probes[i] = searches[i].send(share / totals[i])
                except StopIteration as done:
                    ends[i] = done.value
                    probes[i] = 0.0
                else:
                    still.append(i)
            active = still
        return ends, rounds

    def _power(self, group: int, values: np.ndarray) -> np.ndarray:
        """``values ** count`` row by row, each design's count a Python
        int."""
        rows_of = self._powers[group]
        if len(rows_of) == 1:
            [count] = rows_of
            return values**count
        out = np.empty_like(values)
        for count, rows in rows_of.items():
            out[rows] = values[rows] ** count
        return out


class Rollout:
    """A :class:`GroupStack` on one time grid, each design under its own
    rollout phases.

    *multipliers* and *durations* hold one list per design, as
    :func:`coa_curve` takes them for one, with only the last duration
    infinite.  A design's phase windows run back to back from 0; a time
    on a boundary belongs to the next phase at offset 0, and a
    zero-duration phase holds no time.  Construction computes every
    phase-start state and the per-group curves, ``(groups, designs,
    times)``: the two-state down-probability and the probability of
    being still unpatched.
    """

    def __init__(
        self,
        stack: GroupStack,
        times: Sequence[float],
        multipliers: Sequence[Sequence[float]],
        durations: Sequence[Sequence[float]],
    ) -> None:
        self.stack = stack
        self.multipliers = multipliers
        self.durations = durations
        width = max(len(phases) for phases in multipliers)
        factors, steps, begins = [], [], []
        for factor, hours in zip(multipliers, durations):
            pad = [0.0] * (width - len(factor))
            factors.append([*factor, *pad])
            begin = 0.0
            opens, step = [], []
            for duration in hours[:-1]:
                opens.append(begin)
                step.append(duration if duration > 0.0 else 0.0)
                begin = begin + duration
            begins.append([*opens, begin, *[math.inf] * len(pad)])
            steps.append([*step, 0.0, *pad])
        # Per phase: r = m lambda + mu, d_inf, m lambda and both start states.
        table = np.empty((5, width, *stack.lam.shape))
        rate, limit, patching, down, left = table
        factors = np.array(factors, dtype=float).T
        np.multiply(factors[:, None, :], stack.lam, out=patching)
        np.add(patching, stack.mu, out=rate)
        np.divide(patching, rate, out=limit)
        down[0] = 0.0
        left[0] = 1.0
        for phase, step in enumerate(np.array(steps).T[:-1]):
            moved = _relax(down[phase], limit[phase], rate[phase], step)
            down[phase + 1] = np.where(step > 0.0, moved, down[phase])
            left[phase + 1] = _decay(left[phase], patching[phase], step)
        grid = np.array(times, dtype=float)
        if width == 1:
            rate, limit, patching, down, left = table[:, 0, :, :, None]
            offsets = grid
        else:
            begins = np.array(begins)
            index = (begins[:, None, 1:] <= grid[:, None]).sum(axis=2)
            rows = np.arange(len(stack))[:, None]
            offsets = grid - begins[rows, index]
            rate, limit, patching, down, left = table.transpose(0, 2, 3, 1)[
                :, :, rows, index
            ]
        #: Per phase, the probability that a server is still unpatched at
        #: its start, ``(phases, groups, designs)``.
        self.starts = table[4]
        self.down = _relax(down, limit, rate, offsets)
        self.unpatched = _decay(left, patching, offsets)

    def coa_curves(self) -> np.ndarray:
        """Expected COA at each time, ``(designs, times)``."""
        stack = self.stack
        down = self.down
        terms = [
            [
                (stack.n[g][:, None] * (1.0 - down[g]), stack._power(g, down[g]))
                for g in groups
            ]
            for groups in stack.tiers
        ]
        return _coa(terms, np.array(stack.totals, dtype=float)[:, None])

    def completion_curves(self) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """P(every server patched by t) and the expected unpatched
        fraction at each time, both ``(designs, times)``, and each
        design's mean time to completion: ``math.inf`` when some server
        can never patch (a zero rate, or a frozen final phase with work
        left)."""
        stack = self.stack
        counts = stack.n[:, :, None]
        totals = np.array(stack.totals, dtype=float)[:, None]
        return (
            np.exp(_log_complete(counts, self.unpatched)),
            _fold(counts * self.unpatched) / totals,
            self._means(),
        )

    def _means(self) -> list[float]:
        """Expected hours until every server is patched, per design.

        Sums the hours each phase spends incomplete: ``(R(u) - R(u')) /
        m`` for a finite phase at multiplier *m* taking the state from
        ``u`` to ``u'``, ``R(u) / m`` for the open-ended one (so one
        open-ended phase at *m* takes exactly ``1/m`` of the base mean),
        and the duration times ``P(not complete)`` for a paused one.  A
        paused final phase never completes unless the campaign already
        has (to within 1e-12).  ``R`` and ``P(not complete)`` are
        evaluated once for each distinct phase-start state of each
        design, all designs together.
        """
        stack = self.stack
        never = (stack.lam == 0.0).any(axis=0).tolist()
        remaining: dict[tuple[int, int], int] = {}
        pending: dict[tuple[int, int], int] = {}
        states = []
        phases = zip(self.multipliers, self.durations)
        for design, (factors, hours) in enumerate(phases):
            ids: list[int] = []
            states.append(ids)
            if never[design]:
                continue
            state = 0
            for phase, (factor, duration) in enumerate(zip(factors, hours)):
                ids.append(state)
                last = phase == len(factors) - 1
                if factor == 0.0:
                    pending.setdefault((design, state), phase)
                elif last or duration > 0.0:
                    remaining.setdefault((design, state), phase)
                    if not last:
                        state += 1
                        remaining.setdefault((design, state), phase + 1)
        tails = {}
        if remaining:
            tails = dict(zip(remaining, _remaining(*self._states(remaining))))
        held = {}
        if pending:
            counts, _, starts = self._states(pending)
            held = dict(zip(pending, _pending(counts, starts).tolist()))
        means = []
        for design, (factors, hours, ids) in enumerate(
            zip(self.multipliers, self.durations, states)
        ):
            if never[design]:
                means.append(math.inf)
                continue
            mean = 0.0
            last = len(factors) - 1
            for phase in range(last):
                factor, duration = factors[phase], hours[phase]
                key = (design, ids[phase])
                if factor == 0.0:
                    mean += duration * held[key]
                elif duration > 0.0:
                    after = (design, ids[phase] + 1)
                    mean += (tails[key] - tails[after]) / factor
            key = (design, ids[last])
            if factors[last] == 0.0:
                mean = mean if held[key] <= 1e-12 else math.inf
            else:
                mean = mean + tails[key] / factors[last]
            means.append(float(mean))
        return means

    def _states(self, keys: Mapping[tuple[int, int], int]) -> tuple[np.ndarray, ...]:
        """Counts, base patch rates and phase-start states of
        ``(design, state) -> phase`` *keys*, ``(groups, keys)`` each."""
        designs = [design for design, _ in keys]
        return (
            self.stack.n[:, designs],
            self.stack.lam[:, designs],
            self.starts[list(keys.values()), :, designs].T,
        )


def _checked(
    times: Sequence[float], multipliers: Sequence[float], durations: Sequence[float]
) -> tuple[list[float], list[float], list[float]]:
    """*times* as floats and the phases up to the first that never ends,
    that one made open-ended.

    Refuses, in this order: a phase count mismatch, a negative or
    non-finite time, and a negative or NaN duration before the time
    axis is used up.
    """
    if len(multipliers) != len(durations) or not multipliers:
        raise EvaluationError(
            f"piecewise curves need one duration per multiplier, got "
            f"{len(multipliers)} multipliers and {len(durations)} durations"
        )
    times = [float(t) for t in times]
    if not all(math.isfinite(t) and t >= 0 for t in times):
        raise EvaluationError("times must be finite and non-negative")
    begin = 0.0
    for position, duration in enumerate(durations):
        if duration != duration or duration < 0:
            raise EvaluationError(f"phase duration must be >= 0, got {duration}")
        begin = begin + duration
        if position == len(durations) - 1 or math.isinf(begin):
            break
    count = next(
        (i + 1 for i, duration in enumerate(durations) if math.isinf(duration)),
        len(durations),
    )
    return times, list(multipliers[:count]), [*durations[: count - 1], math.inf]


def _bisection(threshold: float, frozen: float):
    """One trigger's search, as a generator: it yields each offset (hours
    into the phase) whose expected unpatched fraction it needs, is sent
    that fraction, and returns the hours until the fraction drops to
    *threshold*.

    0 when the fraction is already at or below the threshold;
    ``math.inf`` when it never gets there: a threshold of 0 (reached
    only asymptotically), or one at or below the *frozen* share of
    servers whose effective patch rate is zero (a zero multiplier
    freezes them all).  Otherwise the fraction decays monotonically: the
    time is bracketed by doubling from one hour and bisected down to
    adjacent floats.
    """
    if (yield 0.0) <= threshold:
        return 0.0
    if threshold <= frozen:
        return math.inf
    lo, hi = 0.0, 1.0
    while (yield hi) > threshold:
        lo, hi = hi, 2.0 * hi
        if math.isinf(hi):
            return math.inf
    while True:
        mid = lo + (hi - lo) / 2.0
        if not lo < mid < hi:
            return hi
        if (yield mid) <= threshold:
            hi = mid
        else:
            lo = mid


def _decay(unpatched, rate, hours):
    """Unpatched probabilities *hours* on at patch rates *rate*."""
    return unpatched * np.exp(-rate * hours)


def _relax(carry, limit, rate, offset):
    """Two-state down-probability *offset* hours after *carry*."""
    decay = -rate * offset
    return limit * -np.expm1(decay) + carry * np.exp(decay)


def _fold(terms):
    """The sum of *terms* over its leading (group) axis, one group after
    another from int 0."""
    total = 0
    for term in terms:
        total = total + term
    return total


def _log_complete(counts, unpatched):
    """``log P(complete) = sum_g n_g log(1 - u_g)`` over the leading
    (group) axis."""
    with np.errstate(divide="ignore"):
        return _fold(counts * np.log1p(-unpatched))


def _pending(counts, unpatched):
    """P(not complete) ``= 1 - prod_g (1 - u_g) ** n_g``."""
    return -np.expm1(_log_complete(counts, unpatched))


def _remaining(counts, lam, unpatched) -> list[float]:
    """``R(u)`` of each column: expected hours until completion at base
    rates, 0 when no server is left unpatched."""
    live = unpatched > 0.0
    scale = np.where(live, lam, math.inf).min(axis=0)
    pending = _pending(
        counts[:, :, None],
        _decay(unpatched[:, :, None], lam[:, :, None], _DE_NODES / scale[:, None]),
    )
    return [
        float(_DE_WEIGHTS @ row) / s if alive else 0.0
        for row, s, alive in zip(pending, scale, live.any(axis=0).tolist())
    ]


def _coa(tiers, total):
    """The COA formula over each group's ``n_g (1 - d_g)`` and ``d_g **
    n_g`` terms, per tier (floats, or arrays over designs and time)."""
    expected = []
    any_up = []
    for groups in tiers:
        up = 0.0
        none_up = 1.0
        for running, down in groups:
            up = up + running
            none_up = none_up * down
        expected.append(up)
        any_up.append(1.0 - none_up)
    running = 0.0
    for i, up in enumerate(expected):
        for j, p in enumerate(any_up):
            if j != i:
                up = up * p
        running = running + up
    return running / total
