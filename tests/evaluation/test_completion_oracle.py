"""The closed-form patch completion against its completion-chain oracle.

The oracle is the absorbing patch-completion CTMC of a design: one state
per vector of still-unpatched servers per group, ``u -> u - e_g`` at
rate ``u_g * lambda_g`` times the phase multiplier.  Its transient
analysis gives the completion probability and the expected unpatched
fraction, a bisection on its expected fraction the trigger times, and
occupancy solves plus its mean time to absorption the mean time to
completion.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import linalg as sparse_linalg

from repro.ctmc import Ctmc, mean_time_to_absorption
from repro.ctmc.transient import BatchTransientSolver, transient_piecewise
from repro.enterprise import HeterogeneousDesign, paper_case_study, paper_variant_space
from repro.enterprise.scaled import scaled_case_study
from repro.evaluation import (
    AvailabilityEvaluator,
    SecurityEvaluator,
    default_time_grid,
    evaluate_timeline,
)
from repro.evaluation.sweep import enumerate_designs
from repro.evaluation.timeline import _curves
from repro.patching import (
    CANARY_THEN_FLEET,
    CampaignPhase,
    CriticalVulnerabilityPolicy,
    PatchCampaign,
)
from repro.vulnerability.diversity import diversity_database

COMPLETION_ATOL = 1e-12
MEAN_RTOL = 1e-9
#: Poisson truncation of the oracle's uniformisation.  A completion
#: fraction one ulp below 1 puts a trigger threshold at 2**-53 ~ 1.1e-16,
#: so the chain must resolve expected unpatched fractions that small to
#: well within MEAN_RTOL; the solver default (1e-10 absolute) cannot.
ORACLE_TOLERANCE = 1e-30


def _patch_groups(availability, design):
    """``(count, lambda_eq)`` per server group, in the COA's tier order."""
    return [
        (count, rate)
        for tier in availability._tiers(design)
        for count, rate, _ in tier
    ]


def completion_chain(groups):
    """The completion CTMC of ``(count, rate)`` *groups*, its
    all-unpatched start state and its all-patched state."""
    counts = [count for count, _ in groups]
    states = [
        tuple(state)
        for state in itertools.product(*(range(count, -1, -1) for count in counts))
    ]
    chain = Ctmc(states)
    for state in states:
        for g, (_, rate) in enumerate(groups):
            if state[g] > 0 and rate > 0.0:
                successor = state[:g] + (state[g] - 1,) + state[g + 1 :]
                chain.add_rate(state, successor, state[g] * rate)
    return chain, tuple(counts), tuple(0 for _ in counts)


def _chain_trigger(solver, carry, fraction, threshold, frozen):
    """Hours until the chain's expected unpatched fraction drops to
    *threshold*, by plain bisection."""

    def value(offset):
        return float(solver.propagate(carry, offset) @ fraction)

    if value(0.0) <= threshold:
        return 0.0
    if threshold <= frozen:
        return math.inf
    lo, hi = 0.0, 1.0
    while value(hi) > threshold:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-13 * hi:
        mid = (lo + hi) / 2.0
        if value(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


def _chain_mean(chain, multipliers, durations, carries):
    """Expected hours to completion: one occupancy solve per finite
    phase, the chain's mean time to absorption for the last one."""
    absorbing = {chain.index_of(state) for state in chain.absorbing_states()}
    transient = [i for i in range(len(chain.states)) if i not in absorbing]
    q_tt = chain.generator().tocsc().astype(float)[np.ix_(transient, transient)]
    mean = 0.0
    for position, (multiplier, duration) in enumerate(zip(multipliers, durations)):
        carry = carries[position]
        if math.isinf(duration):
            if multiplier == 0.0:
                return mean if carry[transient].sum() <= 1e-12 else math.inf
            table = mean_time_to_absorption(chain)
            tail = sum(carry[chain.index_of(state)] * t for state, t in table.items())
            return mean + tail / multiplier
        if duration == 0.0:
            continue
        if multiplier == 0.0:
            mean += duration * carry[transient].sum()
            continue
        occupancy = sparse_linalg.spsolve(
            (q_tt * multiplier).transpose().tocsc(),
            carries[position + 1][transient] - carry[transient],
        )
        mean += float(np.sum(occupancy))
    raise AssertionError("the last phase is open-ended")


def chain_oracle(groups, times, campaign=None):
    """``(completion, unpatched fraction, mean, phase starts)`` of the
    completion chain, with *campaign*'s triggers resolved on it."""
    chain, full, zero = completion_chain(groups)
    total = sum(count for count, _ in groups)
    fraction = np.array([sum(state) / total for state in chain.states])
    generator = chain.generator().tocsr().astype(float)
    phases = campaign.phases if campaign is not None else (CampaignPhase("all", 1.0),)
    segments, multipliers, starts = [], [], []
    carry = {full: 1.0}
    start = 0.0
    for position, phase in enumerate(phases):
        if segments and math.isinf(segments[-1][1]):
            starts.append(math.inf)
            continue
        starts.append(start)
        multiplier = phase.effective_multiplier(total)
        solver = BatchTransientSolver.from_generator(
            generator * multiplier, states=chain.states, tolerance=ORACLE_TOLERANCE
        )
        if position == len(phases) - 1:
            duration = math.inf
        elif phase.duration_hours is not None:
            duration = phase.duration_hours
        else:
            frozen = sum(n for n, rate in groups if multiplier * rate == 0.0) / total
            duration = _chain_trigger(
                solver, carry, fraction, 1.0 - phase.completion_fraction, frozen
            )
        segments.append((solver, duration))
        multipliers.append(multiplier)
        if math.isfinite(duration):
            carry = solver.propagate(carry, duration)
        start += duration
    distributions, carries = transient_piecewise(
        segments, {full: 1.0}, times, return_carries=True
    )
    mean = _chain_mean(chain, multipliers, [d for _, d in segments], carries)
    return (
        distributions[:, chain.index_of(zero)],
        distributions @ fraction,
        mean,
        tuple(starts),
    )


def closed_form(groups, times, campaign=None):
    """The same four outputs from the closed form: a one-design stacked
    pass over the groups (the recovery rate only moves the COA)."""
    [curves] = _curves(
        [[[(count, rate, 1.0) for count, rate in groups]]],
        tuple(float(t) for t in times),
        campaign,
    )
    return (
        np.array(curves["completion_probability"]),
        np.array(curves["unpatched_fraction"]),
        curves["mean_time_to_completion"],
        curves["phase_starts"] if campaign is not None else (0.0,),
    )


def assert_matches_oracle(actual, expected):
    completion, unpatched, mean, starts = actual
    np.testing.assert_allclose(completion, expected[0], rtol=0, atol=COMPLETION_ATOL)
    np.testing.assert_allclose(unpatched, expected[1], rtol=0, atol=COMPLETION_ATOL)
    if math.isinf(expected[2]):
        assert mean == expected[2]
    else:
        assert mean == pytest.approx(expected[2], rel=MEAN_RTOL, abs=0)
    assert len(starts) == len(expected[3])
    for got, want in zip(starts, expected[3]):
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=MEAN_RTOL, abs=1e-12)


def _campaign(*phases):
    return PatchCampaign(name="oracle", phases=tuple(phases))


#: The perfbench timeline campaign: a one-host canary, a half-rate ramp
#: until half the fleet is expected patched, then the fleet.
PERFBENCH = PatchCampaign.parse("canary:0.1:48:1,ramp:0.5:50%,fleet:1.0")

CAMPAIGNS = {
    "stationary": None,
    "perfbench": PERFBENCH,
    "pause": _campaign(
        CampaignPhase("pause", 0.0, duration_hours=100.0),
        CampaignPhase("fleet", 1.0),
    ),
    "zero-duration": _campaign(
        CampaignPhase("noop", 9.0, duration_hours=0.0),
        CampaignPhase("canary", 0.1, duration_hours=48.0),
        CampaignPhase("gap", 0.0, duration_hours=0.0),
        CampaignPhase("fleet", 1.0),
    ),
    "frozen-trigger": _campaign(
        CampaignPhase("stall", 0.0, completion_fraction=0.5),
        CampaignPhase("fleet", 1.0),
    ),
    "full-trigger": _campaign(
        CampaignPhase("all", 1.0, completion_fraction=1.0),
        CampaignPhase("faster", 4.0),
    ),
    "canary-throttle": _campaign(
        CampaignPhase("drip", 1.0, duration_hours=200.0, canary_hosts=1),
        CampaignPhase("fleet", 1.0, canary_hosts=2),
    ),
    "two-triggers": _campaign(
        CampaignPhase("canary", 0.2, completion_fraction=0.25),
        CampaignPhase("ramp", 0.5, completion_fraction=0.6),
        CampaignPhase("fleet", 1.0),
    ),
    "canary-then-fleet": CANARY_THEN_FLEET,
}


@pytest.fixture(scope="module")
def evaluators():
    case_study, policy = paper_case_study(), CriticalVulnerabilityPolicy()
    return (
        case_study,
        policy,
        SecurityEvaluator(case_study),
        AvailabilityEvaluator(case_study, policy),
    )


def _timeline_outputs(timeline):
    starts = timeline.phase_starts if timeline.campaign is not None else (0.0,)
    return (
        np.array(timeline.completion_probability),
        np.array(timeline.unpatched_fraction),
        timeline.mean_time_to_completion,
        starts,
    )


class TestDesignSpace:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_27_designs_match_chain(self, evaluators, name):
        case_study, policy, security, availability = evaluators
        campaign = CAMPAIGNS[name]
        times = default_time_grid(1440.0, 25) + (48.0, 168.0, 5000.0)
        for design in enumerate_designs(["dns", "web", "app"], 3):
            timeline = evaluate_timeline(
                design,
                times,
                case_study=case_study,
                policy=policy,
                security_evaluator=security,
                availability_evaluator=availability,
                campaign=campaign,
            )
            groups = _patch_groups(availability, design)
            assert_matches_oracle(
                _timeline_outputs(timeline), chain_oracle(groups, times, campaign)
            )

    def test_variant_design_matches_chain(self):
        space = paper_variant_space()
        design = HeterogeneousDesign(
            {
                "web": {space["web"][0]: 2, space["web"][1]: 1},
                "db": {space["db"][0]: 1, space["db"][1]: 2},
            }
        )
        availability = AvailabilityEvaluator(
            paper_case_study(),
            CriticalVulnerabilityPolicy(),
            database=diversity_database(),
        )
        groups = _patch_groups(availability, design)
        times = default_time_grid(2000.0, 9)
        for campaign in (None, PERFBENCH):
            assert_matches_oracle(
                closed_form(groups, times, campaign),
                chain_oracle(groups, times, campaign),
            )


class TestScaled:
    @pytest.mark.parametrize("campaign", [None, PERFBENCH], ids=["plain", "perfbench"])
    def test_scaled_9x4_matches_chain(self, campaign):
        case_study, design = scaled_case_study(hosts_per_tier=9, tiers=4)
        availability = AvailabilityEvaluator(case_study, CriticalVulnerabilityPolicy())
        groups = _patch_groups(availability, design)
        times = default_time_grid(3000.0, 7)
        assert_matches_oracle(
            closed_form(groups, times, campaign),
            chain_oracle(groups, times, campaign),
        )


class TestChain:
    def test_completion_chain_groups_per_variant(self):
        space = paper_variant_space()
        design = HeterogeneousDesign({"web": {space["web"][0]: 2, space["web"][1]: 1}})
        evaluator = AvailabilityEvaluator(
            paper_case_study(),
            CriticalVulnerabilityPolicy(),
            database=diversity_database(),
        )
        groups = _patch_groups(evaluator, design)
        chain, full, zero = completion_chain(groups)
        assert full == (2, 1)
        assert zero == (0, 0)
        assert chain.number_of_states() == 6


_GROUP = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.0, max_value=4.0),
)


class TestRandomGroups:
    @settings(max_examples=25, deadline=None)
    @given(
        groups=st.lists(_GROUP, min_size=2, max_size=3),
        phases=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                st.floats(min_value=0.0, max_value=20.0),
            ),
            min_size=0,
            max_size=2,
        ),
        final=st.sampled_from([0.5, 1.0, 2.0]),
        fast=st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_spread_rates_match_chain(self, groups, phases, final, fast):
        """Rates spread over at least four decades: the slowest group
        patches 10^4 times slower than the fastest."""
        groups = [(n, fast * 10.0 ** -exponent) for n, exponent in groups]
        groups[0] = (groups[0][0], fast)
        groups[1] = (groups[1][0], fast * 1e-4)
        campaign = _campaign(
            *(
                CampaignPhase(f"p{i}", m, duration_hours=d / fast)
                for i, (m, d) in enumerate(phases)
            ),
            CampaignPhase("fleet", final),
        )
        times = tuple(t / fast for t in (0.0, 0.5, 3.0, 12.0, 40.0))
        assert_matches_oracle(
            closed_form(groups, times, campaign),
            chain_oracle(groups, times, campaign),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        groups=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),
                st.floats(min_value=0.002, max_value=0.02),
            ),
            min_size=1,
            max_size=3,
        ),
        phases=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.3, 1.0, 2.0]),
                st.one_of(
                    st.floats(min_value=0.05, max_value=1.0),
                    st.floats(min_value=0.0, max_value=300.0).map(lambda d: -d),
                ),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @example(groups=[(2, 0.015625)], phases=[(0.3, 0.9999999999999999)])
    def test_triggers_match_chain(self, groups, phases):
        """Completion-fraction triggers (positive entries) mixed with
        fixed durations (negated entries)."""
        campaign = _campaign(
            *(
                CampaignPhase(f"p{i}", m, completion_fraction=x)
                if x > 0
                else CampaignPhase(f"p{i}", m, duration_hours=-x)
                for i, (m, x) in enumerate(phases)
            ),
            CampaignPhase("fleet", 1.0),
        )
        times = (0.0, 50.0, 200.0, 600.0, 2000.0)
        assert_matches_oracle(
            closed_form(groups, times, campaign),
            chain_oracle(groups, times, campaign),
        )
