"""Tests for the closed-form COA against the upper-layer SRN oracle."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.availability import (
    HeterogeneousAvailabilityModel,
    NetworkAvailabilityModel,
    coa_reward,
    product_form_coa,
)
from repro.availability.coa import up_place
from repro.availability.product_form import coa, coa_curve, tier_up_distribution
from repro.ctmc.transient import BatchTransientSolver, transient_piecewise
from repro.enterprise import RedundancyDesign, paper_variant_space
from repro.errors import EvaluationError
from repro.evaluation import AvailabilityEvaluator, evaluate_timeline
from repro.evaluation.sweep import (
    enumerate_designs,
    enumerate_heterogeneous_designs,
)
from repro.evaluation.timeline import default_time_grid
from repro.patching import PatchCampaign
from repro.srn import explore
from repro.vulnerability.diversity import diversity_database


def srn_curve(build, reward, times, multipliers=(1.0,), durations=(math.inf,)):
    """COA at *times* by piecewise uniformisation of the upper-layer SRN.

    *build(m)* returns the availability model with every patch rate
    scaled by *m*; each phase explores its own net (all share one state
    order) and :func:`transient_piecewise` carries the distribution
    across phase boundaries.
    """
    segments, tangible = [], None
    for multiplier, duration in zip(multipliers, durations):
        graph = explore(build(multiplier).build_srn())
        assert tangible is None or graph.tangible == tangible
        tangible = graph.tangible
        solver = BatchTransientSolver.from_generator(graph.generator())
        segments.append((solver, duration))
    rewards = np.array([reward(marking) for marking in tangible])
    return transient_piecewise(segments, graph.initial_distribution, times) @ rewards


def network_builder(evaluator, design):
    """Scaled-rate :class:`NetworkAvailabilityModel` builder and reward."""
    aggregates = evaluator.aggregates_for(design)

    def build(multiplier):
        return NetworkAvailabilityModel(
            design.counts,
            {
                role: SimpleNamespace(
                    patch_rate=multiplier * aggregate.patch_rate,
                    recovery_rate=aggregate.recovery_rate,
                )
                for role, aggregate in aggregates.items()
            },
        )

    return build, coa_reward(design.counts)


class TestTierDistribution:
    def test_binomial_shape(self):
        dist = tier_up_distribution(2, 0.9)
        assert dist == pytest.approx([0.01, 0.18, 0.81])

    def test_sums_to_one(self):
        assert sum(tier_up_distribution(5, 0.37)) == pytest.approx(1.0)

    def test_bad_probability_rejected(self):
        with pytest.raises(EvaluationError):
            tier_up_distribution(2, 1.5)


class TestProductFormCoa:
    def test_single_service_single_server(self):
        coa = product_form_coa({"svc": 1}, {"svc": 1.0}, {"svc": 9.0})
        assert coa == pytest.approx(0.9)

    def test_single_service_two_servers(self):
        # p_up = 0.9; states: 2 up -> reward 1 (p=0.81), 1 up -> 0.5 (p=0.18)
        coa = product_form_coa({"svc": 2}, {"svc": 1.0}, {"svc": 9.0})
        assert coa == pytest.approx(0.81 + 0.5 * 0.18)

    def test_two_services_all_must_run(self):
        coa = product_form_coa(
            {"a": 1, "b": 1}, {"a": 1.0, "b": 1.0}, {"a": 9.0, "b": 9.0}
        )
        assert coa == pytest.approx(0.81)

    def test_missing_rates_rejected(self):
        with pytest.raises(EvaluationError):
            product_form_coa({"a": 1}, {}, {"a": 1.0})

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            product_form_coa({}, {}, {})


class TestCurveShape:
    TIERS = [[(2, 0.5, 4.0)], [(1, 0.2, 1.0), (2, 1.0, 3.0)]]

    def test_all_up_at_time_zero_is_exactly_one(self):
        # (1 / 49) * 49 != 1.0 in floating point: COA must divide by N.
        for total in (1, 3, 49):
            assert coa_curve([[(total, 0.3, 2.0)]], [0.0])[0] == 1.0

    def test_long_horizon_reaches_steady_state(self):
        curve = coa_curve(self.TIERS, [1e4])
        assert curve[0] == pytest.approx(coa(self.TIERS), abs=1e-15)

    def test_one_phase_at_multiplier_one_is_the_stationary_curve(self):
        times = [0.0, 0.3, 2.0, 7.5]
        stationary = coa_curve(self.TIERS, times)
        staged = coa_curve(self.TIERS, times, [1.0], [math.inf])
        assert staged.tobytes() == stationary.tobytes()

    def test_phase_lengths_must_match(self):
        with pytest.raises(EvaluationError):
            coa_curve(self.TIERS, [0.0], [1.0, 0.5], [math.inf])

    @pytest.mark.parametrize("times", [[-1.0], [math.nan], [math.inf]])
    def test_bad_times_rejected(self, times):
        with pytest.raises(EvaluationError):
            coa_curve(self.TIERS, times)


class TestSteadyOracle:
    def test_81_design_space_matches_srn(self, case_study, critical_policy):
        evaluator = AvailabilityEvaluator(case_study, critical_policy)
        designs = list(enumerate_designs(["dns", "web", "app", "db"], 3))
        assert len(designs) == 81
        for design in designs:
            srn = evaluator.network_model(design).capacity_oriented_availability()
            assert evaluator.coa(design) == pytest.approx(srn, rel=1e-12)

    def test_100_variant_space_matches_srn(self, case_study, critical_policy):
        space = paper_variant_space()
        evaluator = AvailabilityEvaluator(
            case_study, critical_policy, database=diversity_database()
        )
        designs = list(
            enumerate_heterogeneous_designs(list(space), space, max_replicas=2)
        )
        assert len(designs) == 100
        for design in designs:
            srn = evaluator.network_model(design).capacity_oriented_availability()
            assert evaluator.coa(design) == pytest.approx(srn, rel=1e-12)


class TestTransientOracle:
    GRID = default_time_grid(720.0, 31)  # every 24 h: 48.0 is a grid point

    @pytest.fixture(scope="class")
    def designs(self):
        return [
            RedundancyDesign({"dns": 1, "web": 2, "app": 2, "db": 1}),
            RedundancyDesign({"dns": 3, "web": 1}),
        ]

    def test_stationary_curve_matches_srn(self, availability_evaluator, designs):
        for design in designs:
            srn = availability_evaluator.network_model(design).transient_coa(
                self.GRID
            )
            closed = availability_evaluator.transient_coa(design, self.GRID)
            np.testing.assert_allclose(closed, srn, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "multipliers, durations",
        [
            pytest.param([0.5, 0.0, 1.0], [30.0, 60.0, math.inf], id="pause"),
            pytest.param(
                [0.1, 2.0, 1.0], [40.0, 0.0, math.inf], id="zero-duration"
            ),
            pytest.param([0.1, 1.0], [48.0, math.inf], id="boundary-on-grid"),
            pytest.param(
                [0.3, 1.0, 5.0], [math.inf, 10.0, math.inf], id="never-ending"
            ),
        ],
    )
    def test_piecewise_curve_matches_srn(
        self, availability_evaluator, designs, multipliers, durations
    ):
        for design in designs:
            build, reward = network_builder(availability_evaluator, design)
            srn = srn_curve(build, reward, self.GRID, multipliers, durations)
            closed = availability_evaluator.transient_coa_piecewise(
                design, self.GRID, multipliers, durations
            )
            np.testing.assert_allclose(closed, srn, rtol=0.0, atol=1e-9)
            assert closed[0] == 1.0

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param("canary:1.0:48:1,fleet:1.0", id="canary-throttle"),
            pytest.param("slow:0.5:100%,fleet:1.0", id="trigger-never-fires"),
            pytest.param("hold:0:50%,fleet:1.0", id="paused-trigger"),
        ],
    )
    def test_campaign_timeline_matches_srn(
        self, case_study, critical_policy, availability_evaluator, designs, spec
    ):
        campaign = PatchCampaign.parse(spec)
        for design in designs:
            timeline = evaluate_timeline(
                design,
                self.GRID,
                case_study=case_study,
                policy=critical_policy,
                campaign=campaign,
            )
            starts = list(timeline.phase_starts) + [math.inf]
            durations = [
                b - a if math.isfinite(a) else math.inf
                for a, b in zip(starts, starts[1:])
            ]
            multipliers = [
                phase.effective_multiplier(design.total_servers)
                for phase in campaign.phases
            ]
            build, reward = network_builder(availability_evaluator, design)
            srn = srn_curve(build, reward, self.GRID, multipliers, durations)
            np.testing.assert_allclose(timeline.coa, srn, rtol=0.0, atol=1e-9)
        if "canary" in spec:
            assert multipliers[0] < 1.0  # the throttle binds
        else:
            assert math.isinf(timeline.phase_starts[1])  # never fires


_RATES = st.floats(min_value=1e-3, max_value=5.0, allow_nan=False)


@st.composite
def tier_specs(draw):
    """Random tiers: role -> {group -> (count, lambda, mu)}."""
    tiers = {}
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        tiers[f"t{t}"] = {
            f"t{t}g{g}": (
                draw(st.integers(min_value=1, max_value=2)),
                draw(_RATES),
                draw(_RATES),
            )
            for g in range(draw(st.integers(min_value=1, max_value=2)))
        }
    return tiers


def _hetero_builder(tiers):
    counts = {
        role: {group: spec[0] for group, spec in groups.items()}
        for role, groups in tiers.items()
    }
    total = sum(sum(groups.values()) for groups in counts.values())

    def build(multiplier):
        return HeterogeneousAvailabilityModel(
            counts,
            {
                group: SimpleNamespace(
                    patch_rate=multiplier * lam, recovery_rate=mu
                )
                for groups in tiers.values()
                for group, (_, lam, mu) in groups.items()
            },
        )

    def reward(marking):
        running = 0
        for groups in counts.values():
            up = sum(marking[up_place(group)] for group in groups)
            if up == 0:
                return 0.0
            running += up
        return running / total

    return build, reward


class TestRandomTiersProperty:
    @given(
        tier_specs(),
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_closed_form_matches_srn(self, tiers, phases):
        closed_tiers = [list(groups.values()) for groups in tiers.values()]
        build, reward = _hetero_builder(tiers)
        srn_steady = build(1.0).capacity_oriented_availability()
        assert coa(closed_tiers) == pytest.approx(srn_steady, rel=1e-12, abs=1e-14)

        times = [0.0, 0.5, 1.7, 4.0, 9.0]
        multipliers = [m for m, _ in phases]
        durations = [d for _, d in phases[:-1]] + [math.inf]
        srn = srn_curve(build, reward, times, multipliers, durations)
        closed = coa_curve(closed_tiers, times, multipliers, durations)
        np.testing.assert_allclose(closed, srn, rtol=0.0, atol=1e-9)
        assert closed[0] == 1.0
