"""The stacked timeline pass against the per-design oracle.

A chunk's curves come from one stacked pass per design shape
(:func:`repro.evaluation.timeline._curves`), its campaign triggers
bisected in lock step.  ``tests/oracles/timeline.py`` evaluates one
design at a time with the scalar bisection.  Every field must match
``==`` (compared through ``float.hex``), whatever the chunk.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.enterprise import paper_variant_space
from repro.enterprise.heterogeneous import design_tiers
from repro.evaluation import AvailabilityEvaluator, SweepEngine, default_time_grid
from repro.evaluation.sweep import enumerate_designs, enumerate_heterogeneous_designs
from repro.evaluation.timeline import _curves
from repro.observability import REGISTRY, tracing
from repro.patching import CampaignPhase, PatchCampaign
from repro.vulnerability.diversity import diversity_database
from tests.oracles import timeline as oracle

PERFBENCH = PatchCampaign.parse("canary:0.1:48:1,ramp:0.5:50%,fleet:1.0")
TWO_TRIGGERS = PatchCampaign(
    name="two-triggers",
    phases=(
        CampaignPhase("canary", 0.2, completion_fraction=0.25),
        CampaignPhase("pause", 0.0, duration_hours=30.0),
        CampaignPhase("ramp", 0.5, completion_fraction=0.6),
        CampaignPhase("fleet", 1.0),
    ),
)


def _exact(fields: dict) -> tuple:
    """Every curve field, floats as ``float.hex``."""

    def hexed(values):
        return tuple(float(v).hex() for v in values)

    return (
        hexed(fields["times"]),
        hexed(fields["coa"]),
        hexed(fields["completion_probability"]),
        hexed(fields["unpatched_fraction"]),
        float(fields["mean_time_to_completion"]).hex(),
        float(fields["steady_coa"]).hex(),
        fields["campaign"],
        hexed(fields["phase_starts"]),
    )


def _timeline_fields(timeline) -> dict:
    return {
        name: getattr(timeline, name)
        for name in (
            "times",
            "coa",
            "completion_probability",
            "unpatched_fraction",
            "mean_time_to_completion",
            "steady_coa",
            "campaign",
            "phase_starts",
        )
    }


def _chunked(rates, times, campaign, size) -> list[tuple]:
    return [
        _exact(fields)
        for start in range(0, len(rates), size)
        for fields in _curves(rates[start : start + size], times, campaign)
    ]


_RATE = st.one_of(
    st.floats(min_value=1e-3, max_value=0.05),
    st.sampled_from([0.0, 1.0 / 720.0, 1.0 / 30.0]),
)


@st.composite
def chunks(draw):
    """1-6 designs over at most two shapes: 1-3 tiers of 1 (a
    homogeneous role) or 2 (a diverse tier) server groups."""
    shapes = draw(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3),
            min_size=1,
            max_size=2,
        )
    )
    designs = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        shape = draw(st.sampled_from(shapes))
        designs.append(
            [
                [
                    (
                        draw(st.integers(min_value=1, max_value=3)),
                        draw(_RATE),
                        draw(st.floats(min_value=1e-2, max_value=5.0)),
                    )
                    for _ in range(groups)
                ]
                for groups in shape
            ]
        )
    return designs


_MULTIPLIER = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0])
_CANARY = st.one_of(st.none(), st.integers(min_value=1, max_value=4))


@st.composite
def campaigns(draw):
    """None, or 0-3 staged phases — fixed durations (zero included) or
    completion triggers (100% included) — then an open-ended one."""
    if draw(st.booleans()) and draw(st.booleans()):
        return None
    phases = []
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        end = draw(
            st.one_of(
                st.sampled_from([0.0, 48.0]).map(lambda d: ("hours", d)),
                st.floats(min_value=0.0, max_value=400.0).map(lambda d: ("hours", d)),
                st.sampled_from([0.1, 0.5, 0.9, 1.0]).map(lambda f: ("fraction", f)),
                st.floats(min_value=0.01, max_value=1.0).map(lambda f: ("fraction", f)),
            )
        )
        kind, value = end
        phases.append(
            CampaignPhase(
                f"p{i}",
                draw(_MULTIPLIER),
                duration_hours=value if kind == "hours" else None,
                completion_fraction=value if kind == "fraction" else None,
                canary_hosts=draw(_CANARY),
            )
        )
    phases.append(
        CampaignPhase(
            "final",
            draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
            canary_hosts=draw(_CANARY),
        )
    )
    return PatchCampaign(name="random", phases=tuple(phases))


class TestStackedAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        rates=chunks(),
        campaign=campaigns(),
        grid=st.lists(st.floats(min_value=0.0, max_value=2000.0), max_size=6),
    )
    def test_every_field_matches_the_oracle_at_any_chunk_size(
        self, rates, campaign, grid
    ):
        # Time 0 and every phase boundary of every design are grid points.
        times = [0.0, 48.0, 720.0, *grid]
        expected = [oracle.curves(r, (), campaign) for r in rates]
        for fields in expected:
            times.extend(t for t in fields["phase_starts"] if math.isfinite(t))
        times = tuple(times)
        expected = [_exact(oracle.curves(r, times, campaign)) for r in rates]
        for size in sorted({1, 2, len(rates)}):
            assert _chunked(rates, times, campaign, size) == expected


@pytest.fixture(scope="module")
def spaces(case_study, critical_policy):
    database = diversity_database()
    pool = paper_variant_space()
    roles = ["dns", "web", "app"]
    homogeneous = list(enumerate_designs(roles, 3))
    variants = list(
        enumerate_heterogeneous_designs(
            roles, {role: pool[role] for role in roles}, max_replicas=2
        )
    )
    availability = AvailabilityEvaluator(case_study, critical_policy, database=database)
    return database, homogeneous + variants[:: len(variants) // 9], availability


class TestEngineChunks:
    @pytest.mark.parametrize(
        "campaign", [None, PERFBENCH, TWO_TRIGGERS], ids=["plain", "perfbench", "two"]
    )
    def test_chunk_sizes_match_the_oracle(self, spaces, campaign):
        database, designs, availability = spaces
        times = default_time_grid(1440.0, 25) + (48.0, 5000.0)
        expected = [
            _exact(
                oracle.curves(
                    availability.group_rates(design_tiers(design)), times, campaign
                )
            )
            for design in designs
        ]
        for size in (1, 4, None):
            timelines = SweepEngine(chunk_size=size, database=database).timeline(
                designs, times, campaign=campaign
            )
            assert [_exact(_timeline_fields(t)) for t in timelines] == expected


class TestInstrumentation:
    @staticmethod
    def _counters() -> tuple[float, float]:
        state = REGISTRY.state()
        return (
            state[("repro_timeline_curves_total", ())]["value"],
            state[("repro_timeline_trigger_rounds_total", ())]["value"],
        )

    def test_a_nine_design_campaign_chunk_bisects_in_lock_step(
        self, case_study, critical_policy
    ):
        designs = list(enumerate_designs(["dns", "web", "app"], 3))[::3]
        times = default_time_grid(900.0, 40)
        availability = AvailabilityEvaluator(case_study, critical_policy)
        calls = []
        for design in designs:
            oracle.fraction_calls[0] = 0
            oracle.curves(
                availability.group_rates(design_tiers(design)), times, PERFBENCH
            )
            calls.append(oracle.fraction_calls[0])
        curves, rounds = self._counters()
        was_enabled = tracing.set_enabled(True)
        tracing.drain()
        try:
            SweepEngine().timeline(designs, times, campaign=PERFBENCH)
            spans = [e for e in tracing.drain() if e["name"] == "timeline:curves"]
        finally:
            tracing.set_enabled(was_enabled)
        after_curves, after_rounds = self._counters()
        assert len(designs) == 9
        assert after_curves - curves == 9
        # One stack, one trigger phase: each round probes every design
        # still bisecting, so the rounds are the longest bisection.
        assert after_rounds - rounds == max(calls)
        assert 4 * max(calls) < sum(calls)
        assert [(s["args"]["designs"], s["args"]["points"]) for s in spans] == [(9, 40)]
        assert spans[0]["args"]["rounds"] == max(calls)

    def test_stationary_chunks_take_no_rounds(self, case_study, critical_policy):
        designs = list(enumerate_designs(["dns", "web"], 2))
        curves, rounds = self._counters()
        SweepEngine(case_study=case_study, policy=critical_policy).timeline(
            designs, default_time_grid(720.0, 5)
        )
        after_curves, after_rounds = self._counters()
        assert after_curves - curves == len(designs)
        assert after_rounds == rounds
