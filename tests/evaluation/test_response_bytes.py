"""The ``/v1`` body encoder is ``json.dumps(payload, indent=2)`` to the byte.

:func:`repro.evaluation.api.response_bytes` writes every body the
service sends.  It must equal the CLI's ``json.dumps`` output on any
JSON-able payload, and raise ``TypeError`` wherever json does.
"""

from __future__ import annotations

import enum
import json
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation import api
from repro.evaluation.engine import SweepEngine
from repro.evaluation.timeline import default_time_grid
from repro.patching.campaign import PatchCampaign


def _reference(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


class _Float(float):
    """A float subclass; json writes it with ``float.__repr__``."""


class _LoudFloat(float):
    def __repr__(self) -> str:
        return "loud"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


_SPECIAL_FLOATS = [
    -0.0, 0.0, 1e-05, 1e16, 1e22, 0.1, 5e-324, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
]
_SPECIAL_TEXT = ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é ü", " ",
                 "日本語", "\U0001f600", "\ud800"]

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_SPECIAL_FLOATS),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**90), max_value=2**90),
    st.sampled_from(list(_Level)),
    floats,
    floats.map(_Float),
    floats.map(_LoudFloat),
    st.text(),
    st.sampled_from(_SPECIAL_TEXT),
)
keys = st.one_of(
    st.text(),
    st.sampled_from(_SPECIAL_TEXT),
    st.integers(min_value=-(2**70), max_value=2**70),
    floats,
    st.booleans(),
    st.none(),
)
#: Lists of floats take the one-join path; a tail of another type
#: sends them back to one item at a time.
float_rows = st.one_of(
    st.lists(floats, min_size=1, max_size=12),
    st.lists(floats.map(_Float), min_size=1, max_size=4),
    st.tuples(st.lists(floats, min_size=1, max_size=6), scalars).map(
        lambda row: [*row[0], row[1]]
    ),
)
payloads = st.recursive(
    st.one_of(scalars, float_rows),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=30,
)


@given(payloads)
@settings(max_examples=200, deadline=None)
def test_generated_payloads_encode_like_json(payload):
    assert api.response_bytes(payload) == _reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {}, [], (), "", 0, None, True, False, -0.0, math.nan,
        {"a": {}, "b": [], "c": ()},
        [[], {}, [[]], [{}]],
        {"": [1.0, 2.5, -0.0, 1e-05, 1e16, math.nan, math.inf, -math.inf]},
        {1: "int", 2.5: "float", True: "bool", None: "none", -math.inf: "inf"},
        {_Level.HIGH: _Level.LOW},
        [2**64 + 1, -(2**80), _Level.HIGH],
        [_Float(1.5), _LoudFloat(2.0), _Float(math.nan)],
        ["\x00\"\\ 日本\U0001f600"],
    ],
)
def test_edge_payloads_encode_like_json(payload):
    assert api.response_bytes(payload) == _reference(payload)


_UNSUPPORTED = [
    {1, 2}, b"bytes", 1j, object(), Decimal("1.5"), frozenset(),
    {(1, 2): "tuple key"}, {frozenset(): 1}, {b"k": 1},
]


@pytest.mark.parametrize("bad", _UNSUPPORTED, ids=repr)
def test_unsupported_values_raise_type_error_like_json(bad):
    for payload in (bad, [bad], {"k": bad}, [1.0, 2.0, bad], {"a": [{"b": bad}]}):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError):
            api.response_bytes(payload)


@given(payloads, st.sampled_from(_UNSUPPORTED), st.booleans())
@settings(max_examples=50, deadline=None)
def test_unsupported_value_anywhere_raises_type_error(payload, bad, in_dict):
    wrapped = {"ok": payload, "bad": bad} if in_dict else [payload, bad]
    with pytest.raises(TypeError):
        json.dumps(wrapped, indent=2)
    with pytest.raises(TypeError):
        api.response_bytes(wrapped)


def test_type_error_message_matches_json():
    for payload in ({"k": {1}}, {(1,): 1}):
        with pytest.raises(TypeError) as expected:
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError) as got:
            api.response_bytes(payload)
        assert str(got.value) == str(expected.value)


@pytest.fixture(scope="module")
def engine():
    return SweepEngine()


def test_real_payloads_encode_like_json(engine):
    from repro.enterprise import paper_variant_space
    from repro.enterprise.scaled import scaled_case_study
    from repro.evaluation.sweep import enumerate_heterogeneous_designs
    from repro.vulnerability.diversity import diversity_database

    roles = ["dns", "web", "app", "db"]
    space = api.SpaceSpec(roles=tuple(roles), max_replicas=3)
    designs = api.enumerate_space(space)
    sweep = api.sweep_response(
        roles, 3, None, False, "serial", engine.evaluate(designs)
    )
    assert sweep["design_count"] == 81

    pools = paper_variant_space()
    variants = list(
        enumerate_heterogeneous_designs(
            roles, {role: pools[role] for role in roles}, max_replicas=2
        )
    )
    variant_sweep = api.sweep_response(
        roles, 2, None, True, "serial",
        SweepEngine(database=diversity_database()).evaluate(variants),
    )

    case_study, design = scaled_case_study(9, 4)
    scaled = api.sweep_response(
        list(design.roles), 2, None, False, "serial",
        SweepEngine(case_study=case_study).evaluate([design]),
    )

    campaign = PatchCampaign.parse("canary:0.1:48:1,ramp:0.5:50%,fleet:1.0")
    times = default_time_grid(720.0, 24)
    timeline = api.timeline_response(
        roles, 3, None, False, "serial", campaign, times,
        engine.timeline(designs, times, campaign=campaign),
    )
    errors = [
        api.error_payload(code, f"message for {code}", {"retry_after_s": 1.0})
        for code in (
            api.ERROR_INVALID_REQUEST, api.ERROR_OVER_BUDGET,
            api.ERROR_NOT_FOUND, api.ERROR_METHOD_NOT_ALLOWED,
            api.ERROR_SATURATED, api.ERROR_DEADLINE_EXCEEDED,
            api.ERROR_INTERNAL,
        )
    ]
    for payload in (sweep, variant_sweep, scaled, timeline, *errors):
        assert api.response_bytes(payload) == _reference(payload)


def test_service_healthz_and_metrics_encode_like_json(engine):
    from repro.evaluation.service import EvaluationService

    engine.evaluate(api.enumerate_space(api.SpaceSpec(roles=("dns",))))
    with EvaluationService() as service:
        for payload in (service.healthz(), service.metrics()):
            assert api.response_bytes(payload) == _reference(payload)
