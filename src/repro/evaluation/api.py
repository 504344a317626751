"""Canonical request/response schema of the evaluation service and CLI.

One module owns a request, from flat fields to the answer: the
``/v1`` request envelope (:func:`envelope` builds it, :func:`parse_request`
parses it), the design space it enumerates, the error envelope with
stable machine-readable codes, the sweep/timeline response payloads
(``schema_version`` 3), deterministic shard partitioning, and the
payload-level Pareto recompute the shard coordinator uses to merge
partial sweeps byte-identically.  The CLI, the service, its client and
the shard coordinator all go through it.

Request envelope (``POST /v1/sweep`` and ``POST /v1/timeline``)::

    {
      "space":   {"roles": [...], "max_replicas": N, "max_total": N|null,
                  "variants": bool, "scaled": "HxT"|[H, T]|null},
      "options": {"max_designs": N, "shard": {"index": I, "count": C},
                  # timeline only:
                  "horizon": H, "points": P, "times": [...],
                  "campaign": {...}, "phases": "..."},
      "priority": "interactive" | "batch",
      "deadline_ms": N,
      "stream": bool
    }

Every field is optional; defaults match the CLI.

Error envelope (every error response)::

    {"error": {"code": "<stable code>", "message": "...", "detail": {...}}}

The code follows from the error's type (:func:`error_status`), never
from its message.

Schema history: version 1 was the unversioned PR 2/3 payload shape,
version 2 added ``schema_version`` + campaign metadata to timelines,
version 3 (this module) versions the sweep payload too and is shared by
``repro sweep/timeline --json``, the service and the shard coordinator.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.errors import DeadlineExceeded, ValidationError

__all__ = [
    "SCHEMA_VERSION",
    "MAX_TIME_POINTS",
    "MAX_TIMELINE_CELLS",
    "MAX_SCALED_TIERS",
    "OverBudgetError",
    "SpaceSpec",
    "ShardSpec",
    "SweepRequest",
    "TimelineRequest",
    "envelope",
    "error_payload",
    "error_status",
    "enumerate_space",
    "header",
    "iter_space",
    "parse_request",
    "shard_of",
    "pareto_flags",
    "response_bytes",
    "sweep_response",
    "timeline_response",
]

#: Version of the sweep/timeline JSON payloads (CLI, service, shards).
SCHEMA_VERSION = 3

#: Stable machine-readable error codes of the ``/v1`` error envelope.
ERROR_INVALID_REQUEST = "invalid_request"
ERROR_OVER_BUDGET = "over_budget"
ERROR_NOT_FOUND = "not_found"
ERROR_METHOD_NOT_ALLOWED = "method_not_allowed"
ERROR_SATURATED = "saturated"
ERROR_DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR_INTERNAL = "internal"


#: Most time points one timeline request may carry, as ``points`` or as
#: a ``times`` list: the grid is built on the event loop, before any
#: other budget check.
MAX_TIME_POINTS = 10_000

#: Most cells (designs x time points) one ``/v1`` timeline may ask for.
#: A timeline's memory grows with its cells: an 81-design CLI timeline
#: peaks at 378 MB RSS with 3,000 points (243,000 cells).
MAX_TIMELINE_CELLS = 250_000

#: Most tiers a ``scaled`` space may generate: its case study is built
#: on the event loop, before any other budget check.
MAX_SCALED_TIERS = 1_000


class OverBudgetError(ValidationError):
    """A request asks for more designs, time points or cells than allowed."""


def error_payload(code: str, message: str, detail: dict | None = None) -> dict:
    """The error envelope: one stable code, one message."""
    return {"error": {"code": code, "message": message, "detail": detail or {}}}


def error_status(exc: BaseException) -> tuple[int, str]:
    """HTTP status and envelope code of a request that raised *exc*."""
    if isinstance(exc, DeadlineExceeded):
        return 504, ERROR_DEADLINE_EXCEEDED
    if isinstance(exc, OverBudgetError):
        return 400, ERROR_OVER_BUDGET
    if isinstance(exc, ValidationError):
        return 400, ERROR_INVALID_REQUEST
    return 500, ERROR_INTERNAL


# -- field-level parsing ------------------------------------------------------

_V1_TOP_FIELDS = {"priority", "deadline_ms", "stream"}
_V1_ENVELOPE_FIELDS = {"space", "options"} | _V1_TOP_FIELDS
_V1_SPACE_FIELDS = {"roles", "max_replicas", "max_total", "variants", "scaled"}
_V1_SWEEP_OPTIONS = {"max_designs", "shard"}
_V1_TIMELINE_OPTIONS = _V1_SWEEP_OPTIONS | {
    "horizon",
    "points",
    "times",
    "campaign",
    "phases",
}

_PRIORITIES = ("interactive", "batch")


def require_fields(payload: dict, allowed: set, what: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown {what} field(s) {unknown}; allowed: {sorted(allowed)}"
        )


def envelope(fields: dict, timeline: bool) -> dict:
    """The ``/v1`` envelope of flat request *fields*.

    Space fields (``roles=...``) go under ``space``, options
    (``points=...``) under ``options``, and ``priority``,
    ``deadline_ms`` and ``stream`` stay at the top.  A name that is none
    of these raises :class:`ValidationError`.
    """
    options = _V1_TIMELINE_OPTIONS if timeline else _V1_SWEEP_OPTIONS
    require_fields(
        fields,
        _V1_SPACE_FIELDS | options | _V1_TOP_FIELDS,
        "timeline" if timeline else "sweep",
    )
    payload: dict = {}
    for part, names in (("space", _V1_SPACE_FIELDS), ("options", options)):
        values = {name: value for name, value in fields.items() if name in names}
        if values:
            payload[part] = values
    payload.update(
        (name, value) for name, value in fields.items() if name in _V1_TOP_FIELDS
    )
    return payload


def parse_roles(value: object) -> list[str]:
    if value is None:
        value = ["dns", "web", "app", "db"]
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",")]
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(role, str) for role in value
    ):
        raise ValidationError(
            "roles must be a list of role names (or one comma-separated string)"
        )
    roles = list(dict.fromkeys(role for role in value if role))
    if not roles:
        raise ValidationError("no roles given")
    return roles


def parse_count(value: object, name: str, default: int | None) -> int | None:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return value


def parse_flag(value: object, name: str) -> bool:
    """A JSON boolean; absent or ``null`` is ``False``."""
    if value is None:
        return False
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be a JSON boolean, got {value!r}")
    return value


#: ln of the largest float: the bound on a scaled chain's attack paths.
_LN_FLOAT_MAX = math.log(sys.float_info.max)


def parse_scaled(value: object) -> tuple[int, int] | None:
    """``"HxT"`` / ``[H, T]`` → ``(hosts_per_tier, tiers)`` (or None)."""
    if value is None:
        return None
    if isinstance(value, str):
        parts = value.lower().replace("x", ",").split(",")
        try:
            hosts, tiers = (int(part) for part in parts)
        except ValueError:
            raise ValidationError(
                f"scaled expects HOSTSxTIERS (e.g. 9x4), got {value!r}"
            ) from None
        value = [hosts, tiers]
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        raise ValidationError(
            f"scaled must be 'HxT' or [hosts_per_tier, tiers], got {value!r}"
        )
    hosts, tiers = value
    if hosts < 1 or tiers < 1:
        raise ValidationError(
            f"scaled needs positive hosts_per_tier and tiers, got {value!r}"
        )
    # The chain has hosts**tiers attack paths, and that count must stay
    # a float (ASP raises path terms to it).  Compare logarithms:
    # tiers * ln(hosts) > ln(float max), never hosts**tiers itself.
    if hosts > 1 and tiers > _LN_FLOAT_MAX / math.log(hosts):
        raise ValidationError(
            f"scaled {hosts}x{tiers} has {hosts}^{tiers} attack paths, more "
            "than a float can count; choose HOSTSxTIERS with "
            "TIERS * ln(HOSTS) <= ln(sys.float_info.max)"
        )
    if tiers > MAX_SCALED_TIERS:
        raise OverBudgetError(
            f"scaled {hosts}x{tiers} asks for {tiers} tiers, over the cap of "
            f"{MAX_SCALED_TIERS}"
        )
    return (hosts, tiers)


def parse_times(payload: dict) -> tuple[float, ...]:
    """The resolved time grid of a timeline request."""
    from repro.evaluation.timeline import default_time_grid

    times = payload.get("times")
    if times is not None:
        if not isinstance(times, (list, tuple)) or not times:
            raise ValidationError("times must be a non-empty list of hours")
        _check_time_points(len(times))
        if any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in times):
            raise ValidationError(
                f"times must be numbers of hours, got {list(times)!r}"
            )
        grid = tuple(float(t) for t in times)
        if not all(math.isfinite(t) and t >= 0.0 for t in grid):
            raise ValidationError(
                f"times must be finite and non-negative, got {list(times)!r}"
            )
        return grid
    horizon = payload.get("horizon", 720.0)
    points = payload.get("points", 24)
    if not isinstance(horizon, (int, float)) or isinstance(horizon, bool):
        raise ValidationError(f"horizon must be a number, got {horizon!r}")
    if isinstance(points, bool) or not isinstance(points, int):
        raise ValidationError(f"points must be an integer, got {points!r}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValidationError(f"horizon must be finite and > 0, got {horizon!r}")
    if points < 2:
        raise ValidationError(f"points must be >= 2, got {points!r}")
    _check_time_points(points)
    return default_time_grid(float(horizon), points)


def _check_time_points(count: int) -> None:
    if count > MAX_TIME_POINTS:
        raise OverBudgetError(
            f"request asks for {count} time points, over the cap of "
            f"{MAX_TIME_POINTS}"
        )


def parse_deadline_ms(value: object) -> float | None:
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (math.isfinite(value) and value > 0)
    ):
        raise ValidationError(
            f"deadline_ms must be a positive number of milliseconds, got {value!r}"
        )
    return float(value)


def parse_campaign(payload: dict):
    """The request's staged rollout (``campaign`` spec or ``phases``)."""
    from repro.patching.campaign import PatchCampaign

    campaign, phases = payload.get("campaign"), payload.get("phases")
    if campaign is not None and phases is not None:
        raise ValidationError("campaign and phases are mutually exclusive")
    if campaign is not None:
        return PatchCampaign.from_dict(campaign)
    if phases is not None:
        if not isinstance(phases, str):
            raise ValidationError(
                "phases must be a shorthand string like 'canary:0.1:48,fleet:1.0'"
            )
        return PatchCampaign.parse(phases)
    return None


def _parse_priority(value: object) -> str:
    if value is None:
        return "interactive"
    if value not in _PRIORITIES:
        raise ValidationError(
            f"priority must be one of {list(_PRIORITIES)}, got {value!r}"
        )
    return value


# -- sharding -----------------------------------------------------------------


def shard_of(design, count: int) -> int:
    """Deterministic shard index of *design* among *count* shards.

    Hashes ``repr(design.cache_key())`` — primitive tuples, stable
    across processes and interpreter runs (unlike builtin ``hash``, no
    ``PYTHONHASHSEED`` sensitivity) — so every coordinator and every
    service agree on the partition without coordination.
    """
    digest = hashlib.sha256(repr(design.cache_key()).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % count


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of a design space: ``index`` of ``count``."""

    index: int
    count: int

    @classmethod
    def from_payload(cls, value: object) -> "ShardSpec | None":
        if value is None:
            return None
        if not isinstance(value, dict) or set(value) - {"index", "count"}:
            raise ValidationError(
                f"shard must be {{'index': I, 'count': C}}, got {value!r}"
            )
        count = parse_count(value.get("count"), "shard count", None)
        index = value.get("index")
        if count is None:
            raise ValidationError("shard count is required")
        if isinstance(index, bool) or not isinstance(index, int):
            raise ValidationError(f"shard index must be an integer, got {index!r}")
        if not 0 <= index < count:
            raise ValidationError(
                f"shard index {index} out of range for count {count}"
            )
        return cls(index=index, count=count)

    def to_payload(self) -> dict:
        return {"index": self.index, "count": self.count}

    def owns(self, design) -> bool:
        return shard_of(design, self.count) == self.index


# -- the design space ---------------------------------------------------------


@dataclass(frozen=True)
class SpaceSpec:
    """The design-space half of a request, defaults filled.

    ``scaled`` selects a generated chain enterprise
    (:func:`~repro.enterprise.scaled.scaled_case_study`) whose single
    large design *is* the space; it is mutually exclusive with
    ``variants`` and makes ``roles`` advisory (the generated tier names
    take over, exactly as ``repro sweep --scaled`` does).
    """

    roles: tuple[str, ...]
    max_replicas: int = 2
    max_total: int | None = None
    variants: bool = False
    scaled: tuple[int, int] | None = None

    @classmethod
    def from_payload(cls, payload: dict) -> "SpaceSpec":
        scaled = parse_scaled(payload.get("scaled"))
        variants = parse_flag(payload.get("variants"), "variants")
        if scaled is not None and variants:
            raise ValidationError("scaled and variants are mutually exclusive")
        return cls(
            roles=tuple(parse_roles(payload.get("roles"))),
            max_replicas=parse_count(payload.get("max_replicas"), "max_replicas", 2),
            max_total=parse_count(payload.get("max_total"), "max_total", None),
            variants=variants,
            scaled=scaled,
        )

    def to_payload(self) -> dict:
        payload = {
            "roles": list(self.roles),
            "max_replicas": self.max_replicas,
            "max_total": self.max_total,
            "variants": self.variants,
        }
        if self.scaled is not None:
            payload["scaled"] = list(self.scaled)
        return payload

    def context_label(self) -> str:
        """The engine-lane context this space evaluates under."""
        if self.scaled is not None:
            return f"scaled:{self.scaled[0]}x{self.scaled[1]}"
        return "default"


def enumerate_space(space: SpaceSpec) -> list:
    """Every design of *space*, in canonical enumeration order.

    The one enumeration shared by the service, the CLI and the shard
    coordinator — shard merging relies on all three agreeing on it.
    """
    return list(iter_space(space))


def iter_space(space: SpaceSpec) -> Iterator:
    """The designs of *space* one at a time, in :func:`enumerate_space` order.

    Lazy, so a caller that only needs a bounded prefix (the service's
    design-count budget) never builds the whole space.
    """
    from repro.evaluation.sweep import (
        enumerate_designs,
        enumerate_heterogeneous_designs,
    )

    if space.scaled is not None:
        from repro.enterprise.scaled import scaled_case_study

        _, design = scaled_case_study(*space.scaled)
        return iter([design])
    if space.variants:
        from repro.enterprise import paper_variant_space

        pools = paper_variant_space()
        unknown = [role for role in space.roles if role not in pools]
        if unknown:
            raise ValidationError(
                f"no variant pool for roles {unknown}; "
                f"choose from {sorted(pools)}"
            )
        return enumerate_heterogeneous_designs(
            list(space.roles),
            {role: pools[role] for role in space.roles},
            max_replicas=space.max_replicas,
            max_total=space.max_total,
        )
    return enumerate_designs(
        list(space.roles),
        max_replicas=space.max_replicas,
        max_total=space.max_total,
    )


# -- requests -----------------------------------------------------------------


@dataclass
class SweepRequest:
    """A parsed sweep request (the ``/v1`` envelope)."""

    space: SpaceSpec
    max_designs: int | None = None
    shard: ShardSpec | None = None
    priority: str = "interactive"
    deadline_ms: float | None = None
    stream: bool = False

    endpoint = "/sweep"
    _options = _V1_SWEEP_OPTIONS

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepRequest":
        require_fields(payload, _V1_ENVELOPE_FIELDS, f"{cls.endpoint[1:]} request")
        space = payload.get("space") or {}
        options = payload.get("options") or {}
        for name, value in (("space", space), ("options", options)):
            if not isinstance(value, dict):
                raise ValidationError(f"{name} must be a JSON object, got {value!r}")
        require_fields(space, _V1_SPACE_FIELDS, "space request")
        require_fields(options, cls._options, "options request")
        return cls(
            space=SpaceSpec.from_payload(space),
            max_designs=parse_count(
                options.get("max_designs"), "max_designs", None
            ),
            shard=ShardSpec.from_payload(options.get("shard")),
            priority=_parse_priority(payload.get("priority")),
            deadline_ms=parse_deadline_ms(payload.get("deadline_ms")),
            stream=parse_flag(payload.get("stream"), "stream"),
            **cls._parse_options(options),
        )

    @staticmethod
    def _parse_options(options: dict) -> dict:
        """The fields only this endpoint's options carry (none)."""
        return {}

    def canonical(self) -> dict:
        """Order-independent identity for request deduplication."""
        canonical = {
            "endpoint": self.endpoint,
            **self.space.to_payload(),
        }
        if self.shard is not None:
            canonical["shard"] = self.shard.to_payload()
        return canonical

    def context_label(self) -> str:
        """The engine-lane context this request evaluates under."""
        return self.space.context_label()


@dataclass
class TimelineRequest(SweepRequest):
    """A parsed timeline request: the sweep fields plus grid/campaign."""

    times: tuple[float, ...] = ()
    campaign: object = None

    endpoint = "/timeline"
    _options = _V1_TIMELINE_OPTIONS

    @staticmethod
    def _parse_options(options: dict) -> dict:
        """The time grid and the staged rollout."""
        return {"times": parse_times(options), "campaign": parse_campaign(options)}

    def canonical(self) -> dict:
        canonical = super().canonical()
        canonical["times"] = list(self.times)
        canonical["campaign"] = (
            self.campaign.to_dict() if self.campaign is not None else None
        )
        return canonical

    def context_label(self) -> str:
        """Lane context: the space plus the campaign fingerprint."""
        label = self.space.context_label()
        if self.campaign is not None:
            fingerprint = hashlib.sha256(
                repr(self.campaign.cache_key()).encode("utf-8")
            ).hexdigest()[:12]
            label = f"{label}|campaign:{fingerprint}"
        return label


def parse_request(payload: dict, timeline: bool) -> SweepRequest:
    """The parsed ``/v1`` sweep (or, with *timeline*, timeline) *payload*."""
    return (TimelineRequest if timeline else SweepRequest).from_payload(payload)


# -- responses ----------------------------------------------------------------


def header(space: SpaceSpec, designs: Sequence) -> tuple:
    """The leading fields of a payload over *space*'s *designs*.

    ``(roles, max_replicas, max_total, variants, executor)``, the first
    five arguments of :func:`sweep_response` and
    :func:`timeline_response`.  A scaled space answers with its
    generated tier roles; every engine evaluates in-process.
    """
    roles = space.roles
    if space.scaled is not None and designs:
        roles = designs[0].roles
    return list(roles), space.max_replicas, space.max_total, space.variants, "serial"


def sweep_response(
    roles: Sequence[str],
    max_replicas: int,
    max_total: int | None,
    variants: bool,
    executor_name: str,
    evaluations,
) -> dict:
    """The canonical ``sweep`` JSON payload (CLI, service and shards)."""
    from repro.evaluation.report import design_payload
    from repro.evaluation.sweep import pareto_front

    front = {id(e) for e in pareto_front(evaluations, after_patch=True)}
    designs = [design_payload(e, id(e) in front) for e in evaluations]
    return {
        "schema_version": SCHEMA_VERSION,
        "roles": list(roles),
        "max_replicas": max_replicas,
        "max_total": max_total,
        "variants": bool(variants),
        "executor": executor_name,
        "design_count": len(designs),
        "designs": designs,
    }


def timeline_response(
    roles: Sequence[str],
    max_replicas: int,
    max_total: int | None,
    variants: bool,
    executor_name: str,
    campaign,
    times: Sequence[float],
    timelines,
) -> dict:
    """The canonical ``timeline`` JSON payload (CLI, service and shards)."""
    from repro.evaluation.timeline import timeline_payload

    designs = [timeline_payload(timeline) for timeline in timelines]
    return {
        "schema_version": SCHEMA_VERSION,
        "roles": list(roles),
        "max_replicas": max_replicas,
        "max_total": max_total,
        "variants": bool(variants),
        "executor": executor_name,
        "campaign": campaign.to_dict() if campaign is not None else None,
        "times": list(times),
        "design_count": len(designs),
        "designs": designs,
    }


def pareto_flags(design_payloads: Sequence[dict]) -> list[bool]:
    """Recompute the Pareto front over already-serialised designs.

    The shard coordinator's merge step: per-shard ``pareto`` flags only
    see a subset, so the front is re-ranked over the merged space, from
    the JSON ``after`` snapshots, by the kernel
    :func:`~repro.evaluation.sweep.pareto_front` uses.
    """
    from repro.evaluation.sweep import pareto_mask

    mask = pareto_mask(
        [d["after"]["ASP"] for d in design_payloads],
        [d["after"]["COA"] for d in design_payloads],
    )
    return [bool(flag) for flag in mask]


def canonical_json(payload: dict) -> str:
    """The dedup fingerprint of a canonicalised request dict."""
    return json.dumps(payload, sort_keys=True, default=str)


# -- the response body --------------------------------------------------------

_escape = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__

#: json's spellings of the non-finite floats, keyed by ``float.__repr__``
#: (no finite float's repr holds an ``n``).
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = _float_repr(value)
    return _NON_FINITE[text] if "n" in text else text


def response_bytes(payload: object) -> bytes:
    """The ``/v1`` body of *payload*: ``json.dumps(payload, indent=2)``
    plus a newline, as UTF-8 bytes.

    The output equals json's byte for byte (the test suite checks it on
    generated payloads), and ``TypeError`` comes where json raises it.
    json's indenting encoder is pure Python and writes one float at a
    time; this one writes a list of floats, the bulk of a timeline, with
    one ``str.join``.  Payloads are trees: a cycle recurses until
    ``RecursionError`` instead of json's ``ValueError``.
    """
    parts: list[str] = []
    _write(payload, parts.append, "\n")
    parts.append("\n")
    return "".join(parts).encode()


def _write(value, append, newline: str) -> None:
    """Append the text of *value*, nested where *newline* indents."""
    if isinstance(value, str):
        append(_escape(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(_int_repr(value))
    elif isinstance(value, float):
        append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, append, newline)
    elif isinstance(value, dict):
        _write_dict(value, append, newline)
    else:
        raise TypeError(
            f"Object of type {value.__class__.__name__} is not JSON serializable"
        )


def _write_list(items, append, newline: str) -> None:
    if not items:
        append("[]")
        return
    inner = newline + "  "
    separator = "," + inner
    if isinstance(items[0], float):
        try:
            text = separator.join(map(_float_repr, items))
        except TypeError:  # not all floats: write one item at a time
            pass
        else:
            if "n" in text:
                text = separator.join(map(_float_text, items))
            append("[" + inner + text + newline + "]")
            return
    lead = "[" + inner
    for value in items:
        append(lead)
        lead = separator
        _write(value, append, inner)
    append(newline + "]")


def _write_dict(mapping, append, newline: str) -> None:
    if not mapping:
        append("{}")
        return
    inner = newline + "  "
    separator = "," + inner
    lead = "{" + inner
    for key, value in mapping.items():
        if isinstance(key, str):
            pass
        elif isinstance(key, float):
            key = _float_text(key)
        elif key is True:
            key = "true"
        elif key is False:
            key = "false"
        elif key is None:
            key = "null"
        elif isinstance(key, int):
            key = _int_repr(key)
        else:
            raise TypeError(
                "keys must be str, int, float, bool or None, "
                f"not {key.__class__.__name__}"
            )
        append(lead)
        lead = separator
        append(_escape(key))
        append(": ")
        # Scalars inline: a sweep payload is mostly dicts of numbers.
        if isinstance(value, float):
            text = _float_repr(value)
            append(_NON_FINITE[text] if "n" in text else text)
        elif isinstance(value, str):
            append(_escape(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(_int_repr(value))
        else:
            _write(value, append, inner)
    append(newline + "}")
