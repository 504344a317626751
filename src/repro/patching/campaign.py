"""Staged patch-rollout campaigns (canary -> partial -> full fleet).

The paper models patch application as a single stationary process:
every server patches at its Table V ``lambda_eq`` from t = 0.  Real
fleets roll patches out in *stages* — a canary slice first, then a
partial ramp, then the full fleet — which makes the effective patch
rate piecewise constant in time.  A :class:`PatchCampaign` describes
that staging as an ordered sequence of :class:`CampaignPhase` records;
the timeline subsystem (:mod:`repro.evaluation.timeline`) evaluates a
design under a campaign by carrying each server's patch and up/down
probabilities across phase boundaries in closed form
(:mod:`repro.availability.product_form`).

Each phase scales every patch rate by ``rate_multiplier`` and ends on
one of three triggers:

- a fixed ``duration_hours`` (zero allowed — the phase is skipped);
- a ``completion_fraction``: the phase ends once the *expected* patched
  fraction of the fleet reaches the threshold (a trigger that never
  fires — e.g. a zero rate multiplier, or a threshold of exactly 1.0 —
  leaves the phase running forever and later phases unreachable);
- neither (open-ended): the phase runs forever.

The final phase must be open-ended (its regime persists, so a trailing
trigger would have nothing to hand over to — rejected at validation to
catch truncated specs), and only the final phase may be.

``canary_hosts`` optionally throttles a phase at the fleet level: with
at most *c* of the design's *N* servers patching concurrently, the
aggregate patch throughput scales by ``min(1, c / N)`` on top of the
rate multiplier.  The throttle depends on the design's total server
count, which is why the *effective* multiplier is resolved per design
(:meth:`CampaignPhase.effective_multiplier`).

The single-phase, multiplier-1, open-ended campaign
(:data:`BIG_BANG`) reproduces the stationary model bit for bit — the
degenerate-case contract the timeline tests assert.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro._validation import check_name
from repro.errors import ValidationError

__all__ = [
    "CampaignPhase",
    "PatchCampaign",
    "BIG_BANG",
    "CANARY_THEN_FLEET",
]


def _as_number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _check_multiplier(value: object) -> float:
    number = _as_number(value, "rate_multiplier")
    if not math.isfinite(number) or number < 0.0:
        raise ValidationError(
            f"rate_multiplier must be finite and >= 0, got {value!r}"
        )
    return number


@dataclass(frozen=True)
class CampaignPhase:
    """One stage of a patch rollout.

    Parameters
    ----------
    name:
        Label for reports (``"canary"``, ``"fleet"``, ...).  Names need
        not be unique — a campaign may repeat identical stages.
    rate_multiplier:
        Factor applied to every group's aggregated patch rate while the
        phase is active (0 pauses patching entirely).
    duration_hours:
        Fixed phase length in hours (0 allowed), or ``None`` when the
        phase ends on a completion trigger / is open-ended.
    completion_fraction:
        End the phase once the expected patched fraction of the fleet
        reaches this value (in ``(0, 1]``).  Mutually exclusive with
        *duration_hours*.  A threshold of exactly 1.0 is reached only
        asymptotically, so it never fires.
    canary_hosts:
        Cap on concurrently patching servers; scales the phase's
        effective patch throughput by ``min(1, canary_hosts / total)``.
    """

    name: str
    rate_multiplier: float
    duration_hours: float | None = None
    completion_fraction: float | None = None
    canary_hosts: int | None = None

    def __post_init__(self) -> None:
        check_name(self.name, "phase name")
        object.__setattr__(
            self, "rate_multiplier", _check_multiplier(self.rate_multiplier)
        )
        if self.duration_hours is not None and self.completion_fraction is not None:
            raise ValidationError(
                f"phase {self.name!r} sets both duration_hours and "
                "completion_fraction; a phase ends on exactly one trigger"
            )
        if self.duration_hours is not None:
            duration = _as_number(
                self.duration_hours, f"phase {self.name!r} duration_hours"
            )
            if not math.isfinite(duration) or duration < 0.0:
                raise ValidationError(
                    f"phase {self.name!r} duration_hours must be finite and "
                    f">= 0, got {self.duration_hours!r} (omit it for an "
                    "open-ended phase)"
                )
            object.__setattr__(self, "duration_hours", duration)
        if self.completion_fraction is not None:
            fraction = _as_number(
                self.completion_fraction,
                f"phase {self.name!r} completion_fraction",
            )
            if not 0.0 < fraction <= 1.0:
                raise ValidationError(
                    f"phase {self.name!r} completion_fraction must lie in "
                    f"(0, 1], got {self.completion_fraction!r}"
                )
            object.__setattr__(self, "completion_fraction", fraction)
        if self.canary_hosts is not None:
            if (
                isinstance(self.canary_hosts, bool)
                or not isinstance(self.canary_hosts, int)
                or self.canary_hosts < 1
            ):
                raise ValidationError(
                    f"phase {self.name!r} canary_hosts must be a positive "
                    f"integer, got {self.canary_hosts!r}"
                )

    @property
    def is_open_ended(self) -> bool:
        """Whether the phase has no end trigger (runs forever)."""
        return self.duration_hours is None and self.completion_fraction is None

    def effective_multiplier(self, total_servers: int) -> float:
        """The patch-rate factor for a fleet of *total_servers*.

        Multiplying by exactly 1.0 is bit-preserving, so a multiplier-1
        phase without a binding canary cap leaves rates untouched.
        """
        multiplier = self.rate_multiplier
        if self.canary_hosts is not None and self.canary_hosts < total_servers:
            multiplier = multiplier * (self.canary_hosts / total_servers)
        return multiplier

    def to_dict(self) -> dict:
        """JSON-ready phase description (the :meth:`from_dict` inverse)."""
        payload: dict = {
            "name": self.name,
            "rate_multiplier": self.rate_multiplier,
        }
        if self.duration_hours is not None:
            payload["duration_hours"] = self.duration_hours
        if self.completion_fraction is not None:
            payload["completion_fraction"] = self.completion_fraction
        if self.canary_hosts is not None:
            payload["canary_hosts"] = self.canary_hosts
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "CampaignPhase":
        """Build a phase from a :meth:`to_dict`-style mapping."""
        if not isinstance(payload, dict):
            raise ValidationError(
                f"a campaign phase must be an object, got {payload!r}"
            )
        unknown = set(payload) - {
            "name",
            "rate_multiplier",
            "duration_hours",
            "completion_fraction",
            "canary_hosts",
        }
        if unknown:
            raise ValidationError(
                f"unknown campaign-phase fields: {sorted(unknown)}"
            )
        if "name" not in payload or "rate_multiplier" not in payload:
            raise ValidationError(
                "a campaign phase needs at least 'name' and 'rate_multiplier'"
            )
        return cls(
            name=payload["name"],
            rate_multiplier=payload["rate_multiplier"],
            duration_hours=payload.get("duration_hours"),
            completion_fraction=payload.get("completion_fraction"),
            canary_hosts=payload.get("canary_hosts"),
        )


@dataclass(frozen=True)
class PatchCampaign:
    """An ordered sequence of rollout phases.

    Phases run back to back from t = 0; once a phase with no reachable
    end is entered (open-ended, or a trigger that never fires), it runs
    forever.  Campaigns are hashable value objects: they key engine
    memos, and :meth:`cache_key` feeds the persistent-cache entry key.
    """

    name: str
    phases: tuple[CampaignPhase, ...]

    def __post_init__(self) -> None:
        check_name(self.name, "campaign name")
        phases = tuple(self.phases)
        if not phases:
            raise ValidationError("a campaign needs at least one phase")
        for phase in phases:
            if not isinstance(phase, CampaignPhase):
                raise ValidationError(
                    f"campaign phases must be CampaignPhase, got {phase!r}"
                )
        for position, phase in enumerate(phases[:-1]):
            if phase.is_open_ended:
                raise ValidationError(
                    f"phase {phase.name!r} (position {position}) is "
                    "open-ended, so later phases are unreachable; only the "
                    "last phase may omit both triggers"
                )
        if not phases[-1].is_open_ended:
            raise ValidationError(
                f"the final phase {phases[-1].name!r} must be open-ended "
                "(no duration or completion trigger): its regime persists, "
                "so a trailing trigger would be silently ignored — append "
                "an explicit terminal phase instead (e.g. ',fleet:1.0')"
            )
        object.__setattr__(self, "phases", phases)

    @property
    def is_stationary(self) -> bool:
        """A single open-ended multiplier-1 phase with no canary cap —
        the campaign that reproduces the paper's stationary patching."""
        if len(self.phases) != 1:
            return False
        phase = self.phases[0]
        return (
            phase.is_open_ended
            and phase.rate_multiplier == 1.0
            and phase.canary_hosts is None
        )

    def cache_key(self) -> tuple:
        """A stable hashable token for persistent-cache entry keys.

        Includes the campaign *name*: cached ``DesignTimeline`` records
        embed the campaign they were computed under, so two campaigns
        that differ only by name must not alias (the hit would hand
        back the stale identity).
        """
        return (
            "campaign",
            self.name,
            tuple(
                (
                    phase.name,
                    phase.rate_multiplier,
                    phase.duration_hours,
                    phase.completion_fraction,
                    phase.canary_hosts,
                )
                for phase in self.phases
            ),
        )

    def to_dict(self) -> dict:
        """JSON-ready campaign description."""
        return {
            "name": self.name,
            "phases": [phase.to_dict() for phase in self.phases],
        }

    @classmethod
    def from_dict(cls, payload: object) -> "PatchCampaign":
        """Build a campaign from a :meth:`to_dict`-style mapping."""
        if not isinstance(payload, dict):
            raise ValidationError(
                f"a campaign spec must be an object, got {payload!r}"
            )
        unknown = set(payload) - {"name", "phases"}
        if unknown:
            raise ValidationError(f"unknown campaign fields: {sorted(unknown)}")
        phases = payload.get("phases")
        if not isinstance(phases, (list, tuple)):
            raise ValidationError("a campaign spec needs a 'phases' list")
        return cls(
            name=payload.get("name", "campaign"),
            phases=tuple(CampaignPhase.from_dict(phase) for phase in phases),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PatchCampaign":
        """Load a campaign from a JSON spec file."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValidationError(f"cannot read campaign spec {path}: {exc}") from None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"campaign spec {path} is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(payload)

    @classmethod
    def parse(cls, spec: str, name: str = "campaign") -> "PatchCampaign":
        """Parse the CLI shorthand ``name:mult[:trigger[:canary]],...``.

        Each comma-separated phase is ``name:multiplier`` plus an
        optional trigger — a plain number is a duration in hours, a
        ``%``-suffixed number a completion fraction (``50%`` ends the
        phase once half the fleet is expected patched) — and an
        optional canary host count.  Examples::

            canary:0.1:48,fleet:1.0        48 h canary at 10% rate, then full
            canary:1:25%:2,fleet:1.0       2-host canary until 25% patched
            fleet:1.0                      the stationary big-bang rollout
        """
        phases: list[CampaignPhase] = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            fields = chunk.split(":")
            if not 2 <= len(fields) <= 4:
                raise ValidationError(
                    f"bad phase {chunk!r}: expected "
                    "name:multiplier[:trigger[:canary]]"
                )
            phase_name = fields[0].strip()
            try:
                multiplier = float(fields[1])
            except ValueError:
                raise ValidationError(
                    f"bad phase {chunk!r}: multiplier {fields[1]!r} is not "
                    "a number"
                ) from None
            duration: float | None = None
            fraction: float | None = None
            if len(fields) >= 3 and fields[2].strip():
                trigger = fields[2].strip()
                try:
                    if trigger.endswith("%"):
                        fraction = float(trigger[:-1]) / 100.0
                    else:
                        duration = float(trigger)
                except ValueError:
                    raise ValidationError(
                        f"bad phase {chunk!r}: trigger {trigger!r} is neither "
                        "a duration in hours nor a percentage"
                    ) from None
            canary: int | None = None
            if len(fields) == 4 and fields[3].strip():
                try:
                    canary = int(fields[3])
                except ValueError:
                    raise ValidationError(
                        f"bad phase {chunk!r}: canary host count "
                        f"{fields[3]!r} is not an integer"
                    ) from None
            phases.append(
                CampaignPhase(
                    name=phase_name,
                    rate_multiplier=multiplier,
                    duration_hours=duration,
                    completion_fraction=fraction,
                    canary_hosts=canary,
                )
            )
        if not phases:
            raise ValidationError(f"campaign spec {spec!r} has no phases")
        return cls(name=name, phases=tuple(phases))

    def __str__(self) -> str:
        parts = []
        for phase in self.phases:
            if phase.duration_hours is not None:
                trigger = f"{phase.duration_hours:g} h"
            elif phase.completion_fraction is not None:
                trigger = f"{100 * phase.completion_fraction:g}% patched"
            else:
                trigger = "open-ended"
            parts.append(f"{phase.name} (x{phase.rate_multiplier:g}, {trigger})")
        return f"{self.name}: " + " -> ".join(parts)


#: The stationary rollout: every server patches at full rate from t = 0.
BIG_BANG = PatchCampaign(
    name="big-bang", phases=(CampaignPhase(name="fleet", rate_multiplier=1.0),)
)

#: A conservative default staging: a 48-hour canary at 10% patch
#: throughput, a 120-hour ramp at half rate, then the full fleet.
CANARY_THEN_FLEET = PatchCampaign(
    name="canary-then-fleet",
    phases=(
        CampaignPhase(name="canary", rate_multiplier=0.1, duration_hours=48.0),
        CampaignPhase(name="ramp", rate_multiplier=0.5, duration_hours=120.0),
        CampaignPhase(name="fleet", rate_multiplier=1.0),
    ),
)
