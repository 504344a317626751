"""Redundancy designs: how many replicas each role gets.

:class:`DesignSpec` is the protocol every design kind implements —
homogeneous :class:`RedundancyDesign` here and the diverse-stack
:class:`~repro.enterprise.heterogeneous.HeterogeneousDesign` — so the
evaluation layers (:mod:`repro.evaluation.combined`,
:mod:`repro.evaluation.engine`, :mod:`repro.evaluation.sweep`) score,
cache and rank any mix of design kinds through one pipeline.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from typing import Protocol, runtime_checkable

from repro._validation import check_positive_int
from repro.errors import ValidationError

__all__ = [
    "DesignSpec",
    "RedundancyDesign",
    "paper_designs",
    "example_network_design",
]


@runtime_checkable
class DesignSpec(Protocol):
    """What every design kind exposes to the evaluation pipeline.

    Implementations are immutable value objects: hashable (so sweep
    engines can memoise one evaluation per design), picklable (so the
    persistent cache can store them) and equality-comparable through
    :meth:`cache_key`.
    """

    @property
    def label(self) -> str:
        """Human-readable summary used in tables and JSON output."""
        ...

    @property
    def roles(self) -> list[str]:
        """Role names in insertion order."""
        ...

    @property
    def counts(self) -> dict[str, int]:
        """Role -> total replica count (all variants of the role)."""
        ...

    @property
    def total_servers(self) -> int:
        """Total number of deployed servers."""
        ...

    def cache_key(self) -> Hashable:
        """Order-insensitive identity used for hashing and memoisation."""
        ...


class RedundancyDesign:
    """A replica-count assignment for the server roles.

    Examples
    --------
    >>> design = RedundancyDesign({"dns": 1, "web": 2, "app": 2, "db": 1})
    >>> design.total_servers
    6
    >>> design.label
    '1 DNS + 2 WEB + 2 APP + 1 DB'
    """

    def __init__(self, counts: Mapping[str, int]) -> None:
        if not counts:
            raise ValidationError("a design needs at least one role")
        self._counts = {
            role: check_positive_int(count, f"count of {role!r}")
            for role, count in counts.items()
        }

    @property
    def counts(self) -> dict[str, int]:
        """Role -> replica count."""
        return dict(self._counts)

    def count_of(self, role: str) -> int:
        """Replica count of *role*.

        Raises
        ------
        ValidationError
            If the role is not part of the design.
        """
        try:
            return self._counts[role]
        except KeyError:
            raise ValidationError(f"role {role!r} not in design") from None

    @property
    def roles(self) -> list[str]:
        """Roles in insertion order."""
        return list(self._counts)

    @property
    def total_servers(self) -> int:
        """Total number of deployed servers."""
        return sum(self._counts.values())

    @property
    def label(self) -> str:
        """The paper's naming style, e.g. ``"1 DNS + 2 WEB + 2 APP + 1 DB"``."""
        return " + ".join(
            f"{count} {role.upper()}" for role, count in self._counts.items()
        )

    def instances(self, role: str) -> list[str]:
        """Host names of the replicas of *role* (``web1``, ``web2``, ...)."""
        return [f"{role}{i}" for i in range(1, self.count_of(role) + 1)]

    def all_instances(self) -> dict[str, str]:
        """Host name -> role for every deployed server."""
        return {
            instance: role
            for role in self._counts
            for instance in self.instances(role)
        }

    def with_extra_replica(self, role: str) -> "RedundancyDesign":
        """A new design with one more replica of *role*."""
        counts = self.counts
        counts[role] = self.count_of(role) + 1
        return RedundancyDesign(counts)

    # -- identity ----------------------------------------------------------------

    def cache_key(self) -> tuple:
        """Order-insensitive identity (the :class:`DesignSpec` contract)."""
        return ("homogeneous", tuple(sorted(self._counts.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RedundancyDesign):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __repr__(self) -> str:
        return f"RedundancyDesign({self._counts!r})"


def paper_designs() -> list[RedundancyDesign]:
    """The five design choices of Section IV, in the paper's order.

    1. 1 DNS + 1 WEB + 1 APP + 1 DB  (no redundancy)
    2. 2 DNS + 1 WEB + 1 APP + 1 DB
    3. 1 DNS + 2 WEB + 1 APP + 1 DB
    4. 1 DNS + 1 WEB + 2 APP + 1 DB
    5. 1 DNS + 1 WEB + 1 APP + 2 DB
    """
    base = {"dns": 1, "web": 1, "app": 1, "db": 1}
    designs = [RedundancyDesign(base)]
    for role in ("dns", "web", "app", "db"):
        counts = dict(base)
        counts[role] = 2
        designs.append(RedundancyDesign(counts))
    return designs


def example_network_design() -> RedundancyDesign:
    """The Section III example network: 1 DNS + 2 WEB + 2 APP + 1 DB."""
    return RedundancyDesign({"dns": 1, "web": 2, "app": 2, "db": 1})
