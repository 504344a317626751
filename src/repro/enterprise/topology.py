"""Role-level network topology (subnets, firewalls, reachability)."""

from __future__ import annotations

from collections.abc import Iterable

from repro._validation import check_name
from repro.errors import ValidationError
from repro.graphs import DiGraph, has_cycle

__all__ = ["NetworkTopology"]


class NetworkTopology:
    """Reachability between server roles, plus entry and target roles.

    The paper's example network (Fig. 2): the attacker reaches the DNS
    and web tiers through the external firewall; DNS can reach web; web
    reaches the application tier through the internal firewall; the
    application tier reaches the database (the attack goal).

    Examples
    --------
    >>> topology = NetworkTopology(["web", "db"])
    >>> topology.add_entry_role("web")
    >>> topology.add_role_reachability("web", "db")
    >>> topology.add_target_role("db")
    >>> topology.validate()
    """

    def __init__(self, roles: Iterable[str] = ()) -> None:
        # The graph's nodes are the roles, in insertion order: one
        # hash lookup per membership test, whatever the tier count.
        self._graph = DiGraph()
        self._entry_roles: list[str] = []
        self._target_roles: list[str] = []
        for role in roles:
            self.add_role(role)

    # -- construction ------------------------------------------------------

    def add_role(self, role: str) -> None:
        """Register a role (idempotent)."""
        check_name(role, "role")
        self._graph.add_node(role)

    def add_role_reachability(self, src: str, dst: str) -> None:
        """Allow connections from tier *src* to tier *dst*."""
        self._require_role(src)
        self._require_role(dst)
        self._graph.add_edge(src, dst)

    def add_entry_role(self, role: str) -> None:
        """Mark *role* as attacker-reachable (through the outer firewall)."""
        self._require_role(role)
        if role not in self._entry_roles:
            self._entry_roles.append(role)

    def add_target_role(self, role: str) -> None:
        """Mark *role* as an attack goal."""
        self._require_role(role)
        if role not in self._target_roles:
            self._target_roles.append(role)

    # -- accessors -----------------------------------------------------------

    @property
    def roles(self) -> list[str]:
        """Roles in insertion order."""
        return self._graph.nodes()

    @property
    def entry_roles(self) -> list[str]:
        """Attacker-reachable roles."""
        return list(self._entry_roles)

    @property
    def target_roles(self) -> list[str]:
        """Attack-goal roles."""
        return list(self._target_roles)

    def role_edges(self) -> list[tuple[str, str]]:
        """All (src, dst) role reachability pairs."""
        return self._graph.edges()

    def reachable_roles(self, role: str) -> list[str]:
        """Roles directly reachable from *role*."""
        self._require_role(role)
        return self._graph.successors(role)

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check the topology is usable for HARM construction."""
        if not len(self._graph):
            raise ValidationError("topology has no roles")
        if not self._entry_roles:
            raise ValidationError("topology has no entry roles")
        if not self._target_roles:
            raise ValidationError("topology has no target roles")
        if has_cycle(self._graph):
            # Cycles are legal in general networks, but the paper's
            # tiered architectures are acyclic; warn loudly via error to
            # catch accidental double edges in case-study definitions.
            raise ValidationError("role-level topology contains a cycle")

    def _require_role(self, role: str) -> None:
        if role not in self._graph:
            raise ValidationError(f"unknown role {role!r}")
