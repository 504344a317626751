"""Heterogeneous redundancy: mixing software variants within a tier.

Implements the paper's §V future-work item: a
:class:`HeterogeneousDesign` assigns replica counts per *variant* (a
:class:`ServerRole` describing an alternative stack).
:func:`design_tiers` maps every design kind onto the one view the
evaluators read: tiers of server groups, a homogeneous role being a
tier of one group.  :func:`build_heterogeneous_harm` expands a
heterogeneous design into the host-level HARM.

Security intuition: with identical replicas, compromising one web server
strategy compromises both; with diverse stacks an attacker needs a
separate exploit per variant, and an exploit for one stack opens only
that stack's paths.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro._validation import check_positive_int
from repro.attacktree.tree import BranchSpec
from repro.enterprise.casestudy import EnterpriseCaseStudy, variant_vulnerabilities
from repro.enterprise.roles import ServerRole
from repro.errors import EvaluationError, ValidationError
from repro.harm import Harm, build_harm
from repro.patching.policy import PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase
from repro.vulnerability.model import Vulnerability

__all__ = [
    "HeterogeneousDesign",
    "Tiers",
    "build_heterogeneous_harm",
    "check_design_kind",
    "design_tiers",
    "paper_variants",
    "paper_variant_space",
]


#: A design's server groups per tier, as :func:`design_tiers` returns
#: them: ``(role, [(variant or None, count), ...])``.
Tiers = list[tuple[str, list[tuple[ServerRole | None, int]]]]


def check_design_kind(design: object) -> None:
    """Reject :class:`DesignSpec` implementations no evaluator knows.

    The evaluators read designs through :func:`design_tiers`, which
    knows the two concrete spec kinds; an unknown implementation must
    fail loudly here rather than silently pass for a homogeneous design
    and produce plausible-but-wrong metrics.
    """
    from repro.enterprise.design import RedundancyDesign

    if not isinstance(design, (RedundancyDesign, HeterogeneousDesign)):
        raise EvaluationError(
            f"unknown design kind {type(design).__name__!r}; the evaluation "
            "pipeline dispatches on RedundancyDesign and HeterogeneousDesign"
        )


def design_tiers(design: object) -> Tiers:
    """The server groups of *design*, per tier: ``(role, [(variant,
    count), ...])``.

    The one view of a design every evaluator reads: a group is a set of
    identical servers, *variant* is ``None`` for a homogeneous role (the
    case study's own stack) and a diverse tier is simply several groups.
    Tiers are sorted by role and groups by variant name, so equal
    designs map onto the same order whatever their insertion order, and
    a single-variant-per-role heterogeneous design onto the same tiers
    and counts as its homogeneous twin.
    """
    if isinstance(design, HeterogeneousDesign):
        return [
            (
                role,
                sorted(
                    design.variants(role).items(),
                    key=lambda item: item[0].name,
                ),
            )
            for role in sorted(design.roles)
        ]
    check_design_kind(design)
    return [(role, [(None, count)]) for role, count in sorted(design.counts.items())]


def paper_variants() -> dict[str, ServerRole]:
    """Variant definitions for diversity studies on the paper's network.

    Primary variants mirror the paper's four roles (same products, same
    tree shapes, names suffixed with the stack); alternatives come from
    :mod:`repro.vulnerability.diversity`.  The nginx tree mirrors the
    paper's web-tree shape: a remote critical OR an (information leak AND
    local escalation) chain.
    """
    from repro.enterprise.casestudy import paper_case_study
    from repro.vulnerability.diversity import (
        PRODUCT_NGINX,
        PRODUCT_POSTGRES,
        PRODUCT_UBUNTU,
    )

    roles = paper_case_study().roles
    return {
        "dns_ms": ServerRole(
            "dns_ms",
            roles["dns"].operating_system,
            roles["dns"].application,
            roles["dns"].attack_tree_spec,
        ),
        "web_apache": ServerRole(
            "web_apache",
            roles["web"].operating_system,
            roles["web"].application,
            roles["web"].attack_tree_spec,
        ),
        "web_nginx": ServerRole(
            "web_nginx",
            PRODUCT_UBUNTU,
            PRODUCT_NGINX,
            (
                "SYN-NGINX-2016-0001",
                ("SYN-NGINX-2016-0002", "SYN-UBUNTU-2016-0001"),
            ),
        ),
        "app_weblogic": ServerRole(
            "app_weblogic",
            roles["app"].operating_system,
            roles["app"].application,
            roles["app"].attack_tree_spec,
        ),
        "db_mysql": ServerRole(
            "db_mysql",
            roles["db"].operating_system,
            roles["db"].application,
            roles["db"].attack_tree_spec,
        ),
        "db_postgres": ServerRole(
            "db_postgres",
            PRODUCT_UBUNTU,
            PRODUCT_POSTGRES,
            ("SYN-PG-2016-0001", "SYN-PG-2016-0002"),
        ),
    }


def paper_variant_space() -> dict[str, tuple[ServerRole, ...]]:
    """The :func:`paper_variants` stacks grouped by the role they serve.

    This is the variant pool
    :func:`repro.evaluation.sweep.enumerate_heterogeneous_designs` (and
    ``repro sweep --variants``) explores: every role offers its primary
    paper stack, and the web/db tiers add the diverse alternatives from
    :mod:`repro.vulnerability.diversity`.
    """
    variants = paper_variants()
    return {
        "dns": (variants["dns_ms"],),
        "web": (variants["web_apache"], variants["web_nginx"]),
        "app": (variants["app_weblogic"],),
        "db": (variants["db_mysql"], variants["db_postgres"]),
    }


class HeterogeneousDesign:
    """Replica counts per (role, variant).

    Implements the :class:`~repro.enterprise.design.DesignSpec` protocol,
    so it flows through the same evaluators, sweep engine and Pareto
    ranking as :class:`~repro.enterprise.design.RedundancyDesign`.

    Parameters
    ----------
    assignment:
        Role name -> {variant ServerRole -> count}.  Variant names must
        be globally unique (they become host-name prefixes).

    Examples
    --------
    >>> apache = ServerRole("web_apache", "RHEL", "Apache HTTP")
    >>> nginx = ServerRole("web_nginx", "Ubuntu", "nginx")
    >>> design = HeterogeneousDesign({"web": {apache: 1, nginx: 1}})
    >>> design.total_servers
    2
    """

    def __init__(self, assignment: Mapping[str, Mapping[ServerRole, int]]) -> None:
        if not assignment:
            raise ValidationError("a design needs at least one role")
        self._assignment: dict[str, dict[ServerRole, int]] = {}
        seen: set[str] = set()
        for role, variants in assignment.items():
            if not variants:
                raise ValidationError(f"role {role!r} has no variants")
            for variant, count in variants.items():
                check_positive_int(count, f"count of {variant.name!r}")
                if variant.name in seen:
                    raise ValidationError(
                        f"variant name {variant.name!r} used twice"
                    )
                seen.add(variant.name)
            self._assignment[role] = dict(variants)

    @property
    def roles(self) -> list[str]:
        """Role names in insertion order."""
        return list(self._assignment)

    @property
    def counts(self) -> dict[str, int]:
        """Role -> total replica count, summed over the role's variants."""
        return {
            role: sum(variants.values())
            for role, variants in self._assignment.items()
        }

    def variants(self, role: str) -> dict[ServerRole, int]:
        """Variant -> count mapping of *role*."""
        try:
            return dict(self._assignment[role])
        except KeyError:
            raise ValidationError(f"role {role!r} not in design") from None

    def tiers(self) -> dict[str, dict[str, int]]:
        """Role -> {variant name -> count}, the availability-model shape."""
        return {
            role: {variant.name: count for variant, count in variants.items()}
            for role, variants in self._assignment.items()
        }

    @property
    def total_servers(self) -> int:
        """Total number of deployed servers."""
        return sum(
            count
            for variants in self._assignment.values()
            for count in variants.values()
        )

    def instances(self, role: str) -> dict[str, ServerRole]:
        """Host name -> variant for every replica of *role*."""
        hosts: dict[str, ServerRole] = {}
        for variant, count in self._assignment[role].items():
            for i in range(1, count + 1):
                hosts[f"{variant.name}{i}"] = variant
        return hosts

    @property
    def label(self) -> str:
        """Readable summary, e.g. ``web[1 web_apache + 1 web_nginx]``."""
        parts = []
        for role, variants in self._assignment.items():
            inner = " + ".join(
                f"{count} {variant.name}" for variant, count in variants.items()
            )
            parts.append(f"{role}[{inner}]")
        return " / ".join(parts)

    # -- identity ----------------------------------------------------------------

    def cache_key(self) -> tuple:
        """Order-insensitive identity (the :class:`DesignSpec` contract)."""
        return (
            "heterogeneous",
            tuple(
                sorted(
                    (role, tuple(sorted((v.name, count) for v, count in variants.items())))
                    for role, variants in self._assignment.items()
                )
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeterogeneousDesign):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __repr__(self) -> str:
        return f"HeterogeneousDesign({self.label!r})"


def build_heterogeneous_harm(
    case_study: EnterpriseCaseStudy,
    design: HeterogeneousDesign,
    database: VulnerabilityDatabase,
    policy: PatchPolicy | None = None,
) -> Harm:
    """Host-level HARM for a heterogeneous design.

    The role-level topology comes from *case_study*; per-host
    vulnerabilities and tree specs come from each variant.
    """
    host_vulns: dict[str, list[Vulnerability]] = {}
    tree_specs: dict[str, tuple[BranchSpec, ...]] = {}
    role_hosts: dict[str, list[str]] = {}
    for role in design.roles:
        if role not in case_study.topology.roles:
            raise ValidationError(f"role {role!r} unknown to the topology")
        hosts = design.instances(role)
        role_hosts[role] = list(hosts)
        for host, variant in hosts.items():
            host_vulns[host] = variant_vulnerabilities(database, variant)
            if variant.attack_tree_spec is not None:
                tree_specs[host] = variant.attack_tree_spec

    reachability = [
        (src_host, dst_host)
        for src_role, dst_role in case_study.topology.role_edges()
        if src_role in role_hosts and dst_role in role_hosts
        for src_host in role_hosts[src_role]
        for dst_host in role_hosts[dst_role]
    ]
    entry_hosts = [
        host
        for role in case_study.topology.entry_roles
        if role in role_hosts
        for host in role_hosts[role]
    ]
    targets = [
        host
        for role in case_study.topology.target_roles
        if role in role_hosts
        for host in role_hosts[role]
    ]
    harm = build_harm(
        host_vulnerabilities=host_vulns,
        reachability=reachability,
        entry_hosts=entry_hosts,
        targets=targets,
        tree_specs=tree_specs,
    )
    if policy is None:
        return harm
    patched = {
        host: policy.patched_cve_ids(vulns) for host, vulns in host_vulns.items()
    }
    return harm.after_patching(patched)
