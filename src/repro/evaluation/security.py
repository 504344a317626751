"""Security evaluation of designs over classes of identical hosts.

In the paper's two-layer HARM a host's attack tree comes from its
software stack alone, not from the reachability layer, so the replicas
of one role (or of one variant in a heterogeneous design) are
interchangeable.  :class:`SecurityEvaluator` therefore computes the
metrics without building the host-level HARM: it groups a design's
hosts into such classes, builds each class's tree once per (stack,
policy), and walks the role-level topology, which yields each class
path once, weighted by the product of its classes' replica counts.
The cost per design depends on the role topology, not on replica
counts.  :func:`~repro.harm.evaluate_security` over
:meth:`SecurityEvaluator.build_harm` is the oracle: both reduce through
:func:`~repro.harm.metrics.reduce_paths` and agree field for field.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from repro.attacktree import AttackTree
from repro.attacktree.semantics import GateSemantics, WORST_CASE
from repro.enterprise.casestudy import EnterpriseCaseStudy, variant_vulnerabilities
from repro.enterprise.design import DesignSpec
from repro.enterprise.heterogeneous import (
    HeterogeneousDesign,
    build_heterogeneous_harm,
    check_design_kind as _check_spec_kind,
)
from repro.enterprise.roles import ServerRole
from repro.errors import ValidationError
from repro.harm import Harm, PathAggregation, SecurityMetrics
from repro.harm.builder import host_tree
from repro.harm.metrics import WeightedPath, reduce_paths
from repro.observability import tracing
from repro.patching.policy import PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase
from repro.vulnerability.model import Vulnerability

__all__ = ["SecurityEvaluator"]

#: Where a class's vulnerability records come from: the case study's
#: database for a homogeneous role, the evaluator's for a variant.
_ROLE = "role"
_VARIANT = "variant"


@dataclass(frozen=True)
class _ClassTree:
    """One class's attack tree and what the metrics read from it."""

    tree: AttackTree
    impact: float
    probability: float
    leaves: int
    cves: frozenset[str]


class SecurityEvaluator:
    """Compute before/after-patch security metrics for designs.

    Accepts any :class:`~repro.enterprise.design.DesignSpec`: homogeneous
    :class:`~repro.enterprise.design.RedundancyDesign` specs expand
    through the case study's role definitions, heterogeneous specs
    through their per-variant stacks — one evaluator, one metric
    pipeline.  Attack trees are cached per software stack, patch set
    and gate semantics, so an evaluator shared across a sweep builds
    each distinct tree once.

    Parameters
    ----------
    case_study:
        The enterprise description.
    semantics:
        Attack-tree gate semantics (paper default: worst case).
    aggregation:
        Network-level ASP aggregation (paper-consistent default:
        independent paths; see DESIGN.md for the discussion).
    database:
        Vulnerability database for variant lookups of heterogeneous
        designs (default: the case study's own database).  Pass a
        diversity database when variant stacks fall outside the paper
        catalog.
    """

    def __init__(
        self,
        case_study: EnterpriseCaseStudy,
        semantics: GateSemantics = WORST_CASE,
        aggregation: PathAggregation = PathAggregation.INDEPENDENT_PATHS,
        database: VulnerabilityDatabase | None = None,
    ) -> None:
        self.case_study = case_study
        self.semantics = semantics
        self.aggregation = aggregation
        self.database = database if database is not None else case_study.database
        #: (source, products) -> the stack's vulnerability records.
        self._records: dict[tuple, list[Vulnerability]] = {}
        #: (source, products, spec, patched CVEs, semantics) -> tree or None.
        self._trees: dict[tuple, _ClassTree | None] = {}

    def build_harm(
        self, design: DesignSpec, policy: PatchPolicy | None = None
    ) -> Harm:
        """Host-level HARM for any design kind (after patch iff *policy*)."""
        if isinstance(design, HeterogeneousDesign):
            return build_heterogeneous_harm(
                self.case_study, design, self.database, policy
            )
        _check_spec_kind(design)
        return self.case_study.build_harm(design, policy)

    def before_patch(self, design: DesignSpec) -> SecurityMetrics:
        """Metrics of the unpatched network."""
        return self._evaluate(design, None)

    def after_patch(
        self, design: DesignSpec, policy: PatchPolicy
    ) -> SecurityMetrics:
        """Metrics after applying *policy*'s patches."""
        return self._evaluate(design, policy)

    def mean_time_to_compromise(
        self,
        design: DesignSpec,
        policy: PatchPolicy | None = None,
        exploit_rate: float = 1.0,
    ) -> float:
        """MTTC of *design*'s attack surface, for any design kind.

        The attacker-progression extension
        (:func:`repro.harm.mean_time_to_compromise`) dispatched through
        :meth:`build_harm`, so heterogeneous designs race the attacker
        over their per-variant surfaces.  With a *policy*, the surface
        is the after-patch one.
        """
        from repro.harm import mean_time_to_compromise

        return mean_time_to_compromise(
            self.build_harm(design, policy),
            exploit_rate=exploit_rate,
            semantics=self.semantics,
        )

    # -- class evaluation ----------------------------------------------------

    def _evaluate(
        self, design: DesignSpec, policy: PatchPolicy | None
    ) -> SecurityMetrics:
        with tracing.span("harm:security") as sp:
            # Validate the whole design before building any tree, in the
            # order the host-level builders do.
            classes = self._classes(design)
            by_role: dict[str, list[tuple[int, _ClassTree]]] = {}
            for role, count, label, source, stack in classes:
                record = self._class_tree(label, source, stack, policy)
                if record is not None:
                    by_role.setdefault(role, []).append((count, record))

            topology = self.case_study.topology
            paths: list[WeightedPath] = []
            entry_points = 0
            if any(role in by_role for role in topology.target_roles):
                entry_roles = [r for r in topology.entry_roles if r in by_role]
                entry_points = sum(
                    count for role in entry_roles for count, _ in by_role[role]
                )
                paths = _class_paths(
                    by_role,
                    entry_roles,
                    set(topology.target_roles),
                    topology.reachable_roles,
                )
            sp.add(class_paths=len(paths))
            records = [record for group in by_role.values() for record in group]
            return reduce_paths(
                paths,
                self.aggregation,
                exploitable_vulnerabilities=sum(
                    count * record.leaves for count, record in records
                ),
                unique_cves=len(
                    frozenset().union(*(record.cves for _, record in records))
                ),
                entry_points=entry_points,
            )

    def _classes(
        self, design: DesignSpec
    ) -> list[tuple[str, int, str, str, ServerRole]]:
        """``(role, count, first host, source, stack)`` per host class.

        Raises what the host-level builders raise for an unknown design
        kind, an unknown role or a variant without records.
        """
        if isinstance(design, HeterogeneousDesign):
            topology_roles = self.case_study.topology.roles
            classes = []
            for role in design.roles:
                if role not in topology_roles:
                    raise ValidationError(f"role {role!r} unknown to the topology")
                for variant, count in design.variants(role).items():
                    self._stack_records(_VARIANT, variant)
                    classes.append(
                        (role, count, f"{variant.name}1", _VARIANT, variant)
                    )
            return classes
        _check_spec_kind(design)
        roles = self.case_study.roles
        for role in design.roles:
            if role not in roles:
                raise ValidationError(f"unknown role {role!r}")
        return [
            (role, count, f"{role}1", _ROLE, roles[role])
            for role, count in design.counts.items()
        ]

    def _stack_records(
        self, source: str, stack: ServerRole
    ) -> list[Vulnerability]:
        key = (source, stack.products)
        records = self._records.get(key)
        if records is None:
            if source == _VARIANT:
                records = variant_vulnerabilities(self.database, stack)
            else:
                records = self.case_study.database.for_products(stack.products)
            self._records[key] = records
        return records

    def _class_tree(
        self,
        label: str,
        source: str,
        stack: ServerRole,
        policy: PatchPolicy | None,
    ) -> _ClassTree | None:
        """The class's tree after *policy* (``None``: off the surface).

        *label* (the class's first host) names the class in a tree-spec
        error, as the host-level builder names the host.
        """
        records = self._stack_records(source, stack)
        patched = frozenset(
            () if policy is None else policy.patched_cve_ids(records)
        )
        key = (
            source, stack.products, stack.attack_tree_spec, patched, self.semantics
        )
        try:
            return self._trees[key]
        except KeyError:
            pass
        if patched:
            unpatched = self._class_tree(label, source, stack, None)
            tree = unpatched and unpatched.tree.without_leaves(patched)
        else:
            tree = host_tree(label, records, stack.attack_tree_spec)
        record = None
        if tree is not None:
            leaves = tree.leaves()
            record = _ClassTree(
                tree=tree,
                impact=tree.impact(self.semantics),
                probability=tree.probability(self.semantics),
                leaves=len(leaves),
                cves=frozenset(leaf.name for leaf in leaves),
            )
        self._trees[key] = record
        return record


def _class_paths(
    by_role: dict[str, list[tuple[int, _ClassTree]]],
    entry_roles: list[str],
    target_roles: set[str],
    successors,
) -> list[WeightedPath]:
    """Every class path from an entry class to each target it reaches.

    A depth-first walk of the role DAG (the topology rejects role-level
    cycles, so every class sequence is a simple path at host level).  A
    path counts at every target it reaches and continues past it.  Its
    impact and probability accumulate from the entry exactly as the
    host-level ``evaluate_security`` does; its weight is the product of
    the replica counts, the number of host paths it stands for.
    """
    children = {
        role: [
            (nxt, count, record)
            for nxt in successors(role)
            if nxt in by_role
            for count, record in by_role[nxt]
        ]
        for role in by_role
    }
    paths: list[WeightedPath] = []
    impacts: list[float] = []
    probabilities: list[float] = []
    weights = [1]
    frames = [
        iter(
            [
                (role, count, record)
                for role in entry_roles
                for count, record in by_role[role]
            ]
        )
    ]
    while frames:
        step = next(frames[-1], None)
        if step is None:
            frames.pop()
            if frames:
                impacts.pop()
                probabilities.pop()
                weights.pop()
            continue
        role, count, record = step
        impacts.append(record.impact)
        probabilities.append(record.probability)
        weights.append(weights[-1] * count)
        if role in target_roles:
            paths.append(
                (sum(impacts), prod(probabilities), len(impacts), weights[-1])
            )
        frames.append(iter(children[role]))
    return paths
