"""Security evaluation of designs over classes of identical hosts.

In the paper's two-layer HARM a host's attack tree comes from its
software stack alone, not from the reachability layer, so the servers
of one group — the replicas of a role, or of one variant in a diverse
tier (:func:`~repro.enterprise.heterogeneous.design_tiers`) — are
interchangeable.  :class:`SecurityEvaluator` therefore computes the
metrics without building the host-level HARM: each server group is a
host class, whose tree is built once per (stack, patch set), and a walk
of the role-level topology yields each class path once, weighted by the
product of its classes' replica counts.
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
    design_tiers,
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

    Accepts any :class:`~repro.enterprise.design.DesignSpec`, read as
    tiers of server groups
    (:func:`~repro.enterprise.heterogeneous.design_tiers`): a group runs
    the case study's stack of its role, or a variant stack whose records
    come from *database* — one evaluator, one metric pipeline.  Attack
    trees are cached per software stack, patch set and gate semantics,
    and each stack's patch set is computed once per policy, so an
    evaluator shared across a sweep builds each distinct tree once.

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
        #: (own stack?, products) -> the stack's vulnerability records.
        self._records: dict[tuple, list[Vulnerability]] = {}
        #: (own stack?, products, spec, patched CVEs, semantics) -> tree
        #: or None.
        self._trees: dict[tuple, _ClassTree | None] = {}
        #: The policy :attr:`_patched` holds the patch sets of: one slot,
        #: so a caller with a new policy per call cannot grow it.
        self._patch_policy: PatchPolicy | None = None
        #: (own stack?, products) -> the CVEs that policy patches.
        self._patched: dict[tuple, frozenset[str]] = {}

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
            for role, count, label, own, stack in classes:
                record = self._class_tree(label, own, stack, policy)
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
    ) -> list[tuple[str, int, str, bool, ServerRole]]:
        """``(role, count, first host, own stack?, stack)`` per host class.

        One class per server group, with roles in the design's own
        order, the order the host-level builders check them in.  Raises
        what they raise for an unknown design kind, an unknown role or
        a variant without records.
        """
        tiers = dict(design_tiers(design))
        roles = self.case_study.roles
        topology_roles = self.case_study.topology.roles
        classes = []
        for role in design.roles:
            for variant, count in tiers[role]:
                own = variant is None
                if own and role not in roles:
                    raise ValidationError(f"unknown role {role!r}")
                if not own and role not in topology_roles:
                    raise ValidationError(f"role {role!r} unknown to the topology")
                stack = roles[role] if own else variant
                self._stack_records(own, stack)
                label = f"{role if own else stack.name}1"
                classes.append((role, count, label, own, stack))
        return classes

    def _stack_records(self, own: bool, stack: ServerRole) -> list[Vulnerability]:
        """The case study's records of its *own* stack, or a variant's
        records from the evaluator's database (refusing none)."""
        key = (own, stack.products)
        records = self._records.get(key)
        if records is None:
            if own:
                records = self.case_study.database.for_products(stack.products)
            else:
                records = variant_vulnerabilities(self.database, stack)
            self._records[key] = records
        return records

    def _patched_ids(
        self, own: bool, stack: ServerRole, policy: PatchPolicy
    ) -> frozenset[str]:
        """The CVEs *policy* patches on *stack*, computed once per stack."""
        if policy is not self._patch_policy:
            self._patch_policy = policy
            self._patched = {}
        key = (own, stack.products)
        patched = self._patched.get(key)
        if patched is None:
            patched = frozenset(
                policy.patched_cve_ids(self._stack_records(own, stack))
            )
            self._patched[key] = patched
        return patched

    def _class_tree(
        self,
        label: str,
        own: bool,
        stack: ServerRole,
        policy: PatchPolicy | None,
    ) -> _ClassTree | None:
        """The class's tree after *policy* (``None``: off the surface).

        *label* (the class's first host) names the class in a tree-spec
        error, as the host-level builder names the host.
        """
        patched = (
            frozenset() if policy is None else self._patched_ids(own, stack, policy)
        )
        key = (own, stack.products, stack.attack_tree_spec, patched, self.semantics)
        try:
            return self._trees[key]
        except KeyError:
            pass
        if patched:
            unpatched = self._class_tree(label, own, stack, None)
            tree = unpatched and unpatched.tree.without_leaves(patched)
        else:
            records = self._stack_records(own, stack)
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
