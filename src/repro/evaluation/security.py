"""Security evaluation of designs over classes of identical hosts.

In the paper's two-layer HARM a host's attack tree comes from its
software stack alone, not from the reachability layer, so the servers
of one group — the replicas of a role, or of one variant in a diverse
tier (:func:`~repro.enterprise.heterogeneous.design_tiers`) — are
interchangeable.  :class:`SecurityEvaluator` therefore computes the
metrics without building the host-level HARM: each server group is a
host class, whose tree is built once per (stack, patch set).

Replica counts only weigh the class paths.  Every design of one
*shape* — the same roles, each with the same group variants — has the
same class paths under one patch set, so the evaluator walks the
role-level topology once per shape and patch set and keeps the result
as a plan: each class path's impact, probability, length and class
indices, grouped and sorted as
:func:`~repro.harm.metrics.reduce_groups` reads them.  A design's
metrics are then reduced from its replica counts alone, a class path
standing for the product of its classes' counts (an exact int).
:meth:`SecurityEvaluator.rows` does this for a chunk of designs, from
the ``design_tiers`` view the chunk has already read.
:func:`~repro.harm.evaluate_security` over
:meth:`SecurityEvaluator.build_harm` is the oracle: both reduce through
:func:`~repro.harm.metrics.reduce_groups` and agree field for field.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import prod

from repro import observability
from repro.attacktree import AttackTree
from repro.attacktree.semantics import GateSemantics, WORST_CASE
from repro.enterprise.casestudy import EnterpriseCaseStudy, variant_vulnerabilities
from repro.enterprise.design import DesignSpec
from repro.enterprise.heterogeneous import (
    HeterogeneousDesign,
    Tiers,
    build_heterogeneous_harm,
    check_design_kind as _check_spec_kind,
    design_tiers,
)
from repro.enterprise.roles import ServerRole
from repro.errors import ValidationError
from repro.harm import Harm, PathAggregation, SecurityMetrics
from repro.harm.builder import host_tree
from repro.harm.metrics import aggregation_of, reduce_groups
from repro.observability import tracing
from repro.patching.policy import PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase
from repro.vulnerability.model import Vulnerability

__all__ = ["SecurityEvaluator"]

_PLANS = observability.counter(
    "repro_security_plans_total",
    "Attack-path plans built, one per design shape and patch set.",
).labels()
_ROWS = observability.counter(
    "repro_security_rows_total",
    "Security-metric rows reduced from attack-path plans.",
).labels()


@dataclass(frozen=True)
class _ClassTree:
    """One class's attack tree and what the metrics read from it."""

    tree: AttackTree
    impact: float
    probability: float
    leaves: int
    cves: frozenset[str]


class _Plan:
    """The class paths of one design shape under one patch set.

    Classes are numbered in the shape's order, the order of a design's
    count vector.  ``paths`` holds each class path's class numbers;
    ``groups`` is ``(impact, probability, path numbers)`` per distinct
    pair in ascending order and ``lengths`` ``(length, path numbers)``,
    the grouping :func:`reduce_groups` reads.  ``leaves`` pairs each
    class on the attack surface with its tree's leaf count, and
    ``entries`` lists the classes that count as entry points.
    """

    __slots__ = ("paths", "groups", "lengths", "leaves", "entries", "unique_cves")

    def __init__(
        self,
        paths: list[tuple[float, float, tuple[int, ...]]],
        leaves: tuple[tuple[int, int], ...],
        entries: tuple[int, ...],
        unique_cves: int,
    ) -> None:
        """*paths* holds ``(impact, probability, class numbers)`` per
        class path."""
        groups: dict[tuple[float, float], list[int]] = {}
        lengths: dict[int, list[int]] = {}
        for number, (impact, probability, classes) in enumerate(paths):
            groups.setdefault((impact, probability), []).append(number)
            lengths.setdefault(len(classes), []).append(number)
        self.paths = tuple(classes for _, _, classes in paths)
        self.groups = tuple(
            (impact, probability, tuple(numbers))
            for (impact, probability), numbers in sorted(groups.items())
        )
        self.lengths = tuple(
            (length, tuple(numbers)) for length, numbers in lengths.items()
        )
        self.leaves = leaves
        self.entries = entries
        self.unique_cves = unique_cves

    def row(
        self, counts: Sequence[int], aggregation: PathAggregation
    ) -> SecurityMetrics:
        """The metrics of the design with *counts* replicas per class."""
        weights = [prod([counts[i] for i in path]) for path in self.paths]
        return reduce_groups(
            [
                (impact, probability, sum([weights[k] for k in ids]))
                for impact, probability, ids in self.groups
            ],
            {
                length: sum([weights[k] for k in ids])
                for length, ids in self.lengths
            },
            aggregation,
            exploitable_vulnerabilities=sum(
                [counts[i] * leaves for i, leaves in self.leaves]
            ),
            unique_cves=self.unique_cves,
            entry_points=sum([counts[i] for i in self.entries]),
        )


class SecurityEvaluator:
    """Compute before/after-patch security metrics for designs.

    Accepts any :class:`~repro.enterprise.design.DesignSpec`, read as
    tiers of server groups
    (:func:`~repro.enterprise.heterogeneous.design_tiers`): a group runs
    the case study's stack of its role, or a variant stack whose records
    come from *database* — one evaluator, one metric pipeline.  Attack
    trees are cached per software stack and patch set, each stack's
    patch set is computed once per policy, and the class paths once per
    design shape and patch set, so an evaluator shared across a sweep
    builds each distinct tree and plan once.  Like the patch sets, the
    patched plans belong to one policy object at a time.

    Parameters
    ----------
    case_study:
        The enterprise description.
    semantics:
        Attack-tree gate semantics (paper default: worst case).
    aggregation:
        Network-level ASP aggregation (paper-consistent default:
        independent paths; see DESIGN.md for the discussion): a
        :class:`~repro.harm.PathAggregation` or its value, anything else
        raising :class:`~repro.errors.ValidationError` here.
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
        aggregation: PathAggregation | str = PathAggregation.INDEPENDENT_PATHS,
        database: VulnerabilityDatabase | None = None,
    ) -> None:
        self.case_study = case_study
        self._semantics = semantics
        self._aggregation = aggregation_of(aggregation)
        self.database = database if database is not None else case_study.database
        #: (own stack?, products) -> the stack's vulnerability records.
        self._records: dict[tuple, list[Vulnerability]] = {}
        #: (own stack?, products, spec, patched CVEs) -> tree or None.
        self._trees: dict[tuple, _ClassTree | None] = {}
        #: Shape -> plan of the unpatched network.
        self._plans: dict[tuple, _Plan] = {}
        #: The policy :attr:`_patched` and :attr:`_patched_plans` hold
        #: the patch sets and plans of: one slot, so a caller with a new
        #: policy per call cannot grow them.
        self._patch_policy: PatchPolicy | None = None
        #: (own stack?, products) -> the CVEs that policy patches.
        self._patched: dict[tuple, frozenset[str]] = {}
        #: Shape -> plan of the network after that policy.
        self._patched_plans: dict[tuple, _Plan] = {}
        self._plans_built = 0

    @property
    def semantics(self) -> GateSemantics:
        """The attack-tree gate semantics (fixed: plans hold tree values)."""
        return self._semantics

    @property
    def aggregation(self) -> PathAggregation:
        """The network-level ASP aggregation."""
        return self._aggregation

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
        return self._rows([design], [design_tiers(design)], (None,))[0][0]

    def after_patch(
        self, design: DesignSpec, policy: PatchPolicy
    ) -> SecurityMetrics:
        """Metrics after applying *policy*'s patches."""
        return self._rows([design], [design_tiers(design)], (policy,))[0][0]

    def rows(
        self,
        designs: Sequence[DesignSpec],
        tiers: Sequence[Tiers],
        policy: PatchPolicy,
    ) -> list[tuple[SecurityMetrics, SecurityMetrics]]:
        """``(before patch, after policy)`` metrics of each design.

        *tiers* holds each design's
        :func:`~repro.enterprise.heterogeneous.design_tiers` view, so a
        chunk that has read its designs once reads them for security
        too.  The first design of a shape builds that shape's plans,
        validating it as the host-level builders would; the rest of the
        chunk is reduced from replica counts.
        """
        return self._rows(designs, tiers, (None, policy))

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

    # -- plans ---------------------------------------------------------------

    def _rows(
        self,
        designs: Sequence[DesignSpec],
        tiers: Sequence[Tiers],
        policies: tuple[PatchPolicy | None, ...],
    ) -> list[tuple[SecurityMetrics, ...]]:
        """One metrics row per policy (``None``: unpatched) per design."""
        aggregation = self._aggregation
        rows = []
        with tracing.span("harm:security", designs=len(designs)) as sp:
            built = self._plans_built
            for design, view in zip(designs, tiers):
                classes = []
                counts = []
                for role, groups in view:
                    for variant, count in groups:
                        classes.append((role, variant))
                        counts.append(count)
                shape = tuple(classes)
                row = []
                for policy in policies:
                    plans = self._plans_for(policy)
                    plan = plans.get(shape)
                    if plan is None:
                        plan = self._plan(design, view, shape, policy)
                        plans[shape] = plan
                    row.append(plan.row(counts, aggregation))
                rows.append(tuple(row))
            sp.add(plans=self._plans_built - built)
        _ROWS.inc(len(rows) * len(policies))
        return rows

    def _plans_for(self, policy: PatchPolicy | None) -> dict[tuple, _Plan]:
        """The plans of the network after *policy* (``None``: unpatched)."""
        if policy is None:
            return self._plans
        self._use_policy(policy)
        return self._patched_plans

    def _use_policy(self, policy: PatchPolicy) -> None:
        """Point the per-policy caches at *policy*, emptying them if it is
        a new object."""
        if policy is not self._patch_policy:
            self._patch_policy = policy
            self._patched = {}
            self._patched_plans = {}

    def _plan(
        self,
        design: DesignSpec,
        tiers: Tiers,
        shape: tuple,
        policy: PatchPolicy | None,
    ) -> _Plan:
        """The plan of *design*'s shape after *policy*.

        *shape* is the ``(role, variant)`` of each class in *tiers*'
        order.  The class set is validated first, in the order the
        host-level builders check it, so a bad design raises what they
        raise; then the role DAG is walked once over the classes on the
        attack surface.
        """
        number = {key: k for k, key in enumerate(shape)}
        by_role: dict[str, list[tuple[int, _ClassTree]]] = {}
        for role, variant, label, own, stack in self._classes(design, tiers):
            record = self._class_tree(label, own, stack, policy)
            if record is not None:
                by_role.setdefault(role, []).append((number[role, variant], record))

        topology = self.case_study.topology
        paths: list[tuple[float, float, tuple[int, ...]]] = []
        entries: list[int] = []
        if any(role in by_role for role in topology.target_roles):
            entry_roles = [r for r in topology.entry_roles if r in by_role]
            entries = [k for role in entry_roles for k, _ in by_role[role]]
            paths = _walk(
                by_role,
                entry_roles,
                set(topology.target_roles),
                topology.reachable_roles,
            )
        records = [entry for group in by_role.values() for entry in group]
        plan = _Plan(
            paths,
            leaves=tuple((k, record.leaves) for k, record in records),
            entries=tuple(entries),
            unique_cves=len(frozenset().union(*(record.cves for _, record in records))),
        )
        self._plans_built += 1
        _PLANS.inc()
        return plan

    # -- classes -------------------------------------------------------------

    def _classes(
        self, design: DesignSpec, tiers: Tiers
    ) -> list[tuple[str, ServerRole | None, str, bool, ServerRole]]:
        """``(role, variant, first host, own stack?, stack)`` per host class.

        One class per server group of *tiers*, with roles in the
        design's own order, the order the host-level builders check
        them in.  Raises what they raise for an unknown role or a
        variant without records.
        """
        groups = dict(tiers)
        roles = self.case_study.roles
        topology_roles = self.case_study.topology.roles
        classes = []
        for role in design.roles:
            for variant, _ in groups[role]:
                own = variant is None
                if own and role not in roles:
                    raise ValidationError(f"unknown role {role!r}")
                if not own and role not in topology_roles:
                    raise ValidationError(f"role {role!r} unknown to the topology")
                stack = roles[role] if own else variant
                self._stack_records(own, stack)
                label = f"{role if own else stack.name}1"
                classes.append((role, variant, label, own, stack))
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
        self._use_policy(policy)
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
        key = (own, stack.products, stack.attack_tree_spec, patched)
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
                impact=tree.impact(self._semantics),
                probability=tree.probability(self._semantics),
                leaves=len(leaves),
                cves=frozenset(leaf.name for leaf in leaves),
            )
        self._trees[key] = record
        return record


def _walk(
    by_role: dict[str, list[tuple[int, _ClassTree]]],
    entry_roles: list[str],
    target_roles: set[str],
    successors,
) -> list[tuple[float, float, tuple[int, ...]]]:
    """``(impact, probability, class numbers)`` of every class path.

    A depth-first walk of the role DAG from each entry class (the
    topology rejects role-level cycles, so every class sequence is a
    simple path at host level).  A path counts at every target it
    reaches and continues past it.  Its impact and probability
    accumulate from the entry exactly as the host-level
    ``evaluate_security`` does.
    """
    children = {
        role: [
            (nxt, k, record)
            for nxt in successors(role)
            if nxt in by_role
            for k, record in by_role[nxt]
        ]
        for role in by_role
    }
    paths: list[tuple[float, float, tuple[int, ...]]] = []
    impacts: list[float] = []
    probabilities: list[float] = []
    classes: list[int] = []
    frames = [
        iter([(role, k, record) for role in entry_roles for k, record in by_role[role]])
    ]
    while frames:
        step = next(frames[-1], None)
        if step is None:
            frames.pop()
            if frames:
                impacts.pop()
                probabilities.pop()
                classes.pop()
            continue
        role, k, record = step
        impacts.append(record.impact)
        probabilities.append(record.probability)
        classes.append(k)
        if role in target_roles:
            paths.append((sum(impacts), prod(probabilities), tuple(classes)))
        frames.append(iter(children[role]))
    return paths
