"""Design-space exploration beyond the paper's five choices.

Enumeration covers both spec kinds — replica-count spaces
(:func:`enumerate_designs`) and diverse-stack variant assignments
(:func:`enumerate_heterogeneous_designs`) — and :func:`pareto_front`
ranks any mix of the two on the same (ASP, COA) axes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import product

import numpy as np

from repro._validation import check_positive_int
from repro.enterprise.casestudy import EnterpriseCaseStudy
from repro.enterprise.design import DesignSpec, RedundancyDesign
from repro.enterprise.heterogeneous import HeterogeneousDesign
from repro.enterprise.roles import ServerRole
from repro.errors import ValidationError
from repro.evaluation.combined import DesignEvaluation, evaluate_designs
from repro.patching.policy import PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = [
    "enumerate_designs",
    "enumerate_heterogeneous_designs",
    "sweep_designs",
    "pareto_front",
    "pareto_front_loop",
]


def enumerate_designs(
    roles: Sequence[str],
    max_replicas: int,
    max_total: int | None = None,
) -> Iterator[RedundancyDesign]:
    """Yield every design with 1..max_replicas servers per role.

    *max_total* optionally caps the total server count (budget limit).
    Designs are yielded in lexicographic count order.
    """
    check_positive_int(max_replicas, "max_replicas")
    if not roles:
        return
    for counts in _count_vectors(len(roles), max_replicas, max_total):
        yield RedundancyDesign(dict(zip(roles, counts)))


def _count_vectors(
    length: int, max_replicas: int, max_total: int | None
) -> Iterator[tuple[int, ...]]:
    """Count tuples of 1..max_replicas summing to at most *max_total*.

    Lexicographic order.  Counts that cannot fit the total are never
    generated, so a small *max_total* over a huge *max_replicas* stays
    cheap.
    """
    if max_total is None:
        yield from product(range(1, max_replicas + 1), repeat=length)
        return
    if length == 0:
        yield ()
        return
    # Every later role needs at least one server.
    for first in range(1, min(max_replicas, max_total - length + 1) + 1):
        for rest in _count_vectors(length - 1, max_replicas, max_total - first):
            yield (first, *rest)


def _role_assignments(
    variants: Sequence[ServerRole], max_replicas: int
) -> Iterator[dict[ServerRole, int]]:
    """Every way to deploy 1..max_replicas servers over the variants.

    Each variant gets 0..max_replicas replicas; at least one server must
    be deployed and the role total may not exceed *max_replicas* (the
    same per-role budget :func:`enumerate_designs` applies).  Variants
    with a zero count are dropped from the assignment.
    """
    for counts in product(range(max_replicas + 1), repeat=len(variants)):
        total = sum(counts)
        if not 1 <= total <= max_replicas:
            continue
        yield {
            variant: count
            for variant, count in zip(variants, counts)
            if count > 0
        }


def _assignment_combos(
    pools: Sequence[Sequence[ServerRole]],
    max_replicas: int,
    max_total: int | None,
) -> Iterator[tuple[dict[ServerRole, int], ...]]:
    """``product`` of the roles' assignments, generated lazily.

    Same order as ``itertools.product`` over the materialised
    assignment lists, without materialising them; with *max_total*, a
    role's total is capped by what the later roles (one server each at
    least) leave over.
    """
    if not pools:
        yield ()
        return
    cap = max_replicas
    if max_total is not None:
        cap = min(cap, max_total - len(pools) + 1)
    for assignment in _role_assignments(pools[0], cap):
        rest_total = None if max_total is None else max_total - sum(assignment.values())
        for rest in _assignment_combos(pools[1:], max_replicas, rest_total):
            yield (assignment, *rest)


def enumerate_heterogeneous_designs(
    roles: Sequence[str],
    variants: Mapping[str, Sequence[ServerRole]],
    max_replicas: int,
    max_total: int | None = None,
) -> Iterator[HeterogeneousDesign]:
    """Yield every variant-count assignment of the diversity space.

    For each role in *roles*, every way to split 1..max_replicas
    replicas over the role's candidate stacks in *variants* is
    considered (a role with one candidate degenerates to the homogeneous
    1..max_replicas enumeration); the cross product over roles is the
    design space.  *max_total* optionally caps the total server count.

    Raises
    ------
    ValidationError
        If a role has no variant pool, or a pool is empty.
    """
    check_positive_int(max_replicas, "max_replicas")
    if not roles:
        return
    pools: list[list[ServerRole]] = []
    for role in roles:
        pool = list(variants.get(role, ()))
        if not pool:
            raise ValidationError(f"role {role!r} has no candidate variants")
        pools.append(pool)
    for combo in _assignment_combos(pools, max_replicas, max_total):
        yield HeterogeneousDesign(dict(zip(roles, combo)))


def sweep_designs(
    case_study: EnterpriseCaseStudy,
    policy: PatchPolicy,
    designs: Iterable[DesignSpec],
    database: VulnerabilityDatabase | None = None,
) -> list[DesignEvaluation]:
    """Evaluate an arbitrary design collection with shared caches.

    *designs* may mix homogeneous and heterogeneous specs.
    """
    return evaluate_designs(
        list(designs), case_study=case_study, policy=policy, database=database
    )


def _pareto_axes(
    evaluations: Sequence[DesignEvaluation], after_patch: bool
) -> tuple[np.ndarray, np.ndarray]:
    snapshots = [
        evaluation.after if after_patch else evaluation.before
        for evaluation in evaluations
    ]
    asp = np.array(
        [snapshot.security.attack_success_probability for snapshot in snapshots]
    )
    coa = np.array([snapshot.coa for snapshot in snapshots])
    return asp, coa


def pareto_front(
    evaluations: Iterable[DesignEvaluation],
    after_patch: bool = True,
) -> list[DesignEvaluation]:
    """Designs not dominated on (lower ASP, higher COA).

    A design dominates another when it is at least as good on both axes
    and strictly better on one — the trade-off frontier an administrator
    chooses from.  Works on any mix of design kinds (the axes live on
    the snapshots, not the specs).

    The implementation is an O(n log n) vectorized sweep: sort by
    (ASP asc, COA desc), then a design survives iff its COA equals its
    ASP-group's maximum and that maximum strictly exceeds the best COA
    of every strictly-lower ASP group.  :func:`pareto_front_loop` keeps
    the quadratic reference semantics as the parity oracle.
    """
    pool = list(evaluations)
    if not pool:
        return []
    asp, coa = _pareto_axes(pool, after_patch)
    order = np.lexsort((-coa, asp))
    sorted_asp = asp[order]
    sorted_coa = coa[order]
    # COA desc within an ASP group puts the group maximum first.
    group_start = np.concatenate(([True], sorted_asp[1:] != sorted_asp[:-1]))
    group_ids = np.cumsum(group_start) - 1
    group_max = sorted_coa[group_start]
    # Best COA over all strictly-lower ASP groups (-inf for the first).
    best_before = np.concatenate(
        ([-np.inf], np.maximum.accumulate(group_max)[:-1])
    )
    survives = (sorted_coa == group_max[group_ids]) & (
        group_max[group_ids] > best_before[group_ids]
    )
    keep = np.zeros(len(pool), dtype=bool)
    keep[order] = survives
    return [evaluation for evaluation, kept in zip(pool, keep) if kept]


def pareto_front_loop(
    evaluations: Iterable[DesignEvaluation],
    after_patch: bool = True,
) -> list[DesignEvaluation]:
    """Reference all-pairs Pareto front (the :func:`pareto_front` oracle)."""
    pool = list(evaluations)

    def axes(evaluation: DesignEvaluation) -> tuple[float, float]:
        snapshot = evaluation.after if after_patch else evaluation.before
        return (snapshot.security.attack_success_probability, snapshot.coa)

    front = []
    for candidate in pool:
        asp_c, coa_c = axes(candidate)
        dominated = False
        for other in pool:
            if other is candidate:
                continue
            asp_o, coa_o = axes(other)
            if (
                asp_o <= asp_c
                and coa_o >= coa_c
                and (asp_o < asp_c or coa_o > coa_c)
            ):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front
