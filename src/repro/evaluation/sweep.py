"""Design-space exploration beyond the paper's five choices.

Enumeration covers both spec kinds — replica-count spaces
(:func:`enumerate_designs`) and diverse-stack variant assignments
(:func:`enumerate_heterogeneous_designs`) — and :func:`pareto_front`
ranks any mix of the two on the same (ASP, COA) axes, through the one
kernel :func:`pareto_mask` (which also re-ranks serialised designs in
the shard merge).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import product

import numpy as np

from repro._validation import check_positive_int
from repro.enterprise.design import RedundancyDesign
from repro.enterprise.heterogeneous import HeterogeneousDesign
from repro.enterprise.roles import ServerRole
from repro.errors import ValidationError
from repro.evaluation.combined import DesignEvaluation

__all__ = [
    "enumerate_designs",
    "enumerate_heterogeneous_designs",
    "pareto_front",
    "pareto_mask",
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


def pareto_front(
    evaluations: Iterable[DesignEvaluation],
    after_patch: bool = True,
) -> list[DesignEvaluation]:
    """Designs not dominated on (lower ASP, higher COA).

    A design dominates another when it is at least as good on both axes
    and strictly better on one — the trade-off frontier an administrator
    chooses from.  Works on any mix of design kinds (the axes live on
    the snapshots, not the specs).
    """
    pool = list(evaluations)
    snapshots = [
        evaluation.after if after_patch else evaluation.before
        for evaluation in pool
    ]
    keep = pareto_mask(
        [snapshot.security.attack_success_probability for snapshot in snapshots],
        [snapshot.coa for snapshot in snapshots],
    )
    return [evaluation for evaluation, kept in zip(pool, keep) if kept]


def pareto_mask(asp: Sequence[float], coa: Sequence[float]) -> np.ndarray:
    """Which of the points ``(asp[i], coa[i])`` no other point dominates.

    An O(n log n) vectorized sweep: sort by (ASP asc, COA desc), then a
    point survives iff its COA equals its ASP group's maximum and that
    maximum strictly exceeds the best COA of every strictly-lower ASP
    group.  Returns a boolean array in input order.
    """
    asp = np.asarray(asp, dtype=float)
    coa = np.asarray(coa, dtype=float)
    keep = np.zeros(len(asp), dtype=bool)
    if not len(asp):
        return keep
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
    keep[order] = (sorted_coa == group_max[group_ids]) & (
        group_max[group_ids] > best_before[group_ids]
    )
    return keep
