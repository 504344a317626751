"""Security metrics over a HARM.

Implements the paper's five metrics:

=======  =============================================  ========================
metric   definition                                     level structure
=======  =============================================  ========================
AIM      max over attack paths of the path impact       path impact = sum of
                                                        host-tree impacts
ASP      aggregation over paths of the path success     path probability =
         probability                                    product of host-tree
                                                        probabilities
NoEV     number of exploitable vulnerabilities          sum of tree leaves over
                                                        hosts (or unique CVEs)
NoAP     number of attack paths                         upper layer
NoEP     number of entry points                         upper layer
=======  =============================================  ========================

Two network-level aggregations for ASP are provided.  *worst case* takes
the most probable single path (max).  *independent paths* treats paths as
independent attempts, ``1 - prod(1 - p_path)``; this is the semantics
consistent with the paper's observations (redundancy increases ASP, and
designs whose extra replica is off-path keep the baseline value).

Every metric is one reduction, :func:`reduce_groups`, over attack paths
grouped by ``(impact, probability)``, each group carrying the exact int
number of paths it holds.  :func:`evaluate_security` enumerates the
host-level paths of an explicit HARM and groups them through
:func:`reduce_paths`, each with weight 1;
:class:`repro.evaluation.security.SecurityEvaluator` walks classes of
identical replicas instead, once per design shape, and weighs each
class path by the product of its classes' replica counts.  Either way
the independent-paths product is ``prod((1 - p) ** W_p)`` over the
distinct ``p`` in ascending order and ``total_risk`` sums over ascending
``(impact, p)``, so both routes give the same bits.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from math import prod

from repro.attacktree.semantics import GateSemantics, WORST_CASE
from repro.errors import ValidationError
from repro.harm.model import Harm

__all__ = [
    "PathAggregation",
    "SecurityMetrics",
    "WeightedPath",
    "aggregation_of",
    "evaluate_security",
    "reduce_groups",
    "reduce_paths",
]


class PathAggregation(str, Enum):
    """How per-path success probabilities combine into the network ASP."""

    WORST_CASE = "worst_case"
    INDEPENDENT_PATHS = "independent_paths"

    def __str__(self) -> str:
        return self.value


def aggregation_of(value: object) -> PathAggregation:
    """*value* as a :class:`PathAggregation` member (a member or its
    string value); anything else raises :class:`ValidationError`."""
    try:
        return PathAggregation(value)
    except ValueError:
        choices = ", ".join(repr(member.value) for member in PathAggregation)
        raise ValidationError(
            f"unknown aggregation {value!r}; expected one of {choices}"
        ) from None


@dataclass(frozen=True)
class SecurityMetrics:
    """The paper's five metrics plus supporting detail.

    Every field is a reduction over weighted attack paths (see
    :func:`reduce_paths`); no per-path data is kept, so a result's size
    does not grow with the number of paths.  The extra metrics
    (``max_path_probability``, ``shortest_attack_path``,
    ``mean_path_length``, ``total_risk``, ``unique_cve_count``) come
    from the systems-security-metrics survey the paper cites.
    """

    attack_impact: float
    attack_success_probability: float
    number_of_exploitable_vulnerabilities: int
    number_of_attack_paths: int
    number_of_entry_points: int
    max_path_probability: float
    shortest_attack_path: int
    mean_path_length: float
    total_risk: float
    unique_cve_count: int

    def as_dict(self) -> dict[str, float | int]:
        """The five headline metrics keyed by their paper abbreviations."""
        return {
            "AIM": self.attack_impact,
            "ASP": self.attack_success_probability,
            "NoEV": self.number_of_exploitable_vulnerabilities,
            "NoAP": self.number_of_attack_paths,
            "NoEP": self.number_of_entry_points,
        }


#: One attack path as the reduction sees it:
#: ``(impact, probability, length, weight)``.
WeightedPath = tuple[float, float, int, int]


def reduce_paths(
    paths: Iterable[WeightedPath],
    aggregation: PathAggregation | str,
    exploitable_vulnerabilities: int,
    unique_cves: int,
    entry_points: int,
) -> SecurityMetrics:
    """Reduce weighted attack paths to :class:`SecurityMetrics`.

    Each path is ``(impact, probability, length, weight)``: *weight*
    identical paths (an exact int) with that impact (the sum of the
    host-tree impacts, from the entry), probability (their product)
    and host count.  The path-independent counts — NoEV, the unique
    CVEs and NoEP — are passed through.

    Equal paths are grouped before any floating-point arithmetic and
    reduced by :func:`reduce_groups`, so the result depends only on the
    multiset of paths, not on the order they arrive in or on how they
    are split into weights.
    """
    aggregation = aggregation_of(aggregation)
    groups: dict[tuple[float, float], int] = {}
    lengths: dict[int, int] = {}
    for impact, probability, length, weight in paths:
        key = (impact, probability)
        groups[key] = groups.get(key, 0) + weight
        lengths[length] = lengths.get(length, 0) + weight
    return reduce_groups(
        [(impact, p, weight) for (impact, p), weight in sorted(groups.items())],
        lengths,
        aggregation,
        exploitable_vulnerabilities,
        unique_cves,
        entry_points,
    )


def reduce_groups(
    groups: Sequence[tuple[float, float, int]],
    lengths: Mapping[int, int],
    aggregation: PathAggregation,
    exploitable_vulnerabilities: int,
    unique_cves: int,
    entry_points: int,
) -> SecurityMetrics:
    """Reduce grouped attack paths to :class:`SecurityMetrics`.

    *groups* holds one ``(impact, probability, weight)`` per distinct
    ``(impact, probability)``, in ascending order of that pair, and
    *lengths* maps each path length to its weight; every weight is an
    exact, positive int.  *aggregation* must already be a
    :class:`PathAggregation` member (:func:`aggregation_of`).

    Independent-paths ASP is ``1 - prod((1 - p) ** W_p)`` over the
    distinct probabilities in ascending order, and ``total_risk`` sums
    ``impact * p * W`` over the groups in their ascending order.
    """
    count = sum(lengths.values())
    if not groups:
        aim = asp = max_path_prob = 0.0
    else:
        aim = groups[-1][0]  # groups ascend by impact
        max_path_prob = max(probability for _, probability, _ in groups)
        if aggregation is PathAggregation.WORST_CASE:
            asp = max_path_prob
        else:
            by_probability: dict[float, int] = {}
            for _, probability, weight in groups:
                by_probability[probability] = (
                    by_probability.get(probability, 0) + weight
                )
            asp = 1.0 - prod(
                (1.0 - probability) ** weight
                for probability, weight in sorted(by_probability.items())
            )

    total_risk = sum(
        impact * probability * weight for impact, probability, weight in groups
    )
    return SecurityMetrics(
        attack_impact=aim,
        attack_success_probability=asp,
        number_of_exploitable_vulnerabilities=exploitable_vulnerabilities,
        number_of_attack_paths=count,
        number_of_entry_points=entry_points,
        max_path_probability=max_path_prob,
        shortest_attack_path=min(lengths, default=0),
        mean_path_length=(
            sum(length * weight for length, weight in lengths.items()) / count
            if count
            else 0.0
        ),
        total_risk=total_risk,
        unique_cve_count=unique_cves,
    )


def evaluate_security(
    harm: Harm,
    semantics: GateSemantics = WORST_CASE,
    aggregation: PathAggregation | str = PathAggregation.INDEPENDENT_PATHS,
    max_path_length: int | None = None,
) -> SecurityMetrics:
    """Compute :class:`SecurityMetrics` for *harm*.

    Enumerates every host-level attack path of the attack surface and
    feeds each to :func:`reduce_paths` with weight 1.

    Parameters
    ----------
    harm:
        The model to evaluate.
    semantics:
        AND/OR gate semantics for the lower-layer trees.
    aggregation:
        Network-level combination of path probabilities (a
        :class:`PathAggregation` or its value; anything else raises
        :class:`~repro.errors.ValidationError`).
    max_path_length:
        Optional bound on path length (hosts per path) for large networks.
    """
    aggregation = aggregation_of(aggregation)
    surface = harm.attack_surface()
    trees = harm.trees

    host_impact: dict[str, float] = {}
    host_probability: dict[str, float] = {}
    for host, tree in trees.items():
        host_impact[host] = tree.impact(semantics)
        host_probability[host] = tree.probability(semantics)

    paths: Iterable[WeightedPath] = ()
    entry_points = 0
    if surface.targets:
        # Attacker-rooted paths: path[0] is the attacker node.
        paths = (
            (
                sum(host_impact[host] for host in path[1:]),
                prod(host_probability[host] for host in path[1:]),
                len(path) - 1,
                1,
            )
            for path in surface.iter_attack_paths(max_path_length)
        )
        entry_points = len(surface.entry_points())

    return reduce_paths(
        paths,
        aggregation,
        exploitable_vulnerabilities=sum(
            len(tree.leaves()) for tree in trees.values()
        ),
        unique_cves=len(
            {leaf.name for tree in trees.values() for leaf in tree.leaves()}
        ),
        entry_points=entry_points,
    )
