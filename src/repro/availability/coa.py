"""Capacity-oriented availability (COA) reward functions.

Table VI of the paper assigns to each marking the fraction of running
servers, *provided every service still has at least one server up*;
otherwise the reward is 0 (the web service being entirely down makes the
whole system useless regardless of how many application servers run).
A tier that mixes software variants is up while any of its groups has a
server up.  The generalization below reproduces Table VI exactly for
the example network (1 DNS + 2 WEB + 2 APP + 1 DB).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro._validation import check_positive_int
from repro.errors import EvaluationError
from repro.srn import Marking

__all__ = ["coa_reward", "tier_groups", "up_place"]

#: A tier given as a bare server count, or as its groups' counts.
Capacities = Mapping[str, int | Mapping[str, int]]


def up_place(service: str) -> str:
    """Name of the tokens-up place for *service* in the network SRN."""
    return f"P{service}up"


def tier_groups(capacities: Capacities) -> dict[str, dict[str, int]]:
    """Tier name -> {group name -> server count}, validated.

    A group is a set of identical servers.  A tier maps either to a bare
    count, one group named after the tier, or to the counts of its
    groups (a tier that mixes software variants).  Group names name the
    SRN places, so each may appear in one tier only.
    """
    if not capacities:
        raise EvaluationError("a network needs at least one tier")
    tiers: dict[str, dict[str, int]] = {}
    seen: set[str] = set()
    for tier, groups in capacities.items():
        if not isinstance(groups, Mapping):
            groups = {tier: groups}
        if not groups:
            raise EvaluationError(f"tier {tier!r} has no server groups")
        for group, count in groups.items():
            check_positive_int(count, f"capacity of {group!r}")
            if group in seen:
                raise EvaluationError(
                    f"group {group!r} appears in more than one tier"
                )
            seen.add(group)
        tiers[tier] = dict(groups)
    return tiers


def coa_reward(capacities: Capacities) -> Callable[[Marking], float]:
    """Build the Table VI reward function for the given design.

    Parameters
    ----------
    capacities:
        Tier name -> number of deployed servers (e.g.
        ``{"dns": 1, "web": 2, "app": 2, "db": 1}``), or -> {group name
        -> count} for a tier of several groups (see :func:`tier_groups`).

    Returns
    -------
    A reward-rate function over markings of the network SRN: the number
    of running servers divided by the total, or 0 when any tier has no
    server up in any of its groups.
    """
    tiers = tier_groups(capacities)
    places = [tuple(up_place(group) for group in groups) for groups in tiers.values()]
    total = sum(sum(groups.values()) for groups in tiers.values())

    def reward(marking: Marking) -> float:
        running = 0
        for tier in places:
            up = 0
            for place in tier:
                up += marking[place]
            if up == 0:
                return 0.0
            running += up
        return running / total

    return reward
