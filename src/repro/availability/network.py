"""Upper-layer network availability model (the paper's Fig. 4).

A tier is one or more groups of identical servers: a homogeneous role
is a one-group tier, and a tier that mixes software variants has one
group per variant, each with its own lower-layer aggregate.  Each group
becomes a pair of places ``P<group>up`` / ``P<group>d`` holding as many
tokens as the group has servers.  The patch transition ``T<group>d``
fires with the marking-dependent rate ``lambda_eq * #P<group>up`` (each
running server is patched independently at its group's aggregated rate)
and the recovery transition ``T<group>up`` with ``mu_eq * #P<group>d``.
A tier is up while any of its groups has a server up.  Solving the
joint SRN and weighting markings with the Table VI reward yields the
capacity-oriented availability.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.availability.aggregation import ServiceAggregate
from repro.availability.coa import Capacities, coa_reward, tier_groups, up_place
from repro.errors import EvaluationError
from repro.srn import SrnSolution, StochasticRewardNet, solve

__all__ = ["NetworkAvailabilityModel"]


class NetworkAvailabilityModel:
    """Joint availability model of a redundancy design.

    Parameters
    ----------
    capacities:
        Tier name -> number of deployed servers (a one-group tier named
        after the tier), or -> {group name -> count} for a tier of
        several groups.
    aggregates:
        Group name -> :class:`ServiceAggregate` (or any object with
        ``patch_rate`` and ``recovery_rate`` attributes) from the lower
        layer.

    Examples
    --------
    >>> from repro.availability import ServiceAggregate, ServerMeasures
    >>> # (aggregates normally come from aggregate_service)
    """

    def __init__(
        self,
        capacities: Capacities,
        aggregates: Mapping[str, ServiceAggregate],
    ) -> None:
        self._tiers = tier_groups(capacities)
        missing = [
            group
            for groups in self._tiers.values()
            for group in groups
            if group not in aggregates
        ]
        if missing:
            raise EvaluationError(f"no aggregate rates for groups {missing}")
        self._aggregates = dict(aggregates)
        self._solution: SrnSolution | None = None
        # Built once so repeated COA calls hit the solution's LRU
        # reward-vector cache (keyed on callable identity).
        self._coa_reward = coa_reward(self._tiers)

    # -- model ------------------------------------------------------------

    @property
    def tiers(self) -> dict[str, dict[str, int]]:
        """Tier name -> {group name -> server count}."""
        return {tier: dict(groups) for tier, groups in self._tiers.items()}

    @property
    def total_servers(self) -> int:
        """Total deployed servers across every group."""
        return sum(sum(groups.values()) for groups in self._tiers.values())

    def build_srn(self) -> StochasticRewardNet:
        """Construct the upper-layer SRN: one place and transition pair
        per server group, in tier order."""
        net = StochasticRewardNet("network-availability")
        for groups in self._tiers.values():
            for group, count in groups.items():
                aggregate = self._aggregates[group]
                place_up = up_place(group)
                place_down = f"P{group}d"
                net.add_place(place_up, tokens=count)
                net.add_place(place_down)

                def patch_rate(m, _place=place_up, _rate=aggregate.patch_rate):
                    return _rate * m[_place]

                def repair_rate(m, _place=place_down, _rate=aggregate.recovery_rate):
                    return _rate * m[_place]

                down_name = f"T{group}d"
                net.add_timed_transition(down_name, rate=patch_rate)
                net.add_arc(place_up, down_name)
                net.add_arc(down_name, place_down)
                up_name = f"T{group}up"
                net.add_timed_transition(up_name, rate=repair_rate)
                net.add_arc(place_down, up_name)
                net.add_arc(up_name, place_up)
        return net

    def solve(self) -> SrnSolution:
        """Solve (and cache) the steady state of the network SRN."""
        if self._solution is None:
            self._solution = solve(self.build_srn())
        return self._solution

    # -- measures ------------------------------------------------------------

    def capacity_oriented_availability(self) -> float:
        """COA: the expected Table VI reward at steady state."""
        solution = self.solve()
        return solution.expected_reward(self._coa_reward)

    def transient_coa(self, times) -> np.ndarray:
        """Expected COA at each time, starting from the all-up marking.

        One batched uniformisation pass serves the whole time grid.
        """
        return self.solve().transient_reward(self._coa_reward, times)

    def system_availability(self) -> float:
        """P(every tier has at least one server up)."""
        solution = self.solve()
        tiers = [
            [up_place(group) for group in groups] for groups in self._tiers.values()
        ]
        return solution.probability_of(
            lambda m: all(any(m[place] for place in tier) for tier in tiers)
        )

    def expected_running_servers(self) -> float:
        """Expected number of servers that are up."""
        solution = self.solve()
        return float(
            sum(
                solution.expected_tokens(up_place(group))
                for groups in self._tiers.values()
                for group in groups
            )
        )

    def service_up_distribution(self, service: str) -> dict[int, float]:
        """Steady-state distribution of the number of up servers of one tier."""
        if service not in self._tiers:
            raise EvaluationError(f"unknown service {service!r}")
        groups = self._tiers[service]
        solution = self.solve()
        places = solution.markings[0].places()
        tokens = solution.token_matrix()
        counts = sum(
            tokens[:, places.index(up_place(group))].astype(int) for group in groups
        )
        mass = np.bincount(
            counts,
            weights=solution.probabilities,
            minlength=sum(groups.values()) + 1,
        )
        return {count: float(probability) for count, probability in enumerate(mass)}
