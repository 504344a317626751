"""Availability evaluation of designs: lower-layer solve + aggregation,
then the upper-layer COA in closed form, with each server group's
aggregate cached across designs and each distinct stack solved once."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import replace
from functools import partial

import numpy as np

from repro.availability import product_form
from repro.availability.aggregation import ServiceAggregate, aggregate_services
from repro.availability.network import NetworkAvailabilityModel
from repro.availability.parameters import ServerParameters
from repro.availability.server import ServerNetSolver
from repro.enterprise.casestudy import EnterpriseCaseStudy
from repro.enterprise.design import DesignSpec
from repro.enterprise.heterogeneous import design_tiers
from repro.enterprise.roles import ServerRole
from repro.errors import ReproError
from repro.patching.policy import PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = ["AvailabilityEvaluator"]

#: An aggregate's cache key: the tier's role and the group's variant
#: (``None`` for the case study's own stack of that role).
GroupKey = tuple[str, ServerRole | None]

#: The name every solved stack is keyed under: two groups whose
#: parameters differ only in name solve to the same numbers.
_STACK = "stack"


class AvailabilityEvaluator:
    """Compute COA and related availability measures for designs.

    Accepts any :class:`~repro.enterprise.design.DesignSpec`, read as
    tiers of server groups
    (:func:`~repro.enterprise.heterogeneous.design_tiers`): a
    homogeneous role is a one-group tier, a diverse tier one group per
    variant.  The expensive part — solving a group's lower-layer SRN and
    aggregating it into (lambda_eq, mu_eq) — depends only on its
    :class:`~repro.availability.parameters.ServerParameters`, not on the
    replica counts or the group's name.  Aggregates are therefore cached
    per ``(role, variant)`` group, and solved per distinct parameter
    content: groups of equal stacks (the cyclic tiers of a scaled case
    study, or a variant equal to its role's stack) share one solve and
    keep their own names.  Every stack goes through the evaluator's one
    :class:`~repro.availability.server.ServerNetSolver`, so the server
    net is explored once per evaluator, and :meth:`solve_groups` solves
    all the stacks a batch of designs is missing in one stacked call.

    The upper-layer COA — steady, transient and under a staged
    campaign — comes from the closed form of
    :mod:`repro.availability.product_form`, which needs no state space.
    :meth:`network_model` builds the paper's upper-layer SRN over the
    same groups, which stays the oracle and serves the measures the
    closed form does not cover (system availability, time to outage).

    Parameters
    ----------
    case_study:
        The enterprise description.
    policy:
        The patch policy selecting which vulnerabilities get patched.
    database:
        Vulnerability database for variant lookups of heterogeneous
        designs (default: the case study's own database).
    """

    def __init__(
        self,
        case_study: EnterpriseCaseStudy,
        policy: PatchPolicy,
        database: VulnerabilityDatabase | None = None,
    ) -> None:
        self.case_study = case_study
        self.policy = policy
        self.database = database if database is not None else case_study.database
        self._aggregates: dict[GroupKey, ServiceAggregate] = {}
        #: Solved rows keyed by their parameters under the name _STACK.
        self._stacks: dict[ServerParameters, ServiceAggregate] = {}
        self._server = ServerNetSolver()

    # -- per-group aggregation (Table V) -----------------------------------

    def aggregate(
        self, role: str, variant: ServerRole | None = None
    ) -> ServiceAggregate:
        """The (cached) Table V row of one server group.

        Without *variant* the group runs the case study's stack of
        *role*; with one, the variant stack serving that tier, whose
        component rates fall back to *role*'s override.
        """
        aggregate = self._aggregates.get((role, variant))
        if aggregate is None:
            self._solve({(role, variant): self._parameters(role, variant)})
            aggregate = self._aggregates[(role, variant)]
        return aggregate

    def solve_groups(
        self, designs: Iterable[DesignSpec], action: str
    ) -> dict[GroupKey, ServiceAggregate]:
        """Aggregates of every server group of *designs*, solving the
        missing stacks in one call.

        The batch entry point of the sweep and timeline chunks and of
        pool priming.  Each design's groups are read under
        :func:`~repro.evaluation.combined.labelled` with *action*, so a
        bad design fails with its own label.  Returns ``(role, variant)``
        -> aggregate for every group of *designs*.
        """
        from repro.evaluation.combined import labelled

        groups: dict[GroupKey, ServerParameters | None] = {}

        def collect(design: DesignSpec) -> None:
            for role, tier in design_tiers(design):
                for variant, _ in tier:
                    key = (role, variant)
                    if key not in groups:
                        groups[key] = (
                            None
                            if key in self._aggregates
                            else self._parameters(role, variant)
                        )

        for design in designs:
            labelled(action, design, partial(collect, design))
        missing = {key: p for key, p in groups.items() if p is not None}
        if missing:
            try:
                self._solve(missing)
            except ReproError:
                # Left unsolved: each design's own lookup re-solves its
                # groups and fails under that design's label.
                return {}
        return {key: self._aggregates[key] for key in groups}

    def _parameters(self, role: str, variant: ServerRole | None) -> ServerParameters:
        if variant is None:
            return self.case_study.server_parameters(role, self.policy)
        return self.case_study.variant_parameters(
            variant, self.policy, database=self.database, role=role
        )

    def _solve(self, groups: Mapping[GroupKey, ServerParameters]) -> None:
        """Solve the distinct stacks of *groups* not solved yet, in one
        stacked call, and cache every group's row under its own name."""
        stacks = {key: replace(p, name=_STACK) for key, p in groups.items()}
        new: dict[ServerParameters, ServerParameters] = {}
        for key, stack in stacks.items():
            if stack not in self._stacks:
                new.setdefault(stack, groups[key])
        if new:
            solved = aggregate_services(self._server, list(new.values()))
            self._stacks.update(zip(new, solved))
        for key, stack in stacks.items():
            row = self._stacks[stack]
            name = groups[key].name
            self._aggregates[key] = row if row.name == name else replace(row, name=name)

    def aggregates_for(self, design: DesignSpec) -> dict[str, ServiceAggregate]:
        """Group name -> aggregate for every group of *design*.

        A group is named after its variant, or after its role when it
        runs the role's own stack; tiers follow the design's own role
        order (Table V lists them as the design does).
        """
        return {
            name: self.aggregate(role, variant)
            for role, groups in _design_order(design)
            for name, variant, _ in groups
        }

    def prime_aggregates(
        self, aggregates: Mapping[GroupKey, ServiceAggregate]
    ) -> None:
        """Seed the aggregate cache with already-solved Table V rows.

        Used by the process-pool sweep: the parent solves the
        lower-layer SRNs once and ships the rows to pool workers, which
        prime their evaluators instead of re-solving.
        """
        self._aggregates.update(aggregates)

    def _tiers(self, design: DesignSpec) -> list[list[product_form.Group]]:
        """``(count, lambda_eq, mu_eq)`` per server group, per tier, in
        the canonical order of
        :func:`~repro.enterprise.heterogeneous.design_tiers`."""
        tiers = []
        for role, groups in design_tiers(design):
            tier = []
            for variant, count in groups:
                aggregate = self.aggregate(role, variant)
                tier.append((count, aggregate.patch_rate, aggregate.recovery_rate))
            tiers.append(tier)
        return tiers

    # -- per-design measures ------------------------------------------------

    def network_model(self, design: DesignSpec) -> NetworkAvailabilityModel:
        """The upper-layer SRN model of *design*, one group per
        ``(role, variant)``.

        Places follow the design's own role order: the SRN's state
        order, and so the last bits of its solution, follow place order.
        """
        return NetworkAvailabilityModel(
            {
                role: {name: count for name, _, count in groups}
                for role, groups in _design_order(design)
            },
            self.aggregates_for(design),
        )

    def coa(self, design: DesignSpec) -> float:
        """Steady-state capacity-oriented availability of *design*."""
        return product_form.coa(self._tiers(design))

    def transient_coa(
        self, design: DesignSpec, times: Sequence[float]
    ) -> np.ndarray:
        """Expected COA of *design* at each time, from all servers up.

        The one-phase, multiplier-1 case of
        :meth:`transient_coa_piecewise`.
        """
        return self.transient_coa_piecewise(design, times, (1.0,), (math.inf,))

    def transient_coa_piecewise(
        self,
        design: DesignSpec,
        times: Sequence[float],
        multipliers: Sequence[float],
        durations: Sequence[float],
    ) -> np.ndarray:
        """Expected COA under piecewise-constant patch-rate scaling.

        *multipliers* and *durations* describe one rollout phase each
        (the last duration is open-ended): during phase *p* every patch
        rate is scaled by ``multipliers[p]`` while recovery rates stay
        fixed (see :func:`repro.availability.product_form.coa_curve`).
        """
        return product_form.coa_curve(
            self._tiers(design), times, multipliers, durations
        )

    def system_availability(self, design: DesignSpec) -> float:
        """P(every tier has a running server) for *design*."""
        return self.network_model(design).system_availability()

    def mean_time_to_outage(self, design: DesignSpec) -> float:
        """Expected hours from all-up until some tier first loses all
        servers, for any design kind."""
        from repro.availability.survivability import mean_time_to_outage

        return mean_time_to_outage(self.network_model(design))

    # -- instrumentation ------------------------------------------------------

    @property
    def solve_stats(self) -> dict[str, int]:
        """Counters for the benchmarks: lower-layer solves, one per
        distinct stack."""
        return {"aggregate_solves": len(self._stacks)}


def _design_order(
    design: DesignSpec,
) -> list[tuple[str, list[tuple[str, ServerRole | None, int]]]]:
    """:func:`design_tiers` in the design's own role order, each group
    as ``(name, variant, count)``."""
    tiers = dict(design_tiers(design))
    return [
        (
            role,
            [
                (role if variant is None else variant.name, variant, count)
                for variant, count in tiers[role]
            ],
        )
        for role in design.roles
    ]
