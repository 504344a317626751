"""Availability evaluation of designs: lower-layer solve + aggregation,
then the upper-layer COA in closed form, with the per-role and
per-variant aggregates cached across designs."""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.availability import product_form
from repro.availability.aggregation import ServiceAggregate, aggregate_service
from repro.availability.heterogeneous import HeterogeneousAvailabilityModel
from repro.availability.network import NetworkAvailabilityModel
from repro.enterprise.casestudy import EnterpriseCaseStudy
from repro.enterprise.design import DesignSpec
from repro.enterprise.heterogeneous import (
    HeterogeneousDesign,
    check_design_kind as _check_spec_kind,
)
from repro.enterprise.roles import ServerRole
from repro.patching.policy import PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = ["AvailabilityEvaluator", "design_tiers"]


def design_tiers(
    design: DesignSpec,
) -> list[tuple[str, list[tuple[ServerRole | None, int]]]]:
    """The server groups of *design*, per tier: ``(role, [(variant,
    count), ...])``.

    *variant* is ``None`` for a homogeneous role.  Tiers are sorted by
    role and groups by variant name, so equal designs map onto the same
    order whatever their insertion order, and a single-variant-per-role
    heterogeneous design onto the same tiers and counts as its
    homogeneous twin.
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
    _check_spec_kind(design)
    return [(role, [(None, count)]) for role, count in sorted(design.counts.items())]


class AvailabilityEvaluator:
    """Compute COA and related availability measures for designs.

    Accepts any :class:`~repro.enterprise.design.DesignSpec`.  The
    expensive part — solving each stack's lower-layer SRN and
    aggregating it into (lambda_eq, mu_eq) — depends only on the stack
    and the patch policy, not on the replica counts, so aggregates are
    cached per role (homogeneous designs) and per variant (heterogeneous
    designs) and reused across every design the evaluator scores.

    The upper-layer COA — steady, transient and under a staged
    campaign — comes from the closed form of
    :mod:`repro.availability.product_form`, which needs no state space.
    :meth:`network_model` builds the paper's upper-layer SRN, which
    stays the oracle and serves the measures the closed form does not
    cover (system availability, time to outage).

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
        self._aggregates: dict[str, ServiceAggregate] = {}
        self._variant_aggregates: dict[tuple[str, ServerRole], ServiceAggregate] = {}
        self._aggregate_solves = 0

    # -- per-role aggregation (Table V) ------------------------------------

    def aggregate(self, role: str) -> ServiceAggregate:
        """The (cached) Table V row for *role*."""
        if role not in self._aggregates:
            parameters = self.case_study.server_parameters(role, self.policy)
            self._aggregate_solves += 1
            self._aggregates[role] = aggregate_service(parameters)
        return self._aggregates[role]

    def variant_aggregate(
        self, variant: ServerRole, role: str | None = None
    ) -> ServiceAggregate:
        """The (cached) lower-layer aggregate for a variant stack.

        *role* is the tier the variant serves; it only matters for
        component-rate override lookup (variant name first, then role).
        """
        key = (role or "", variant)
        if key not in self._variant_aggregates:
            parameters = self.case_study.variant_parameters(
                variant, self.policy, database=self.database, role=role
            )
            self._aggregate_solves += 1
            self._variant_aggregates[key] = aggregate_service(parameters)
        return self._variant_aggregates[key]

    def aggregates_for(self, design: DesignSpec) -> dict[str, ServiceAggregate]:
        """Aggregates for every role (or variant) the design uses."""
        if isinstance(design, HeterogeneousDesign):
            return {
                variant.name: self.variant_aggregate(variant, role)
                for role in design.roles
                for variant in design.variants(role)
            }
        _check_spec_kind(design)
        return {role: self.aggregate(role) for role in design.roles}

    def prime_aggregates(
        self,
        roles: Mapping[str, ServiceAggregate] | None = None,
        variants: Mapping[tuple[str, ServerRole], ServiceAggregate] | None = None,
    ) -> None:
        """Seed the aggregate caches with already-solved Table V rows.

        Used by the process-pool sweep: the parent solves the
        lower-layer SRNs once and ships the rows to pool workers, which
        prime their evaluators instead of re-solving.
        """
        if roles:
            self._aggregates.update(roles)
        if variants:
            self._variant_aggregates.update(variants)

    def _tiers(self, design: DesignSpec) -> list[list[product_form.Group]]:
        """``(count, lambda_eq, mu_eq)`` per server group, per tier."""
        tiers = []
        for role, groups in design_tiers(design):
            tier = []
            for variant, count in groups:
                aggregate = (
                    self.aggregate(role)
                    if variant is None
                    else self.variant_aggregate(variant, role)
                )
                tier.append((count, aggregate.patch_rate, aggregate.recovery_rate))
            tiers.append(tier)
        return tiers

    # -- per-design measures ------------------------------------------------

    def network_model(
        self, design: DesignSpec
    ) -> NetworkAvailabilityModel | HeterogeneousAvailabilityModel:
        """The upper-layer SRN model for *design*, per spec kind."""
        if isinstance(design, HeterogeneousDesign):
            return HeterogeneousAvailabilityModel(
                design.tiers(), self.aggregates_for(design)
            )
        _check_spec_kind(design)
        return NetworkAvailabilityModel(design.counts, self.aggregates_for(design))

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
        servers, for any design kind (per-spec-kind model dispatch)."""
        from repro.availability.survivability import mean_time_to_outage

        return mean_time_to_outage(self.network_model(design))

    # -- instrumentation ------------------------------------------------------

    @property
    def solve_stats(self) -> dict[str, int]:
        """Counters for the benchmarks: lower-layer aggregate solves."""
        return {"aggregate_solves": self._aggregate_solves}
