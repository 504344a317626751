"""Eqs. (1)-(2): collapse a server SRN into equivalent patch/repair rates.

The upper-layer network model sees each server as a two-state chain:

    lambda_eq = tau_p                       (Eq. 1)
    mu_eq     = beta_svc * p_prrb / p_pd    (Eq. 2)

``lambda_eq`` is exactly the patch-clock rate because every up-state
leaves for the pipeline at rate tau_p.  ``mu_eq`` is the aggregate exit
rate of the patch-down macro-state: only its final stage (service ready
to reboot, hardware and OS up) returns to up, at the service reboot rate.

Table V of the paper is this module applied to the four server roles.
:func:`aggregate_services` solves any number of parameter stacks over
one :class:`~repro.availability.server.ServerNetSolver`, so they share
its one exploration and one stacked steady-state solve;
:func:`aggregate_service` is its one-stack case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.availability.measures import ServerMeasures, steady_measures
from repro.availability.parameters import ServerParameters
from repro.availability.server import ServerNetSolver
from repro.errors import EvaluationError

__all__ = ["ServiceAggregate", "aggregate_service", "aggregate_services"]


@dataclass(frozen=True)
class ServiceAggregate:
    """The Table V row for one service."""

    name: str
    patch_rate: float
    recovery_rate: float
    measures: ServerMeasures

    @property
    def mttp_hours(self) -> float:
        """Mean time to patch, ``1 / patch_rate`` (720 h in the paper)."""
        return 1.0 / self.patch_rate

    @property
    def mttr_hours(self) -> float:
        """Mean time to recovery from a patch, ``1 / recovery_rate``."""
        return 1.0 / self.recovery_rate

    @property
    def equivalent_availability(self) -> float:
        """Availability of the equivalent two-state chain."""
        return self.recovery_rate / (self.patch_rate + self.recovery_rate)


def aggregate_service(
    parameters: ServerParameters,
    hardware_can_fail_during_patch: bool = True,
    software_can_fail_during_patch: bool = True,
) -> ServiceAggregate:
    """Solve the server SRN for *parameters* and apply Eqs. (1)-(2)."""
    solver = ServerNetSolver(
        hardware_can_fail_during_patch=hardware_can_fail_during_patch,
        software_can_fail_during_patch=software_can_fail_during_patch,
    )
    return aggregate_services(solver, [parameters])[0]


def aggregate_services(
    solver: ServerNetSolver, stacks: Sequence[ServerParameters]
) -> list[ServiceAggregate]:
    """The Table V row of each stack, all solved together by *solver*.

    Each row carries its own stack's name; equal stacks under different
    names get equal numbers.
    """
    markings, probabilities = solver.steady_states(stacks)
    return [
        _aggregate(parameters, measures)
        for parameters, measures in zip(stacks, steady_measures(markings, probabilities))
    ]


def _aggregate(
    parameters: ServerParameters, measures: ServerMeasures
) -> ServiceAggregate:
    """Apply Eqs. (1)-(2) to one solved server SRN's measures."""
    if measures.patch_down <= 0.0:
        raise EvaluationError(
            f"server {parameters.name!r} never enters the patch pipeline; "
            "check the patch clock guard"
        )
    if measures.patch_ready_to_reboot <= 0.0:
        raise EvaluationError(
            f"server {parameters.name!r} never reaches the ready-to-reboot "
            "stage; the patch pipeline is broken"
        )
    patch_rate = parameters.patch_clock_rate  # Eq. (1)
    recovery_rate = (
        parameters.patch.service_patch_reboot
        * measures.patch_ready_to_reboot
        / measures.patch_down
    )  # Eq. (2)
    return ServiceAggregate(
        name=parameters.name,
        patch_rate=patch_rate,
        recovery_rate=recovery_rate,
        measures=measures,
    )
