"""One-at-a-time sensitivity analysis of the availability pipeline.

Scales one model parameter at a time (patch interval, per-stage patch
durations, reboot durations, failure rates) and reports the COA swing —
the tornado-chart data an administrator uses to see which lever actually
moves availability.

All perturbations of a scan share net *structure* — only rate values
change — so the whole tornado needs two explorations.  Every role under
every perturbation runs the one server SRN, so the lower layer is one
:class:`~repro.availability.server.ServerNetSolver` call: one
exploration and one stacked steady-state solve for all of them.  The
upper-layer network SRNs of the scenarios go through
:func:`repro.srn.solve_family`, which explores once and re-evaluates
rates on the stored tangible markings.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from repro.availability.aggregation import aggregate_services
from repro.availability.coa import coa_reward
from repro.availability.network import NetworkAvailabilityModel
from repro.availability.parameters import ServerParameters
from repro.availability.server import ServerNetSolver
from repro.enterprise.casestudy import EnterpriseCaseStudy
from repro.enterprise.design import RedundancyDesign
from repro.errors import EvaluationError
from repro.patching.policy import PatchPolicy
from repro.srn import solve_family

__all__ = ["SensitivityEntry", "coa_sensitivity", "PARAMETERS"]

Scaler = Callable[[ServerParameters, float], ServerParameters]


def _scale_interval(params: ServerParameters, factor: float) -> ServerParameters:
    return params.with_patch_interval(params.patch_interval_hours * factor)


def _scale_patch_durations(params: ServerParameters, factor: float) -> ServerParameters:
    # durations scale by factor <=> rates scale by 1/factor
    patch = replace(
        params.patch,
        service_patch=params.patch.service_patch / factor,
        os_patch=params.patch.os_patch / factor,
    )
    return replace(params, patch=patch)


def _scale_reboots(params: ServerParameters, factor: float) -> ServerParameters:
    patch = replace(
        params.patch,
        os_patch_reboot=params.patch.os_patch_reboot / factor,
        service_patch_reboot=params.patch.service_patch_reboot / factor,
    )
    return replace(params, patch=patch)


def _scale_software_failures(
    params: ServerParameters, factor: float
) -> ServerParameters:
    rates = replace(
        params.rates,
        os_failure=params.rates.os_failure * factor,
        service_failure=params.rates.service_failure * factor,
    )
    return replace(params, rates=rates)


def _scale_hardware_failures(
    params: ServerParameters, factor: float
) -> ServerParameters:
    rates = replace(
        params.rates, hardware_failure=params.rates.hardware_failure * factor
    )
    return replace(params, rates=rates)


#: Parameter name -> scaler, in reporting order.
PARAMETERS: dict[str, Scaler] = {
    "patch_interval": _scale_interval,
    "patch_durations": _scale_patch_durations,
    "reboot_durations": _scale_reboots,
    "software_failure_rate": _scale_software_failures,
    "hardware_failure_rate": _scale_hardware_failures,
}


@dataclass(frozen=True)
class SensitivityEntry:
    """COA under low/baseline/high scaling of one parameter."""

    parameter: str
    low_factor: float
    high_factor: float
    coa_low: float
    coa_baseline: float
    coa_high: float

    @property
    def swing(self) -> float:
        """Absolute COA range across the scan."""
        values = (self.coa_low, self.coa_baseline, self.coa_high)
        return max(values) - min(values)


def coa_sensitivity(
    case_study: EnterpriseCaseStudy,
    design: RedundancyDesign,
    policy: PatchPolicy,
    parameters: Sequence[str] | None = None,
    low: float = 0.5,
    high: float = 2.0,
) -> list[SensitivityEntry]:
    """Tornado data: COA under one-at-a-time parameter scalings.

    Every role's parameter is scaled together (e.g. all patch intervals
    double at once), matching how an administrator would turn the knob.
    """
    if low <= 0 or high <= 0:
        raise EvaluationError("scaling factors must be > 0")
    names = list(parameters) if parameters is not None else list(PARAMETERS)
    for name in names:
        if name not in PARAMETERS:
            raise EvaluationError(
                f"unknown parameter {name!r}; choose from {sorted(PARAMETERS)}"
            )

    # One scenario per solve: the baseline plus (parameter, factor) pairs.
    scenarios: list[tuple[Scaler | None, float]] = [(None, 1.0)]
    scenarios.extend(
        (PARAMETERS[name], factor) for name in names for factor in (low, high)
    )

    # Lower layer: every (scenario, role) stack runs the one server SRN,
    # so the whole scan is one solver call.
    base_params = {
        role: case_study.server_parameters(role, policy)
        for role in design.roles
    }
    stacks = [
        params if scaler is None else scaler(params, factor)
        for scaler, factor in scenarios
        for params in base_params.values()
    ]
    rows = aggregate_services(ServerNetSolver(), stacks)
    roles = list(base_params)
    scenario_aggregates = [
        dict(zip(roles, rows[start : start + len(roles)]))
        for start in range(0, len(rows), len(roles))
    ]

    # Upper layer: one network SRN per scenario, identical structure —
    # explore once, re-rate per scenario, batch-solve the steady states.
    upper_nets = [
        NetworkAvailabilityModel(design.counts, aggregates).build_srn()
        for aggregates in scenario_aggregates
    ]
    reward = coa_reward(design.counts)
    coas = [
        solution.expected_reward(reward)
        for solution in solve_family(upper_nets)
    ]

    baseline = coas[0]
    entries = []
    for position, name in enumerate(names):
        entries.append(
            SensitivityEntry(
                parameter=name,
                low_factor=low,
                high_factor=high,
                coa_low=coas[1 + 2 * position],
                coa_baseline=baseline,
                coa_high=coas[2 + 2 * position],
            )
        )
    entries.sort(key=lambda entry: entry.swing, reverse=True)
    return entries
