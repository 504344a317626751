"""Steady-state measures extracted from the server SRN.

These are the probabilities the paper feeds into Eqs. (1)-(2):
``p_svcup`` (service running), ``p_svcpd`` (service down due to patch:
token in any patch-pipeline place) and ``p_svcprrb`` (final
service-reboot stage enabled, i.e. token in ``Psvcrrb`` with hardware
and OS up).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.srn import Marking, SrnSolution
from repro.availability.server import SERVICE_PATCH_DOWN_PLACES

__all__ = ["ServerMeasures", "compute_measures", "steady_measures"]


@dataclass(frozen=True)
class ServerMeasures:
    """Steady-state probabilities of one server's SRN."""

    service_up: float
    patch_down: float
    patch_ready_to_reboot: float
    service_failed: float
    hardware_down: float
    os_not_up: float

    @property
    def availability(self) -> float:
        """Plain service availability, P(service up)."""
        return self.service_up


def _in_patch_pipeline(marking: Marking) -> bool:
    return any(marking[place] == 1 for place in SERVICE_PATCH_DOWN_PLACES)


#: Each :class:`ServerMeasures` field and the markings it sums over.
_MEASURES = {
    "service_up": lambda m: m["Psvcup"] == 1,
    "patch_down": _in_patch_pipeline,
    "patch_ready_to_reboot": (
        lambda m: m["Psvcrrb"] == 1 and m["Posup"] == 1 and m["Phwup"] == 1
    ),
    "service_failed": lambda m: m["Psvcfd"] == 1,
    "hardware_down": lambda m: m["Phwd"] == 1,
    "os_not_up": lambda m: m["Posup"] == 0,
}


def compute_measures(solution: SrnSolution) -> ServerMeasures:
    """Extract :class:`ServerMeasures` from a solved server SRN."""
    return steady_measures(solution.markings, solution.probabilities[np.newaxis])[0]


def steady_measures(
    markings: Sequence[Marking], probabilities: np.ndarray
) -> list[ServerMeasures]:
    """:class:`ServerMeasures` of each steady-state row over *markings*.

    Each measure is one dot product of a row with a 0/1 indicator of
    the markings, as :meth:`~repro.srn.SrnSolution.probability_of`
    computes it.
    """
    indicators = {
        name: np.fromiter(
            (float(bool(holds(marking))) for marking in markings),
            dtype=float,
            count=len(markings),
        )
        for name, holds in _MEASURES.items()
    }
    return [
        ServerMeasures(
            **{name: float(row @ indicator) for name, indicator in indicators.items()}
        )
        for row in probabilities
    ]
