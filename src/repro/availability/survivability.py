"""Survivability extensions of the network availability model.

Two questions beyond the paper's steady-state COA:

- **time to first outage**: starting from all servers up, the expected
  time until some service tier first has zero running servers (the
  system-down condition of the Table VI reward).  Computed by making the
  outage markings absorbing and solving for the mean time to absorption.
- **transient COA**: the expected Table VI reward as a function of time
  from a given starting marking (uniformisation), showing how quickly
  the patch process erodes and restores capacity.

Both read the :class:`~repro.availability.network.NetworkAvailabilityModel`
as tiers of server groups: a tier is down only when *every* one of its
groups (one for a homogeneous role, one per variant in a diverse tier)
has zero running servers.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.availability.coa import up_place
from repro.availability.network import NetworkAvailabilityModel
from repro.ctmc import make_absorbing, mean_time_to_absorption
from repro.errors import EvaluationError
from repro.srn import Marking

__all__ = ["mean_time_to_outage", "transient_coa"]


def _is_outage(
    marking: Marking, tiers: Mapping[str, Mapping[str, int]]
) -> bool:
    return any(
        sum(marking[up_place(group)] for group in groups) == 0
        for groups in tiers.values()
    )


def mean_time_to_outage(model: NetworkAvailabilityModel) -> float:
    """Expected hours from all-up until some tier first loses all servers.

    Patch downs are short and independent, so for redundant designs this
    is dominated by the rare coincidence of every replica of one tier
    being patched at once.  A tier of several variant groups survives
    while *any* of its groups keeps a server up.
    """
    tiers = model.tiers
    solution = model.solve()
    chain = make_absorbing(
        solution.chain, lambda marking: _is_outage(marking, tiers)
    )
    all_up = next(
        (
            marking
            for marking in solution.markings
            if all(
                marking[up_place(group)] == capacity
                for groups in tiers.values()
                for group, capacity in groups.items()
            )
        ),
        None,
    )
    if all_up is None:
        raise EvaluationError("no all-up marking found in the state space")
    return float(mean_time_to_absorption(chain, start=all_up))


def transient_coa(
    model: NetworkAvailabilityModel, times: Sequence[float]
) -> np.ndarray:
    """Expected COA at each time, starting from the all-up marking.

    The whole time grid is served from one uniformisation pass.
    """
    if any(t < 0 for t in times):
        raise EvaluationError("times must be non-negative")
    return model.transient_coa(times)
