"""Continuous-time Markov chain engine.

:class:`Ctmc` wraps a labelled infinitesimal generator; solvers compute
steady-state distributions (:func:`steady_state` and
:class:`BatchSteadySolver` share one GTH / direct / iterative size
ladder; the batch solver takes a stack of rate vectors and eliminates
small chains in one stacked GTH) and transient ones (exact uniformisation,
:class:`BatchTransientSolver`); :mod:`repro.ctmc.rewards`
evaluates expected reward rates (the SPNP-style output measures);
:mod:`repro.ctmc.aggregate` implements the Trivedi-style two-state
aggregation the paper uses in Eqs. (1)-(2); and
:mod:`repro.ctmc.birthdeath` provides closed-form birth-death chains used
for cross-validation.
"""

from repro.ctmc.absorbing import (
    absorption_probabilities,
    make_absorbing,
    mean_time_to_absorption,
)
from repro.ctmc.aggregate import TwoStateAggregate, aggregate_two_state
from repro.ctmc.birthdeath import birth_death_steady_state
from repro.ctmc.chain import Ctmc
from repro.ctmc.rewards import expected_reward_rate, reward_vector
from repro.ctmc.steady import (
    BatchSteadySolver,
    steady_state,
    steady_state_iterative,
)
from repro.ctmc.transient import (
    BatchTransientSolver,
    transient_distribution,
    transient_rewards,
)

__all__ = [
    "Ctmc",
    "steady_state",
    "steady_state_iterative",
    "BatchSteadySolver",
    "BatchTransientSolver",
    "transient_distribution",
    "transient_rewards",
    "expected_reward_rate",
    "reward_vector",
    "TwoStateAggregate",
    "aggregate_two_state",
    "birth_death_steady_state",
    "mean_time_to_absorption",
    "absorption_probabilities",
    "make_absorbing",
]
