"""The per-marking reward loop: the oracle of vectorized SRN rewards.

:meth:`repro.srn.SrnSolution.expected_reward` evaluates a reward once
per marking into a cached vector and reduces it with one dot product;
this sums ``probability * reward(marking)`` one marking at a time.
"""

from __future__ import annotations


def expected_reward_loop(solution, reward) -> float:
    """Reference loop of ``solution.expected_reward(reward)``.

    Like the vectorized path, the reward is only evaluated on markings
    with positive steady-state probability.
    """
    total = 0.0
    for marking, probability in zip(solution.markings, solution.probabilities):
        if probability > 0.0:
            total += probability * float(reward(marking))
    return total
