"""The all-pairs Pareto front: the oracle of the vectorized sweep.

:func:`repro.evaluation.sweep.pareto_front` sorts once and keeps a
design iff no other design is at least as good on both axes and
strictly better on one; this checks every pair, one at a time.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.evaluation.combined import DesignEvaluation


def pareto_front_loop(
    evaluations: Iterable[DesignEvaluation],
    after_patch: bool = True,
) -> list[DesignEvaluation]:
    """Reference all-pairs Pareto front (the :func:`pareto_front` oracle)."""
    pool = list(evaluations)

    def axes(evaluation: DesignEvaluation) -> tuple[float, float]:
        snapshot = evaluation.after if after_patch else evaluation.before
        return (snapshot.security.attack_success_probability, snapshot.coa)

    front = []
    for candidate in pool:
        asp_c, coa_c = axes(candidate)
        dominated = False
        for other in pool:
            if other is candidate:
                continue
            asp_o, coa_o = axes(other)
            if (
                asp_o <= asp_c
                and coa_o >= coa_c
                and (asp_o < asp_c or coa_o > coa_c)
            ):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front
