"""Stochastic reward net (SRN) engine — a pure-Python SPNP equivalent.

An SRN is a generalized stochastic Petri net extended with guard
functions, marking-dependent rates and reward functions.  The engine

1. builds the extended reachability graph from the initial marking,
2. classifies markings as *tangible* (only timed transitions enabled) or
   *vanishing* (some immediate transition enabled),
3. eliminates vanishing markings by the matrix method (handles immediate
   cycles; detects timeless traps),
4. hands the resulting CTMC to :mod:`repro.ctmc` for steady-state,
   transient and reward analysis (:func:`solve_family` solves
   vanishing-free nets that share one structure from a single
   exploration, and :meth:`ReachabilityGraph.reweighted` re-weights one
   explored graph for other rate values).

A discrete-event simulator (:mod:`repro.srn.simulate`) provides an
independent estimate used to cross-validate the analytic pipeline.
"""

from repro.srn.marking import Marking
from repro.srn.net import Place, StochasticRewardNet, Transition
from repro.srn.reachability import ReachabilityGraph, explore
from repro.srn.solver import (
    SrnSolution,
    family_signature,
    solve,
    solve_family,
)
from repro.srn.simulate import SimulationResult, simulate

__all__ = [
    "StochasticRewardNet",
    "Place",
    "Transition",
    "Marking",
    "ReachabilityGraph",
    "explore",
    "SrnSolution",
    "solve",
    "solve_family",
    "family_signature",
    "SimulationResult",
    "simulate",
]
