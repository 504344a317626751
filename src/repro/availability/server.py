"""Lower-layer SRN sub-models for one server (the paper's Fig. 5).

Four interacting sub-models share one net:

hardware
    ``Phwup <-> Phwd`` with failure/repair rates.
OS
    up, failed (+ reboot stage), down-due-to-hardware, and the patch
    pipeline stages ready-to-patch (``Posrp``) and patched (``Posp``).
service
    up, failed (+ reboot stage), down-due-to-hardware-or-OS, and the
    patch stages ``Psvcrp`` (patching), ``Psvcp`` (patched, waiting for
    the OS patch) and ``Psvcrrb`` (ready to reboot).
patch clock
    ``Pclock -> Pdue -> Ptrigger -> Pclock``: the monthly interval fires
    ``Tinterval``; ``Tpolicy`` releases the patch only while the service
    is up; ``Treset`` restarts the clock when the OS patch completes.

Guard functions follow Table III.  Two deliberate interpretation choices
are documented here because the paper's figure is not machine-readable:

1. ``gpolicy`` is implemented as ``#Psvcup == 1`` following the text
   ("the immediate transition Tpolicy is fired when the service is up");
   Table III prints ``#Psvcp == 1``, which would deadlock the pipeline.
2. Failure recovery of OS and service is two-stage (repair, then
   reboot-after-failure), matching the two distinct rates of Table IV.

The patch pipeline is strictly sequential — service patch, OS patch
(triggered by ``gosptrig: #Psvcp == 1``), OS reboot, service reboot
(guarded by ``#Posup == 1``) — which reproduces the Table V aggregate
recovery rates.

Every role runs this one net; only the Table IV rates differ.  No guard
and no immediate weight reads a rate, so all parameter sets share one
reachability graph and one vanishing elimination.
:class:`ServerNetSolver` therefore explores the net once and solves any
number of :class:`~repro.availability.parameters.ServerParameters`
against that graph; :func:`solve_server` is its one-stack case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.availability.parameters import ServerParameters
from repro.ctmc.steady import BatchSteadySolver
from repro.errors import ValidationError
from repro.srn import Marking, SrnSolution, StochasticRewardNet
from repro.srn.reachability import ReachabilityGraph, explore

__all__ = [
    "build_server_srn",
    "solve_server",
    "ServerNetSolver",
    "SERVICE_PATCH_DOWN_PLACES",
]

#: Places in which the service is down because of the patch pipeline.
SERVICE_PATCH_DOWN_PLACES = ("Psvcrp", "Psvcp", "Psvcrrb")


def build_server_srn(
    parameters: ServerParameters,
    hardware_can_fail_during_patch: bool = True,
    software_can_fail_during_patch: bool = True,
) -> StochasticRewardNet:
    """Build the four-sub-model SRN for one server.

    Parameters
    ----------
    parameters:
        Rates and patch pipeline (see Table IV).
    hardware_can_fail_during_patch:
        Table III models hardware failure during patch states (the
        ``gosrpd``/``gospd``/``gsvcrpd``/``gsvcrrbd`` guards exist for
        exactly that), so the default is True.  Setting False enforces
        the stricter prose assumption "hardware will not fail during the
        patch period".
    software_can_fail_during_patch:
        If False, the OS cannot fail while the service patch pipeline is
        active (strict reading of "there are no software failures during
        the patch period").
    """
    net = StochasticRewardNet(f"server-{parameters.name}")
    rates = parameters.rates
    patch = parameters.patch

    # -- places ----------------------------------------------------------
    net.add_place("Phwup", tokens=1)
    net.add_place("Phwd")

    net.add_place("Posup", tokens=1)
    net.add_place("Posfd")   # failed, under repair
    net.add_place("Posfrb")  # repaired, rebooting after failure
    net.add_place("Posd")    # down because the hardware is down
    net.add_place("Posrp")   # OS patch in progress
    net.add_place("Posp")    # OS patched, before the merged reboot

    net.add_place("Psvcup", tokens=1)
    net.add_place("Psvcfd")   # failed, under repair
    net.add_place("Psvcfrb")  # repaired, rebooting after failure
    net.add_place("Psvcd")    # down because hardware or OS is down
    net.add_place("Psvcrp")   # application patch in progress
    net.add_place("Psvcp")    # application patched, OS patch pending
    net.add_place("Psvcrrb")  # ready to reboot after the OS patch

    net.add_place("Pclock", tokens=1)
    net.add_place("Pdue")
    net.add_place("Ptrigger")

    # -- guard functions (Table III) ---------------------------------------
    def hw_up(m: Marking) -> bool:
        return m["Phwup"] == 1

    def hw_down(m: Marking) -> bool:
        return m["Phwd"] == 1

    def hw_or_os_down(m: Marking) -> bool:
        return m["Phwd"] == 1 or m["Posfd"] == 1

    def hw_and_os_up(m: Marking) -> bool:
        return m["Phwup"] == 1 and m["Posup"] == 1

    def g_osptrig(m: Marking) -> bool:  # gosptrig
        return m["Psvcp"] == 1

    def g_svcptrig(m: Marking) -> bool:  # gsvcptrig
        return m["Ptrigger"] == 1

    def g_svcrrb(m: Marking) -> bool:  # gsvcrrb
        return m["Posp"] == 1

    def g_interval(m: Marking) -> bool:  # ginterval
        return m["Psvcup"] == 1 or m["Psvcd"] == 1 or m["Psvcfd"] == 1

    def g_policy(m: Marking) -> bool:  # gpolicy (text reading, see module doc)
        return m["Psvcup"] == 1

    def g_reset(m: Marking) -> bool:  # greset
        return m["Posp"] == 1

    def patch_pipeline_idle(m: Marking) -> bool:
        return (
            m["Psvcrp"] == 0
            and m["Psvcp"] == 0
            and m["Psvcrrb"] == 0
            and m["Posrp"] == 0
            and m["Posp"] == 0
        )

    # -- hardware sub-model -------------------------------------------------
    hw_fail_guard = None if hardware_can_fail_during_patch else patch_pipeline_idle
    net.add_timed_transition("Thwd", rate=rates.hardware_failure, guard=hw_fail_guard)
    net.add_arc("Phwup", "Thwd")
    net.add_arc("Thwd", "Phwd")
    net.add_timed_transition("Thwup", rate=rates.hardware_repair)
    net.add_arc("Phwd", "Thwup")
    net.add_arc("Thwup", "Phwup")

    # -- OS sub-model ----------------------------------------------------------
    os_fail_guard = None if software_can_fail_during_patch else patch_pipeline_idle
    net.add_timed_transition("Tosfd", rate=rates.os_failure, guard=os_fail_guard)
    net.add_arc("Posup", "Tosfd")
    net.add_arc("Tosfd", "Posfd")

    net.add_timed_transition("Tosfup", rate=rates.os_repair, guard=hw_up)  # gosfup
    net.add_arc("Posfd", "Tosfup")
    net.add_arc("Tosfup", "Posfrb")
    net.add_timed_transition("Tosfrb", rate=rates.os_reboot, guard=hw_up)
    net.add_arc("Posfrb", "Tosfrb")
    net.add_arc("Tosfrb", "Posup")

    net.add_immediate_transition("Tosd", guard=hw_down)  # gosd
    net.add_arc("Posup", "Tosd")
    net.add_arc("Tosd", "Posd")
    net.add_timed_transition("Tosdrb", rate=rates.os_reboot, guard=hw_up)  # gosdrb
    net.add_arc("Posd", "Tosdrb")
    net.add_arc("Tosdrb", "Posup")

    net.add_immediate_transition("Tosptrig", guard=g_osptrig)  # gosptrig
    net.add_arc("Posup", "Tosptrig")
    net.add_arc("Tosptrig", "Posrp")
    net.add_timed_transition("Tosp", rate=patch.os_patch, guard=hw_up)  # gosp
    net.add_arc("Posrp", "Tosp")
    net.add_arc("Tosp", "Posp")
    net.add_timed_transition(
        "Tosprb", rate=patch.os_patch_reboot, guard=hw_up  # gosprb
    )
    net.add_arc("Posp", "Tosprb")
    net.add_arc("Tosprb", "Posup")

    net.add_immediate_transition("Tosrpd", guard=hw_down)  # gosrpd
    net.add_arc("Posrp", "Tosrpd")
    net.add_arc("Tosrpd", "Posd")
    net.add_immediate_transition("Tospd", guard=hw_down)  # gospd
    net.add_arc("Posp", "Tospd")
    net.add_arc("Tospd", "Posd")

    # -- service sub-model ---------------------------------------------------------
    net.add_timed_transition("Tsvcfd", rate=rates.service_failure)
    net.add_arc("Psvcup", "Tsvcfd")
    net.add_arc("Tsvcfd", "Psvcfd")

    net.add_timed_transition(
        "Tsvcfup", rate=rates.service_repair, guard=hw_and_os_up  # gsvcfup
    )
    net.add_arc("Psvcfd", "Tsvcfup")
    net.add_arc("Tsvcfup", "Psvcfrb")
    net.add_timed_transition("Tsvcfrb", rate=rates.service_reboot, guard=hw_and_os_up)
    net.add_arc("Psvcfrb", "Tsvcfrb")
    net.add_arc("Tsvcfrb", "Psvcup")

    net.add_immediate_transition("Tsvcd", guard=hw_or_os_down)  # gsvcd
    net.add_arc("Psvcup", "Tsvcd")
    net.add_arc("Tsvcd", "Psvcd")
    net.add_timed_transition(
        "Tsvcdrb", rate=rates.service_reboot, guard=hw_and_os_up  # gsvcdrb
    )
    net.add_arc("Psvcd", "Tsvcdrb")
    net.add_arc("Tsvcdrb", "Psvcup")

    net.add_immediate_transition("Tsvcptrig", guard=g_svcptrig)  # gsvcptrig
    net.add_arc("Psvcup", "Tsvcptrig")
    net.add_arc("Tsvcptrig", "Psvcrp")
    net.add_timed_transition(
        "Tsvcp", rate=patch.service_patch, guard=hw_and_os_up  # gsvcp
    )
    net.add_arc("Psvcrp", "Tsvcp")
    net.add_arc("Tsvcp", "Psvcp")

    net.add_immediate_transition("Tsvcrrb", guard=g_svcrrb)  # gsvcrrb
    net.add_arc("Psvcp", "Tsvcrrb")
    net.add_arc("Tsvcrrb", "Psvcrrb")
    net.add_timed_transition(
        "Tsvcprb", rate=patch.service_patch_reboot, guard=hw_and_os_up  # gsvcprb
    )
    net.add_arc("Psvcrrb", "Tsvcprb")
    net.add_arc("Tsvcprb", "Psvcup")

    net.add_immediate_transition("Tsvcrpd", guard=hw_or_os_down)  # gsvcrpd
    net.add_arc("Psvcrp", "Tsvcrpd")
    net.add_arc("Tsvcrpd", "Psvcd")
    net.add_immediate_transition("Tsvcrrbd", guard=hw_or_os_down)  # gsvcrrbd
    net.add_arc("Psvcrrb", "Tsvcrrbd")
    net.add_arc("Tsvcrrbd", "Psvcd")

    # -- patch clock --------------------------------------------------------------
    net.add_timed_transition(
        "Tinterval", rate=parameters.patch_clock_rate, guard=g_interval  # ginterval
    )
    net.add_arc("Pclock", "Tinterval")
    net.add_arc("Tinterval", "Pdue")
    net.add_immediate_transition("Tpolicy", guard=g_policy)  # gpolicy
    net.add_arc("Pdue", "Tpolicy")
    net.add_arc("Tpolicy", "Ptrigger")
    net.add_immediate_transition("Treset", guard=g_reset)  # greset
    net.add_arc("Ptrigger", "Treset")
    net.add_arc("Treset", "Pclock")

    return net


class ServerNetSolver:
    """Steady states of the server SRN for many parameter stacks, over
    one exploration.

    The first call explores :func:`build_server_srn` of its first stack
    under this solver's patch-failure flags.  Every stack, that one
    included, then gets its rates read off the transitions of its own
    net and re-weighted over the one graph
    (:meth:`~repro.srn.reachability.ReachabilityGraph.reweighted`): each
    eliminated rate is a fixed sum of timed rate times branching
    probability.  The stacks of one call are solved together, in one
    stacked GTH (:meth:`~repro.ctmc.steady.BatchSteadySolver.solve`), and
    every result is bit-identical to ``solve(build_server_srn(p))``.

    Parameters
    ----------
    hardware_can_fail_during_patch, software_can_fail_during_patch:
        The flags of :func:`build_server_srn`; one solver covers one
        pair, since the flags change the guards and so the graph.
    """

    def __init__(
        self,
        hardware_can_fail_during_patch: bool = True,
        software_can_fail_during_patch: bool = True,
    ) -> None:
        self._flags = {
            "hardware_can_fail_during_patch": hardware_can_fail_during_patch,
            "software_can_fail_during_patch": software_can_fail_during_patch,
        }
        self._graph: ReachabilityGraph | None = None
        self._steady: BatchSteadySolver | None = None

    def steady_states(
        self, stacks: Sequence[ServerParameters]
    ) -> tuple[tuple[Marking, ...], np.ndarray]:
        """The tangible markings and one steady-state row per stack."""
        rates = self._rates(stacks)
        return self._graph.tangible, self._solve(rates)

    def solve(self, stacks: Sequence[ServerParameters]) -> list[SrnSolution]:
        """One full solution per stack, equal to
        ``solve(build_server_srn(p))`` for each stack ``p``."""
        rates = self._rates(stacks)
        solutions = []
        for stack_rates, probabilities in zip(rates, self._solve(rates)):
            graph = replace(self._graph, rates=stack_rates)
            solutions.append(
                SrnSolution(
                    graph=graph, chain=graph.to_ctmc(), probabilities=probabilities
                )
            )
        return solutions

    def _rates(
        self, stacks: Sequence[ServerParameters]
    ) -> list[dict[tuple[int, int], float]]:
        """Each stack's effective tangible rates, over the one graph."""
        if not stacks:
            raise ValidationError("no server parameter stacks to solve")
        nets = [build_server_srn(parameters, **self._flags) for parameters in stacks]
        if self._graph is None:
            graph = explore(nets[0])
            n = graph.number_of_states
            # Every key a term can produce, so no stack leaves the pattern.
            pattern = [
                (int(key) // n, int(key) % n)
                for key in np.unique(graph.term_keys)
                if key // n != key % n
            ]
            self._graph, self._steady = graph, BatchSteadySolver(n, pattern)
        return [self._graph.reweighted(self._graph.edge_rates(net)) for net in nets]

    def _solve(self, rates: list[dict[tuple[int, int], float]]) -> np.ndarray:
        pattern = self._steady.pattern
        return self._steady.solve(
            [[stack.get(pair, 0.0) for pair in pattern] for stack in rates]
        )


def solve_server(
    parameters: ServerParameters,
    hardware_can_fail_during_patch: bool = True,
    software_can_fail_during_patch: bool = True,
) -> SrnSolution:
    """Build and solve the server SRN for its steady state: the
    one-stack case of :class:`ServerNetSolver`."""
    solver = ServerNetSolver(
        hardware_can_fail_during_patch=hardware_can_fail_during_patch,
        software_can_fail_during_patch=software_can_fail_during_patch,
    )
    return solver.solve([parameters])[0]
