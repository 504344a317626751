"""Tests for the one-exploration server-net solver.

``solve(build_server_srn(p))`` — one exploration and one steady-state
solve per parameter set — is the oracle: the solver must match it bit
for bit on rates, probabilities and the Eq. (1)-(2) aggregates, for any
Table IV rates and every pair of patch-failure flags.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.availability import (
    ComponentRates,
    PatchPipeline,
    ServerNetSolver,
    ServerParameters,
    aggregate_service,
    aggregate_services,
    build_server_srn,
    paper_server_parameters,
    solve_server,
)
from repro.availability.server import SERVICE_PATCH_DOWN_PLACES
from repro.errors import ValidationError
from repro.srn import solve
from repro.srn.reachability import exploration_count

FLAGS = [(hw, sw) for hw in (True, False) for sw in (True, False)]

positive = st.floats(min_value=1e-4, max_value=1e3, allow_nan=False)

component_rates = st.builds(
    ComponentRates,
    hardware_failure=positive,
    hardware_repair=positive,
    os_failure=positive,
    os_repair=positive,
    os_reboot=positive,
    service_failure=positive,
    service_repair=positive,
    service_reboot=positive,
)
patch_pipelines = st.builds(
    PatchPipeline,
    service_patch=positive,
    os_patch=positive,
    os_patch_reboot=positive,
    service_patch_reboot=positive,
)
stacks = st.lists(
    st.builds(
        ServerParameters,
        name=st.sampled_from(["dns", "web", "app", "db"]),
        rates=component_rates,
        patch=patch_pipelines,
        patch_interval_hours=st.floats(min_value=1.0, max_value=1e4),
    ),
    min_size=1,
    max_size=4,
)


def _oracle_row(parameters, solution):
    """Eqs. (1)-(2) on a solution, as ``probability_of`` measures them."""
    patch_down = solution.probability_of(
        lambda m: any(m[place] == 1 for place in SERVICE_PATCH_DOWN_PLACES)
    )
    ready = solution.probability_of(
        lambda m: m["Psvcrrb"] == 1 and m["Posup"] == 1 and m["Phwup"] == 1
    )
    recovery = parameters.patch.service_patch_reboot * ready / patch_down
    return patch_down, ready, parameters.patch_clock_rate, recovery


class TestAgainstPerNetSolve:
    @given(stacks)
    @settings(max_examples=20, deadline=None)
    def test_random_stacks_every_flag_pair(self, parameters):
        for hardware, software in FLAGS:
            flags = {
                "hardware_can_fail_during_patch": hardware,
                "software_can_fail_during_patch": software,
            }
            solutions = ServerNetSolver(**flags).solve(parameters)
            rows = aggregate_services(ServerNetSolver(**flags), parameters)
            for p, solution, row in zip(parameters, solutions, rows):
                reference = solve(build_server_srn(p, **flags))
                assert solution.markings == reference.markings
                assert list(solution.graph.rates.items()) == list(
                    reference.graph.rates.items()
                )
                assert np.array_equal(
                    solution.probabilities, reference.probabilities
                )
                patch_down, ready, patch_rate, recovery = _oracle_row(p, reference)
                assert row.name == p.name
                assert row.measures.patch_down == patch_down
                assert row.measures.patch_ready_to_reboot == ready
                assert row.patch_rate == patch_rate
                assert row.recovery_rate == recovery

    def test_one_stack_cases_match(self):
        for parameters in paper_server_parameters().values():
            for hardware, software in FLAGS:
                reference = solve(build_server_srn(parameters, hardware, software))
                solution = solve_server(parameters, hardware, software)
                assert np.array_equal(solution.probabilities, reference.probabilities)
                row = aggregate_service(parameters, hardware, software)
                assert (row.patch_rate, row.recovery_rate) == _oracle_row(
                    parameters, reference
                )[2:]


class TestOneExploration:
    def test_many_calls_share_one_exploration(self):
        solver = ServerNetSolver()
        parameters = list(paper_server_parameters().values())
        before = exploration_count()
        first = solver.solve(parameters[:1])
        rest = solver.solve(parameters[1:])
        assert exploration_count() - before == 1
        assert len(first) + len(rest) == 4

    def test_stack_order_does_not_change_results(self):
        parameters = list(paper_server_parameters().values())
        forward = ServerNetSolver().steady_states(parameters)[1]
        backward = ServerNetSolver().steady_states(parameters[::-1])[1]
        assert np.array_equal(forward, backward[::-1])

    def test_empty_stack_list_rejected(self):
        with pytest.raises(ValidationError):
            ServerNetSolver().steady_states([])
