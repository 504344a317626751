"""Security rows of a chunk: one design read, plans shared per shape.

The chunk primitives read each design once and reduce the whole chunk's
security rows through :meth:`SecurityEvaluator.rows`.  Results must not
depend on how a space is cut into chunks, a failing chunk must raise
the error a design-by-design run meets first, and the registry counts
plans and rows.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.enterprise import (
    HeterogeneousDesign,
    RedundancyDesign,
    paper_variant_space,
    paper_variants,
)
from repro.enterprise.heterogeneous import design_tiers
from repro.errors import EvaluationError, ValidationError
from repro.evaluation import SecurityEvaluator
from repro.evaluation.combined import evaluate_designs_shared
from repro.evaluation.engine import SweepEngine
from repro.evaluation.sweep import enumerate_designs, enumerate_heterogeneous_designs
from repro.evaluation.timeline import default_time_grid, evaluate_timelines_shared
from repro.observability import REGISTRY, tracing
from repro.patching.campaign import PatchCampaign
from repro.vulnerability.diversity import diversity_database

DATABASE = diversity_database()
GOOD = RedundancyDesign({"dns": 1, "web": 2, "app": 2, "db": 1})
_VARIANTS = paper_variants()
#: A diverse design whose web variant's tree names a CVE no record has.
BAD_TREE = HeterogeneousDesign(
    {
        "dns": {_VARIANTS["dns_ms"]: 1},
        "web": {
            replace(
                _VARIANTS["web_apache"],
                name="web_bad",
                attack_tree_spec=("CVE-0000-0000",),
            ): 1
        },
        "db": {_VARIANTS["db_mysql"]: 1},
    }
)
NOSUCH = RedundancyDesign({"dns": 1, "nosuch": 1})
TREE_ERROR = (
    "HarmError: tree spec for 'web_bad1' names unknown vulnerabilities "
    "['CVE-0000-0000']"
)
ROLE_ERROR = "ValidationError: unknown role 'nosuch'"


def _reprs(results) -> list[str]:
    """Every field of every result, floats at full precision."""
    return [repr(result) for result in results]


@pytest.fixture(scope="module")
def space81():
    return list(enumerate_designs(["dns", "web", "app", "db"], 3))


class TestChunkInvariance:
    def test_sweep_rows_do_not_depend_on_chunk_size(
        self, case_study, critical_policy, space81
    ):
        runs = [
            _reprs(
                SweepEngine(
                    case_study=case_study, policy=critical_policy, chunk_size=size
                ).evaluate(space81)
            )
            for size in (1, 4, 81)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_variant_rows_do_not_depend_on_chunk_size(
        self, case_study, critical_policy
    ):
        space = list(
            enumerate_heterogeneous_designs(
                ["dns", "web", "app", "db"], paper_variant_space(), 2
            )
        )
        runs = [
            _reprs(
                SweepEngine(
                    case_study=case_study,
                    policy=critical_policy,
                    database=DATABASE,
                    chunk_size=size,
                ).evaluate(space)
            )
            for size in (1, 4, len(space))
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_timeline_rows_do_not_depend_on_chunk_size(
        self, case_study, critical_policy
    ):
        space = list(enumerate_designs(["dns", "web", "app"], 3))
        campaign = PatchCampaign.parse("canary:0.1:48:1,ramp:0.5:50%,fleet:1.0")
        times = default_time_grid(720.0, 12)
        runs = [
            _reprs(
                SweepEngine(
                    case_study=case_study, policy=critical_policy, chunk_size=size
                ).timeline(space, times, campaign=campaign)
            )
            for size in (1, 4, 27)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_chunk_rows_equal_one_design_calls(
        self, case_study, critical_policy, space81
    ):
        evaluator = SecurityEvaluator(case_study)
        rows = evaluator.rows(
            space81, [design_tiers(d) for d in space81], critical_policy
        )
        fresh = SecurityEvaluator(case_study)
        for design, (before, after) in zip(space81, rows):
            assert before == fresh.before_patch(design)
            assert after == fresh.after_patch(design, critical_policy)


class TestFailingChunks:
    """The first failure a design-by-design run meets, type and message."""

    @pytest.mark.parametrize(
        "chunk, error, failing, message",
        [
            ([GOOD, BAD_TREE], EvaluationError, BAD_TREE, TREE_ERROR),
            # Reading the chunk's designs comes first, so the unknown
            # role behind the bad tree wins.
            ([GOOD, BAD_TREE, NOSUCH], ValidationError, NOSUCH, ROLE_ERROR),
            ([NOSUCH, GOOD], ValidationError, NOSUCH, ROLE_ERROR),
        ],
        ids=["bad-tree", "bad-tree-then-unknown-role", "unknown-role-first"],
    )
    @pytest.mark.parametrize("kind", ["evaluation", "timeline"])
    def test_failing_chunk_raises_the_first_failure(
        self, case_study, critical_policy, chunk, error, failing, message, kind
    ):
        if kind == "evaluation":
            action = "evaluating design"
            run = evaluate_designs_shared
            args = (chunk, case_study, critical_policy)
        else:
            action = "timeline of design"
            run = evaluate_timelines_shared
            args = (chunk, (0.0, 100.0), case_study, critical_policy)
        with pytest.raises(error) as excinfo:
            run(*args, database=DATABASE)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == f"{action} {failing.label!r} failed: {message}"


class TestInstrumentation:
    @staticmethod
    def _counters() -> tuple[float, float]:
        state = REGISTRY.state()
        return (
            state[("repro_security_plans_total", ())]["value"],
            state[("repro_security_rows_total", ())]["value"],
        )

    def test_registry_counts_plans_and_rows(
        self, case_study, critical_policy, space81
    ):
        plans, rows = self._counters()
        SweepEngine(case_study=case_study, policy=critical_policy).evaluate(space81)
        after_plans, after_rows = self._counters()
        # One shape: the unpatched and the patched plan.
        assert after_plans - plans == 2
        assert after_rows - rows == 2 * len(space81)

    def test_one_span_per_chunk_carries_designs_and_plans(
        self, case_study, critical_policy, space81
    ):
        was_enabled = tracing.set_enabled(True)
        tracing.drain()
        try:
            SweepEngine(
                case_study=case_study, policy=critical_policy, chunk_size=27
            ).evaluate(space81)
            spans = [e for e in tracing.drain() if e["name"] == "harm:security"]
        finally:
            tracing.set_enabled(was_enabled)
        assert [span["args"]["designs"] for span in spans] == [27, 27, 27]
        assert [span["args"]["plans"] for span in spans] == [2, 0, 0]
