"""One server-group view of a design: results never depend on the order
a design lists its roles or variants, and cached results answer for the
design that was asked for.

Covers :func:`repro.enterprise.heterogeneous.design_tiers` as read by
every evaluator, the engine's memo and disk tiers, the CLI and the
service sharing one cache file, and the security evaluator's per-stack
patch sets.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.enterprise import (
    HeterogeneousDesign,
    RedundancyDesign,
    paper_case_study,
    paper_variant_space,
)
from repro.evaluation import (
    AvailabilityEvaluator,
    SecurityEvaluator,
    SweepEngine,
    enumerate_designs,
    evaluate_timeline,
)
from repro.evaluation.service import EvaluationService
from repro.patching import CriticalVulnerabilityPolicy, PatchCampaign
from repro.vulnerability.diversity import diversity_database

CAMPAIGN = PatchCampaign.parse("canary:0.1:48:1,ramp:0.5:50%,fleet:1.0")
TIMES = (0.0, 24.0, 100.0, 500.0, 720.0)


def _reordered_pairs():
    """Equal designs, each built in two different orders."""
    space = paper_variant_space()
    (apache, nginx), (mysql, postgres) = space["web"], space["db"]
    counts = {"dns": 2, "web": 1, "app": 3, "db": 2}
    return [
        (
            RedundancyDesign(counts),
            RedundancyDesign(dict(reversed(list(counts.items())))),
        ),
        (
            HeterogeneousDesign(
                {
                    "web": {apache: 2, nginx: 1},
                    "db": {mysql: 1, postgres: 3},
                    "dns": {space["dns"][0]: 2},
                }
            ),
            HeterogeneousDesign(
                {
                    "dns": {space["dns"][0]: 2},
                    "db": {postgres: 3, mysql: 1},
                    "web": {nginx: 1, apache: 2},
                }
            ),
        ),
    ]


@pytest.fixture(scope="module")
def evaluators():
    case_study = paper_case_study()
    policy = CriticalVulnerabilityPolicy()
    database = diversity_database()
    return (
        case_study,
        policy,
        SecurityEvaluator(case_study, database=database),
        AvailabilityEvaluator(case_study, policy, database=database),
    )


class TestOrderFreeResults:
    @pytest.mark.parametrize("campaign", [None, CAMPAIGN], ids=["plain", "staged"])
    @pytest.mark.parametrize("pair", range(2), ids=["homogeneous", "variants"])
    def test_equal_designs_give_equal_timelines(self, evaluators, campaign, pair):
        case_study, policy, security, availability = evaluators
        first, second = _reordered_pairs()[pair]
        assert first == second and first.label != second.label
        timelines = [
            evaluate_timeline(
                design,
                TIMES,
                case_study=case_study,
                policy=policy,
                security_evaluator=security,
                availability_evaluator=availability,
                campaign=campaign,
            )
            for design in (first, second)
        ]
        assert timelines[0] == timelines[1]
        assert (
            timelines[0].mean_time_to_completion.hex()
            == timelines[1].mean_time_to_completion.hex()
        )

    @pytest.mark.parametrize("pair", range(2), ids=["homogeneous", "variants"])
    def test_equal_designs_give_equal_snapshots(self, evaluators, pair):
        _, policy, security, availability = evaluators
        first, second = _reordered_pairs()[pair]
        assert availability.coa(first).hex() == availability.coa(second).hex()
        assert security.before_patch(first) == security.before_patch(second)
        assert security.after_patch(first, policy) == security.after_patch(
            second, policy
        )


class TestCacheHitsAnswerForTheRequest:
    def test_memo_hits_carry_the_requested_design(self):
        first, second = _reordered_pairs()[0]
        engine = SweepEngine()
        engine.evaluate([first])
        engine.timeline([first], TIMES)
        misses = engine.cache_info["misses"]
        evaluation = engine.evaluate([second])[0]
        timeline = engine.timeline([second], TIMES)[0]
        assert engine.cache_info["misses"] == misses  # both were hits
        assert evaluation.design is second and timeline.design is second
        assert evaluation.label == second.label != first.label
        assert list(timeline.design.counts) == list(second.counts)

    def test_duplicates_in_one_call_answer_for_themselves(self):
        first, second = _reordered_pairs()[0]
        results = SweepEngine().evaluate([first, second])
        assert [result.design for result in results] == [first, second]
        assert [result.label for result in results] == [first.label, second.label]

    def test_disk_hits_carry_the_requested_design(self, tmp_path):
        first, second = _reordered_pairs()[1]
        cache = tmp_path / "order.sqlite"
        with SweepEngine(database=diversity_database(), cache_path=cache) as engine:
            engine.timeline([first], TIMES, campaign=CAMPAIGN)
        with SweepEngine(database=diversity_database(), cache_path=cache) as engine:
            timeline = engine.timeline([second], TIMES, campaign=CAMPAIGN)[0]
            assert engine.cache_info["disk_hits"] == 1
        assert timeline.design is second
        assert timeline.label == second.label

    @pytest.mark.parametrize("command", ["sweep", "timeline"])
    def test_cli_output_does_not_depend_on_cache_history(
        self, tmp_path, capsys, command
    ):
        cache = str(tmp_path / "history.sqlite")
        args = [command, "--max-replicas", "2", "--json"]
        if command == "timeline":
            args += ["--points", "6", "--phases", "canary:0.1:48:1,fleet:1.0"]
        assert main(args + ["--roles", "web,dns"]) == 0
        fresh = capsys.readouterr().out
        assert main(args + ["--roles", "dns,web", "--cache", cache]) == 0
        capsys.readouterr()
        assert main(args + ["--roles", "web,dns", "--cache", cache]) == 0
        warm = capsys.readouterr().out
        assert warm == fresh
        assert json.loads(warm)["designs"][0]["label"].startswith("1 WEB")


class TestOneEvaluationContext:
    def test_cli_cache_serves_the_service_from_disk(self, tmp_path, capsys):
        cache = str(tmp_path / "shared.sqlite")
        args = ["sweep", "--roles", "dns,web", "--max-replicas", "2", "--json"]
        assert main(args + ["--cache", cache]) == 0
        expected = json.loads(capsys.readouterr().out)
        with EvaluationService(cache_path=cache) as service:
            client = service.start_in_thread()
            served = client.sweep(roles=["dns", "web"], max_replicas=2)
            info = client.healthz()["engine"]["cache_info"]
        assert info["disk_hits"] == expected["design_count"] == 4
        assert info["misses"] == 0
        assert served == expected


class TestPatchSetsPerStack:
    def test_patch_set_computed_once_per_stack(self, monkeypatch):
        calls = []
        original = CriticalVulnerabilityPolicy.patched_cve_ids

        def counting(self, vulnerabilities):
            calls.append(1)
            return original(self, vulnerabilities)

        monkeypatch.setattr(CriticalVulnerabilityPolicy, "patched_cve_ids", counting)
        evaluator = SecurityEvaluator(paper_case_study())
        policy = CriticalVulnerabilityPolicy()
        for design in enumerate_designs(["dns", "web", "app", "db"], 3):
            evaluator.after_patch(design, policy)
        assert len(calls) == 4  # one per role stack, not per lookup

    def test_patch_sets_stay_bounded_under_fresh_policies(self):
        evaluator = SecurityEvaluator(paper_case_study())
        design = RedundancyDesign({"dns": 1, "web": 2, "app": 1, "db": 1})
        reference = evaluator.after_patch(design, CriticalVulnerabilityPolicy())
        for _ in range(30):
            assert evaluator.after_patch(design, CriticalVulnerabilityPolicy()) == (
                reference
            )
        assert len(evaluator._patched) == 4
