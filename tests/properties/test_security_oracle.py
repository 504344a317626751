"""Class-level security metrics against the host-level HARM oracle.

:class:`SecurityEvaluator` computes every metric over classes of
identical replicas on the role topology, from one attack-path plan per
design shape and patch set; ``evaluate_security`` over the explicit
host-level HARM (``SecurityEvaluator.build_harm``) is the oracle.  Every
:class:`SecurityMetrics` field must be equal (``==``), not merely close:
both routes reduce the same multiset of paths.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacktree.semantics import PROBABILISTIC, WORST_CASE
from repro.enterprise import (
    EnterpriseCaseStudy,
    HeterogeneousDesign,
    NetworkTopology,
    RedundancyDesign,
    paper_case_study,
    paper_variant_space,
    paper_variants,
)
from repro.enterprise.heterogeneous import design_tiers
from repro.enterprise.scaled import scaled_case_study
from repro.evaluation.security import SecurityEvaluator
from repro.evaluation.sweep import (
    enumerate_designs,
    enumerate_heterogeneous_designs,
)
from repro.harm import PathAggregation, evaluate_security
from repro.patching import CriticalVulnerabilityPolicy, PatchAllPolicy
from repro.vulnerability.diversity import diversity_database

POLICIES = (None, CriticalVulnerabilityPolicy(), PatchAllPolicy())
SEMANTICS = (WORST_CASE, PROBABILISTIC)
DATABASE = diversity_database()
#: The paper's four stacks plus the diverse web and database stacks.
STACKS = tuple(paper_variants().values())


def class_and_oracle(evaluator, design, policy):
    """``(class-level metrics, host-level oracle metrics)``."""
    if policy is None:
        metrics = evaluator.before_patch(design)
    else:
        metrics = evaluator.after_patch(design, policy)
    oracle = evaluate_security(
        evaluator.build_harm(design, policy),
        semantics=evaluator.semantics,
        aggregation=evaluator.aggregation,
    )
    return metrics, oracle


def host_level(evaluator, design, policy):
    """The oracle alone: host-level metrics of *design* after *policy*."""
    return evaluate_security(
        evaluator.build_harm(design, policy),
        semantics=evaluator.semantics,
        aggregation=evaluator.aggregation,
    )


@st.composite
def enterprises(draw):
    """A random role DAG with a homogeneous or heterogeneous design.

    Roles get a random order and edges only run forward in it, so the
    topology is acyclic.  Entry and target roles are drawn
    independently, so an entry role can also be a target, a target can
    have successors and a role can be isolated.
    """
    count = draw(st.integers(min_value=1, max_value=6))
    names = [f"r{chr(ord('a') + k)}" for k in range(count)]
    order = draw(st.permutations(names))
    edges = [
        (src, dst)
        for i, src in enumerate(order)
        for dst in order[i + 1 :]
        if draw(st.booleans())
    ]
    entries = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    targets = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    stacks = {name: draw(st.sampled_from(STACKS)) for name in names}

    topology = NetworkTopology(names)
    for src, dst in edges:
        topology.add_role_reachability(src, dst)
    for role in entries:
        topology.add_entry_role(role)
    for role in targets:
        topology.add_target_role(role)
    case_study = EnterpriseCaseStudy(
        roles={name: replace(stacks[name], name=name) for name in names},
        topology=topology,
        database=DATABASE,
    )

    deployed = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    replicas = st.integers(min_value=1, max_value=3)
    if draw(st.booleans()):
        design = RedundancyDesign({role: draw(replicas) for role in deployed})
    else:
        assignment = {}
        for role in deployed:
            variants = draw(
                st.lists(st.sampled_from(STACKS), min_size=1, max_size=2, unique=True)
            )
            assignment[role] = {
                replace(stack, name=f"{role}v{k}"): draw(replicas)
                for k, stack in enumerate(variants)
            }
        design = HeterogeneousDesign(assignment)
    return case_study, design


class TestRandomTopologies:
    @given(
        enterprises(),
        st.sampled_from(POLICIES),
        st.sampled_from(SEMANTICS),
        st.sampled_from(list(PathAggregation)),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_field_equals_the_host_level_oracle(
        self, enterprise, policy, semantics, aggregation
    ):
        case_study, design = enterprise
        evaluator = SecurityEvaluator(
            case_study,
            semantics=semantics,
            aggregation=aggregation,
            database=DATABASE,
        )
        metrics, oracle = class_and_oracle(evaluator, design, policy)
        assert metrics == oracle


def _spaces():
    paper = paper_case_study()
    roles = ["dns", "web", "app", "db"]
    spaces = {
        "paper-81": (paper, list(enumerate_designs(roles, 3)), None),
        "paper-256": (paper, list(enumerate_designs(roles, 4)), None),
        "variants-100": (
            paper,
            list(
                enumerate_heterogeneous_designs(roles, paper_variant_space(), 2)
            ),
            DATABASE,
        ),
    }
    for hosts, tiers in ((9, 4), (4, 6), (9, 5)):
        case_study, design = scaled_case_study(hosts, tiers)
        spaces[f"scaled-{hosts}x{tiers}"] = (case_study, [design], None)
    return spaces


SPACES = _spaces()


class TestFixedSpaces:
    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("aggregation", list(PathAggregation))
    def test_every_field_equals_the_host_level_oracle(self, space, aggregation):
        case_study, designs, database = SPACES[space]
        for semantics in SEMANTICS:
            evaluator = SecurityEvaluator(
                case_study,
                semantics=semantics,
                aggregation=aggregation,
                database=database,
            )
            for design in designs:
                for policy in POLICIES[:2]:
                    metrics, oracle = class_and_oracle(evaluator, design, policy)
                    assert metrics == oracle, (design.label, policy)


class TestPlanReuse:
    """One evaluator per space, its plans reused across designs and
    rebuilt for every new policy object."""

    #: Three policies and a second instance of the first: a new policy
    #: object must not reuse the patched plans of another.
    CYCLE = (
        None,
        CriticalVulnerabilityPolicy(),
        PatchAllPolicy(),
        CriticalVulnerabilityPolicy(),
    )

    @pytest.mark.parametrize("space", ["paper-81", "paper-256", "variants-100"])
    def test_rows_in_shuffled_order_equal_the_oracle(self, space):
        case_study, designs, database = SPACES[space]
        designs = list(designs)
        random.Random(space).shuffle(designs)
        evaluator = SecurityEvaluator(case_study, database=database)
        policies = itertools.cycle(self.CYCLE)
        for design in designs:
            policy = next(policies)
            metrics, expected = class_and_oracle(evaluator, design, policy)
            assert metrics == expected, (design.label, policy)
        # Whole chunks through the one evaluator, one policy per chunk.
        for start in range(0, len(designs), 7):
            chunk = designs[start : start + 7]
            policy = next(policies) or PatchAllPolicy()
            rows = evaluator.rows(chunk, [design_tiers(d) for d in chunk], policy)
            for design, (before, after) in zip(chunk, rows):
                assert before == host_level(evaluator, design, None), design.label
                assert after == host_level(evaluator, design, policy), design.label

    @given(
        enterprises(),
        st.data(),
        st.sampled_from(POLICIES[1:]),
        st.sampled_from(list(PathAggregation)),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_chunk_of_designs_equals_the_oracle(
        self, enterprise, data, policy, aggregation
    ):
        # 2-6 designs of one shape, listing its roles in any order, so
        # they share plans within one chunk call.
        case_study, design = enterprise
        replicas = st.integers(min_value=1, max_value=3)
        designs = [design]
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            roles = data.draw(st.permutations(design.roles))
            if isinstance(design, RedundancyDesign):
                other = RedundancyDesign({role: data.draw(replicas) for role in roles})
            else:
                other = HeterogeneousDesign(
                    {
                        role: {
                            variant: data.draw(replicas)
                            for variant in design.variants(role)
                        }
                        for role in roles
                    }
                )
            designs.append(other)
        evaluator = SecurityEvaluator(
            case_study, aggregation=aggregation, database=DATABASE
        )
        rows = evaluator.rows(designs, [design_tiers(d) for d in designs], policy)
        assert len(rows) == len(designs)
        for design, (before, after) in zip(designs, rows):
            assert before == host_level(evaluator, design, None)
            assert after == host_level(evaluator, design, policy)

    def test_scaled_9x40_counts_every_path_as_an_exact_int(self):
        case_study, design = scaled_case_study(9, 40)
        evaluator = SecurityEvaluator(case_study)
        [(before, after)] = evaluator.rows(
            [design], [design_tiers(design)], CriticalVulnerabilityPolicy()
        )
        assert type(before.number_of_attack_paths) is int
        assert before.number_of_attack_paths == 9**40
        assert before == evaluator.before_patch(design)
        assert after.number_of_attack_paths == 0
