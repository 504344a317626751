"""Multi-cycle patch lifecycle (paper §III: "more complex cases (e.g.,
monthly patch of 3 months) will be considered in our future work").

Simulates a sequence of patch cycles: each cycle new vulnerabilities are
disclosed (a seeded synthetic NVD feed), the policy patches its
selection at the end of the cycle, and the security metrics are
evaluated before and after each patch.  The result is a step function of
the attack surface over time, exposing how disclosure rate and patch
policy interact.

Any :class:`~repro.enterprise.design.DesignSpec` is accepted: a
homogeneous design tracks one vulnerability list per role, a
heterogeneous (diversity) design one list per *variant* — the feed
discloses per product, so an nginx CVE lands only on the nginx replicas
while the apache replicas of the same tier stay clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.harm import SecurityMetrics, evaluate_security
from repro.errors import EvaluationError
from repro.patching.policy import PatchPolicy
from repro.vulnerability.model import SoftwareLayer, Vulnerability

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.enterprise.casestudy import EnterpriseCaseStudy
    from repro.enterprise.design import DesignSpec
    from repro.vulnerability.database import VulnerabilityDatabase

__all__ = ["CycleOutcome", "SyntheticDisclosureFeed", "simulate_patch_lifecycle"]

_VECTOR_POOL = (
    # (vector, weight): a realistic severity mix for monthly disclosures
    ("AV:N/AC:L/Au:N/C:C/I:C/A:C", 0.15),   # remote critical (10.0)
    ("AV:N/AC:M/Au:N/C:C/I:C/A:C", 0.15),   # remote critical (9.3)
    ("AV:N/AC:L/Au:N/C:P/I:P/A:P", 0.25),   # remote high (7.5)
    ("AV:L/AC:L/Au:N/C:C/I:C/A:C", 0.20),   # local escalation (7.2)
    ("AV:N/AC:L/Au:N/C:P/I:N/A:N", 0.25),   # info leak (5.0)
)


class SyntheticDisclosureFeed:
    """A seeded stream of synthetic vulnerability disclosures.

    Parameters
    ----------
    rate_per_product:
        Expected new vulnerabilities per product per cycle (Poisson).
    seed:
        Generator seed; identical seeds give identical feeds.
    """

    def __init__(self, rate_per_product: float = 1.0, seed: int = 0) -> None:
        if rate_per_product < 0:
            raise EvaluationError("rate_per_product must be >= 0")
        self._rate = rate_per_product
        self._rng = np.random.default_rng(seed)
        self._counter = 0

    def disclose(self, cycle: int, products: list[str]) -> list[Vulnerability]:
        """New records for *cycle* across *products*."""
        vectors, weights = zip(*_VECTOR_POOL)
        weights = np.array(weights) / sum(weights)
        records = []
        for product in products:
            count = int(self._rng.poisson(self._rate))
            for _ in range(count):
                self._counter += 1
                vector = str(self._rng.choice(vectors, p=weights))
                layer = (
                    SoftwareLayer.OPERATING_SYSTEM
                    if self._rng.random() < 0.4
                    else SoftwareLayer.APPLICATION
                )
                records.append(
                    Vulnerability(
                        cve_id=f"SYN-FEED-{cycle:02d}-{self._counter:04d}",
                        product=product,
                        layer=layer,
                        vector=vector,  # type: ignore[arg-type]
                        exploitable=bool(self._rng.random() < 0.7),
                        reconstructed=True,
                    )
                )
        return records


@dataclass(frozen=True)
class CycleOutcome:
    """Security state around one patch cycle."""

    cycle: int
    disclosed: int
    patched: int
    backlog: int
    before: SecurityMetrics
    after: SecurityMetrics


@dataclass(frozen=True)
class _Unit:
    """One independently-tracked software stack of a design: a server
    group, that is a role's replicas or one variant's in a diverse tier.
    """

    key: str
    role: str
    products: tuple[str, ...]
    hosts: tuple[str, ...]


def _design_units(
    case_study: EnterpriseCaseStudy,
    design: DesignSpec,
    database: VulnerabilityDatabase | None,
) -> tuple[list[_Unit], dict[str, list[Vulnerability]]]:
    """The design's units, one per server group, and their initial
    (catalog) vulnerability lists."""
    from repro.enterprise.casestudy import variant_vulnerabilities
    from repro.enterprise.heterogeneous import design_tiers

    db = database if database is not None else case_study.database
    tiers = dict(design_tiers(design))
    units: list[_Unit] = []
    initial: dict[str, list[Vulnerability]] = {}
    for role in design.roles:
        for variant, count in tiers[role]:
            if variant is None:
                key = role
                initial[key] = list(case_study.role_vulnerabilities(role))
                products = case_study.roles[role].products
            else:
                key = variant.name
                initial[key] = variant_vulnerabilities(db, variant)
                products = variant.products
            units.append(
                _Unit(
                    key=key,
                    role=role,
                    products=tuple(products),
                    hosts=tuple(f"{key}{i}" for i in range(1, count + 1)),
                )
            )
    return units, initial


def simulate_patch_lifecycle(
    case_study: EnterpriseCaseStudy,
    design: DesignSpec,
    policy: PatchPolicy,
    cycles: int,
    feed: SyntheticDisclosureFeed | None = None,
    database: VulnerabilityDatabase | None = None,
) -> list[CycleOutcome]:
    """Run *cycles* consecutive patch cycles and track the attack surface.

    Cycle 0 starts from the case study's catalog (per-variant records
    for heterogeneous designs).  Each cycle: the feed discloses new
    records on every product in use, the security metrics are computed
    (*before*), the policy patches its selection, and the metrics are
    recomputed (*after*).  Unpatched records accumulate as backlog into
    the next cycle — exactly the effect a criticals-only policy has on
    medium-severity CVEs.

    *database* supplies the variant vulnerability records of
    heterogeneous designs (default: the case study's own database).
    """
    if cycles < 1:
        raise EvaluationError(f"cycles must be >= 1, got {cycles}")
    if feed is None:
        feed = SyntheticDisclosureFeed()

    units, current = _design_units(case_study, design, database)

    outcomes: list[CycleOutcome] = []
    for cycle in range(cycles):
        disclosed_count = 0
        if cycle > 0:  # cycle 0 evaluates the catalog as-is (the paper's case)
            all_products = sorted(
                {product for unit in units for product in unit.products}
            )
            new_records = feed.disclose(cycle, all_products)
            disclosed_count = len(new_records)
            for unit in units:
                current[unit.key].extend(
                    record
                    for record in new_records
                    if record.product in unit.products
                )

        before = _evaluate(case_study, units, current, patched=None)
        patched_ids = {
            unit.key: policy.patched_cve_ids(current[unit.key]) for unit in units
        }
        after = _evaluate(case_study, units, current, patched=patched_ids)

        patched_count = len(set().union(*patched_ids.values()))
        for unit in units:
            current[unit.key] = [
                record
                for record in current[unit.key]
                if record.cve_id not in patched_ids[unit.key]
            ]
        backlog = sum(len(records) for records in current.values())
        outcomes.append(
            CycleOutcome(
                cycle=cycle,
                disclosed=disclosed_count,
                patched=patched_count,
                backlog=backlog,
                before=before,
                after=after,
            )
        )
    return outcomes


def _evaluate(
    case_study: EnterpriseCaseStudy,
    units: list[_Unit],
    current: dict[str, list[Vulnerability]],
    patched: dict[str, set[str]] | None,
) -> SecurityMetrics:
    from repro.harm import build_harm  # local import to avoid cycles

    role_hosts: dict[str, list[str]] = {}
    host_vulns: dict[str, list[Vulnerability]] = {}
    for unit in units:
        role_hosts.setdefault(unit.role, []).extend(unit.hosts)
        for host in unit.hosts:
            host_vulns[host] = current[unit.key]
    reachability = [
        (src_host, dst_host)
        for src_role, dst_role in case_study.topology.role_edges()
        if src_role in role_hosts and dst_role in role_hosts
        for src_host in role_hosts[src_role]
        for dst_host in role_hosts[dst_role]
    ]
    entry_hosts = [
        host
        for role in case_study.topology.entry_roles
        if role in role_hosts
        for host in role_hosts[role]
    ]
    targets = [
        host
        for role in case_study.topology.target_roles
        if role in role_hosts
        for host in role_hosts[role]
    ]
    # trees are flat ORs here: synthetic feeds have no expert tree shape
    harm = build_harm(host_vulns, reachability, entry_hosts, targets)
    if patched is not None:
        harm = harm.after_patching(
            {
                host: patched[unit.key]
                for unit in units
                for host in unit.hosts
            }
        )
    return evaluate_security(harm)
