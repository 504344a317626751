"""Construct HARMs from reachability and vulnerability descriptions.

This is the "security model generator" of the paper's phase 2: it takes
the network topology (reachability information) and per-host
vulnerability information and produces the two-layered HARM.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.attackgraph import AttackGraph
from repro.attacktree import AttackTree
from repro.attacktree.tree import BranchSpec
from repro.errors import HarmError
from repro.harm.model import Harm
from repro.vulnerability.model import Vulnerability

__all__ = ["build_harm", "host_tree"]


def build_harm(
    host_vulnerabilities: Mapping[str, Sequence[Vulnerability]],
    reachability: Iterable[tuple[str, str]],
    entry_hosts: Iterable[str],
    targets: Iterable[str],
    tree_specs: Mapping[str, Sequence[BranchSpec]] | None = None,
) -> Harm:
    """Build a two-layered HARM.

    Parameters
    ----------
    host_vulnerabilities:
        Host name -> vulnerability records present on that host.  Only
        records with ``exploitable=True`` enter the attack tree; a host
        whose records are all unexploitable gets no tree.
    reachability:
        (src, dst) pairs of host-to-host connectivity.
    entry_hosts:
        Hosts reachable directly by the external attacker.
    targets:
        Attack-goal hosts.
    tree_specs:
        Optional host name -> branch specification for the lower-layer
        tree (see :meth:`repro.attacktree.AttackTree.from_branches`).
        Hosts without a spec get a flat OR over their vulnerabilities.

    Examples
    --------
    >>> from repro.vulnerability import paper_database
    >>> db = paper_database()
    >>> harm = build_harm(
    ...     {"web1": db.for_product("Apache HTTP"),
    ...      "db1": db.for_product("MySQL")},
    ...     reachability=[("web1", "db1")],
    ...     entry_hosts=["web1"],
    ...     targets=["db1"])
    >>> harm.attack_surface().number_of_attack_paths()
    1
    """
    tree_specs = dict(tree_specs or {})
    graph = AttackGraph(hosts=host_vulnerabilities, targets=targets)
    for src, dst in reachability:
        graph.add_reachability(src, dst)
    for host in entry_hosts:
        if host not in host_vulnerabilities:
            raise HarmError(f"entry host {host!r} has no vulnerability entry")
        graph.add_entry_point(host)

    trees = {
        host: host_tree(host, vulns, tree_specs.get(host))
        for host, vulns in host_vulnerabilities.items()
    }
    return Harm(graph, trees)


def host_tree(
    host: str,
    vulnerabilities: Sequence[Vulnerability],
    spec: Sequence[BranchSpec] | None = None,
) -> AttackTree | None:
    """The lower-layer attack tree of one host.

    Only records with ``exploitable=True`` enter the tree; ``None``
    means the host has none and stays off the attack surface.  *spec*
    is the optional branch specification; naming a CVE outside the
    exploitable records raises :class:`HarmError` naming *host*.
    """
    exploitable = [vuln for vuln in vulnerabilities if vuln.exploitable]
    if not exploitable:
        return None
    if spec is not None:
        _check_spec_covers(host, spec, exploitable)
    return AttackTree.from_vulnerabilities(exploitable, spec)


def _check_spec_covers(
    host: str, spec: Sequence[BranchSpec], vulns: Sequence[Vulnerability]
) -> None:
    named: set[str] = set()
    for branch in spec:
        if isinstance(branch, str):
            named.add(branch)
        else:
            named.update(branch)
    available = {vuln.cve_id for vuln in vulns}
    unknown = named - available
    if unknown:
        raise HarmError(
            f"tree spec for {host!r} names unknown vulnerabilities {sorted(unknown)}"
        )
