"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public calls of each layer of ``repro``
where their callers look them up, and records one span per call:
``(layer, start, self seconds, extra)``.  A span's self time is its
duration minus the time of wrapped calls made inside it on the same
thread, so summing self time over every span gives the wall time spent
inside the outermost wrapped calls, with no double counting.

Spans stay in memory; :meth:`LayerTracer.summary` reduces those inside
a time window to per-layer totals when the run ends.  Nothing under
``src/`` is modified: wrappers are installed by rebinding module and
class attributes in the running process.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: Layers whose self time is reported (``<layer>_s`` per op).
LAYERS = (
    "enterprise.build",
    "availability.aggregate",
    "availability",
    "srn.explore",
    "ctmc.steady",
    "ctmc.transient",
    "harm.build",
    "harm.metrics",
    "timeline",
    "engine",
    "cache.get",
    "cache.put",
    "service.json",
)

# Extra-field tags: explored state counts and attack-tree identities.
_STATES = "states"
_TREE = "tree"


def _targets() -> list[tuple[str, object, str, str | None]]:
    """``(layer, owner, attribute, tag)`` for every traced call.

    *owner* is a module for functions (rebound in every loaded
    ``repro`` module that imported it by name) or a class for methods.
    """
    from repro.attacktree.tree import AttackTree
    from repro.availability import aggregation
    from repro.ctmc import transient
    from repro.ctmc.steady import BatchSteadySolver
    from repro.ctmc.transient import BatchTransientSolver
    from repro.enterprise import casestudy, scaled
    from repro.evaluation import sweep, timeline
    from repro.evaluation.availability import AvailabilityEvaluator
    from repro.evaluation.cache import PersistentEvaluationCache
    from repro.evaluation.engine import SweepEngine
    from repro.evaluation.security import SecurityEvaluator
    from repro.harm import metrics
    from repro.srn import reachability

    return [
        ("enterprise.build", casestudy, "paper_case_study", None),
        ("enterprise.build", scaled, "scaled_case_study", None),
        ("enterprise.build", sweep, "enumerate_designs", None),
        ("availability.aggregate", aggregation, "aggregate_service", None),
        ("availability", AvailabilityEvaluator, "coa", None),
        ("availability", AvailabilityEvaluator, "transient_coa", None),
        ("availability", AvailabilityEvaluator, "transient_coa_piecewise", None),
        ("srn.explore", reachability, "explore", _STATES),
        ("ctmc.steady", BatchSteadySolver, "solve", None),
        ("ctmc.transient", BatchTransientSolver, "rewards", None),
        ("ctmc.transient", BatchTransientSolver, "distributions", None),
        ("ctmc.transient", BatchTransientSolver, "propagate", None),
        ("ctmc.transient", transient, "transient_piecewise", None),
        ("harm.build", SecurityEvaluator, "build_harm", None),
        ("harm.build", AttackTree, "from_vulnerabilities", _TREE),
        ("harm.metrics", metrics, "evaluate_security", None),
        ("timeline", timeline, "evaluate_timeline", None),
        ("engine", SweepEngine, "evaluate", None),
        ("engine", SweepEngine, "timeline", None),
        ("cache.get", PersistentEvaluationCache, "get", None),
        ("cache.put", PersistentEvaluationCache, "put", None),
        ("service.json", json, "dumps", None),
    ]


class LayerTracer:
    """Wrap the layer calls of ``repro`` and keep their spans in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.spans: list[tuple[str, float, float, object]] = []
        #: While False the wrappers call straight through, recording nothing.
        self.enabled = True

    def install(self) -> None:
        """Rebind every traced call to its timing wrapper."""
        for layer, owner, name, tag in _targets():
            if isinstance(owner, type):
                original = owner.__dict__[name]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(layer, original.__func__, tag))
                else:
                    wrapper = self._wrap(layer, original, tag)
                setattr(owner, name, wrapper)
                continue
            original = getattr(owner, name)
            wrapper = self._wrap(layer, original, tag)
            # ``from m import f`` copies the reference into the importing
            # module, so rebind it wherever it was imported.
            modules = [owner] + [
                module
                for key, module in list(sys.modules.items())
                if key.startswith("repro") and module is not None
            ]
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)

    def _wrap(self, layer: str, fn, tag: str | None):
        tracer = self
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            extra = None
            if tag == _TREE and len(args) > 1:
                # Materialise the vulnerability iterable once: it is both
                # the call's argument and the tree's identity.
                vulnerabilities = tuple(args[1])
                args = (args[0], vulnerabilities) + args[2:]
                extra = (
                    tuple(v.cve_id for v in vulnerabilities),
                    repr(args[2:]),
                    repr(sorted(kwargs.items())),
                )
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
            if tag == _STATES:
                extra = result.number_of_states
            spans.append((layer, start, duration - child, extra))
            return result

        return wrapper

    def summary(
        self,
        start: float = float("-inf"),
        end: float = float("inf"),
        op_starts: list[float] | None = None,
    ) -> dict:
        """Per-layer self seconds and call counts of spans in a window.

        ``states`` sums explored tangible states; ``trees`` counts
        attack-tree builds and ``distinct_trees`` their distinct inputs,
        per op when *op_starts* (sorted op start times) is given.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        states = 0
        trees = 0
        distinct: set = set()
        for layer, began, own, extra in list(self.spans):
            if not start <= began <= end:
                continue
            self_s[layer] += own
            calls[layer] += 1
            if extra is None:
                continue
            if layer == "srn.explore":
                states += extra
            else:
                trees += 1
                op = bisect.bisect_right(op_starts, began) if op_starts else 0
                distinct.add((op, extra))
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "states": states,
            "trees": trees,
            "distinct_trees": len(distinct),
        }
