"""Deterministic fault injection for recovery-path testing.

A :class:`FaultPlan` is parsed from ``REPRO_FAULTS``, a semicolon
-separated list of ``point:action@n`` specs::

    REPRO_FAULTS="cache.write:error@2;solver.iterative:fail@1"

* ``point`` names an instrumented site (see the table below).
* ``action`` is ``error`` or ``fail``: raise the exception the site
  provided, or :class:`~repro.errors.FaultInjected`.
* ``@n`` fires the fault on the *n*-th arrival at that point
  (1-based; defaults to 1).

A malformed plan raises :class:`~repro.errors.ValidationError` when it
is first loaded.

Each armed spec fires **exactly once per plan**, across all processes:
the first process to load the plan materialises a token directory
(``REPRO_FAULTS_STATE``) and removes it when it exits, processes it
starts inherit it through the environment and leave it alone, and
firing requires winning an ``O_CREAT | O_EXCL`` claim on the spec's
token file.  That one-shot guarantee is what lets chaos
tests assert byte-identical output — the fault fires, the recovery
path (retry, degrade, fallback, failover) runs once, and the
re-executed work proceeds unfaulted.

Instrumented points:

========================  ====================================================
``cache.write``           :meth:`PersistentEvaluationCache.put` (sqlite write)
``cache.read``            :meth:`PersistentEvaluationCache.get` (sqlite read)
``solver.iterative``      iterative steady-state core
``solver.transient``      batch transient distribution solve
``shard.request``         per-attempt send in the shard coordinator
========================  ====================================================

With ``REPRO_FAULTS`` unset, :func:`fault_point` is a dictionary probe
and a ``None`` check — effectively free on hot paths.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass

from repro import observability
from repro.errors import FaultInjected, ValidationError

__all__ = ["FaultPlan", "FaultSpec", "active_plan", "fault_point", "reset"]

ENV_PLAN = "REPRO_FAULTS"
ENV_STATE = "REPRO_FAULTS_STATE"

_ACTIONS = frozenset({"error", "fail"})

_INJECTED = observability.counter(
    "repro_faults_injected_total",
    "Faults fired by the deterministic injection harness.",
)


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fire ``action`` on hit number ``hit`` at ``point``."""

    point: str
    action: str
    hit: int

    @classmethod
    def parse(cls, text: str) -> FaultSpec:
        spec = text.strip()
        point, sep, rest = spec.partition(":")
        if not sep or not point.strip():
            raise ValidationError(
                f"invalid fault spec {spec!r}: expected 'point:action[@n]'"
            )
        action, _, count = rest.partition("@")
        action = action.strip().lower()
        if action not in _ACTIONS:
            raise ValidationError(
                f"invalid fault action {action!r} in {spec!r}: "
                f"expected one of {sorted(_ACTIONS)}"
            )
        hit = 1
        if count.strip():
            try:
                hit = int(count.strip())
            except ValueError:
                raise ValidationError(
                    f"invalid fault hit count {count!r} in {spec!r}"
                ) from None
            if hit < 1:
                raise ValidationError(f"fault hit count must be >= 1 in {spec!r}")
        return cls(point=point.strip(), action=action, hit=hit)

    @property
    def token(self) -> str:
        return f"{self.point}.{self.action}.{self.hit}".replace(os.sep, "_")


class FaultPlan:
    """The set of armed faults for this process tree."""

    def __init__(self, specs: list[FaultSpec], state_dir: str) -> None:
        self._by_point: dict[str, list[FaultSpec]] = {}
        for spec in specs:
            self._by_point.setdefault(spec.point, []).append(spec)
        self._state_dir = state_dir
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls, environ: dict[str, str] | None = None) -> FaultPlan | None:
        env = os.environ if environ is None else environ
        raw = env.get(ENV_PLAN, "").strip()
        if not raw:
            return None
        specs = [FaultSpec.parse(part) for part in raw.split(";") if part.strip()]
        if not specs:
            return None
        state_dir = env.get(ENV_STATE, "").strip()
        if not state_dir:
            # First process to activate the plan owns the token dir;
            # exporting it lets the processes it starts share the
            # one-shot state, and the owner removes it at exit.
            state_dir = tempfile.mkdtemp(prefix="repro-faults-")
            os.environ[ENV_STATE] = state_dir
            atexit.register(_remove_state_dir, state_dir, os.getpid())
        return cls(specs, state_dir)

    def _claim(self, spec: FaultSpec) -> bool:
        """Atomically claim the one-shot token; True if we won."""

        path = os.path.join(self._state_dir, spec.token)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(str(os.getpid()))
        return True

    def trigger(self, point: str, *, error: BaseException | None = None) -> None:
        specs = self._by_point.get(point)
        if specs is None:
            return
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
        for spec in specs:
            if spec.hit != hit:
                continue
            if not self._claim(spec):
                continue
            _INJECTED.inc(point=point)
            raise error if error is not None else FaultInjected(
                f"fault injected at {point} (hit {hit})"
            )


def _remove_state_dir(path: str, owner: int) -> None:
    """Remove a token directory at exit, in the process that made it
    (a forked child inherits the exit hook but not the ownership)."""
    if os.getpid() == owner:
        shutil.rmtree(path, ignore_errors=True)


_ACTIVE: FaultPlan | None = None
_ACTIVE_LOADED = False
_ACTIVE_LOCK = threading.Lock()


def active_plan() -> FaultPlan | None:
    """The plan armed via ``REPRO_FAULTS``, loaded once per process."""

    global _ACTIVE, _ACTIVE_LOADED
    if _ACTIVE_LOADED:
        return _ACTIVE
    with _ACTIVE_LOCK:
        if not _ACTIVE_LOADED:
            _ACTIVE = FaultPlan.from_env()
            _ACTIVE_LOADED = True
    return _ACTIVE


def fault_point(point: str, *, error: BaseException | None = None) -> None:
    """Declare a named fault site; fires the armed action, if any.

    ``error`` is the exception a matching ``error``/``fail`` action
    raises (sites pass the exception type their recovery path handles,
    e.g. the cache passes ``sqlite3.OperationalError("...locked...")``);
    without it, :class:`FaultInjected` is raised.
    """

    plan = active_plan()
    if plan is not None:
        plan.trigger(point, error=error)


def reset() -> None:
    """Re-read ``REPRO_FAULTS`` on next use (test isolation)."""

    global _ACTIVE, _ACTIVE_LOADED
    with _ACTIVE_LOCK:
        _ACTIVE = None
        _ACTIVE_LOADED = False
