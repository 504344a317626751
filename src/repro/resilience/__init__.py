"""Resilience layer: deadlines, retries, fault injection.

The paper's subject is keeping redundant systems available while
patches (and failures) roll through them; this package makes the
evaluation stack itself practice that discipline.  Three small,
orthogonal primitives, all stdlib-only and deterministic:

* :class:`~repro.resilience.retry.RetryPolicy` — bounded attempts with
  deterministic exponential backoff (no jitter, so tests and fault
  drills replay identically).  Used by the persistent sqlite cache
  (``busy``/``locked`` retries), the shard coordinator and
  :class:`~repro.evaluation.service.ServiceClient` (503 +
  ``Retry-After``).
* :class:`~repro.resilience.deadline.Deadline` — a monotonic time
  budget carried through a request (``deadline_ms`` on ``/sweep`` and
  ``/timeline``, ``--deadline`` on the CLI), checked between chunk
  dispatches and raised as the typed
  :class:`~repro.errors.DeadlineExceeded`.
* :mod:`~repro.resilience.faults` — a deterministic fault-injection
  harness: ``REPRO_FAULTS="cache.write:error@2;shard.request:fail@1"``
  arms named fault points wired into cache reads and writes, solver
  solves and shard requests, so every recovery path can be provoked on
  demand and asserted byte-identical to a fault-free run.
"""

from __future__ import annotations

from repro.errors import DeadlineExceeded, FaultInjected
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultPlan, fault_point
from repro.resilience.retry import RetryPolicy

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "FaultInjected",
    "FaultPlan",
    "RetryPolicy",
    "fault_point",
]
