"""Bounded, deterministic retry with exponential backoff.

A :class:`RetryPolicy` describes *how often* and *how patiently* to
retry; it never decides *what* is retryable — callers pass either an
exception tuple (``retry_on``) or a predicate (``should_retry``).  The
backoff schedule is fully deterministic (no jitter): attempt ``k``
(1-based) sleeps ``min(base_delay * multiplier**(k-1), max_delay)``
before attempt ``k+1``.  Determinism matters here more than thundering
-herd avoidance — the whole evaluation stack guarantees byte-identical
results across caches, shards and fault drills, and a reproducible
retry cadence keeps chaos tests stable.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with deterministic exponential backoff.

    Parameters
    ----------
    attempts:
        Total number of attempts (the first call plus up to
        ``attempts - 1`` retries).  Must be >= 1.
    base_delay:
        Sleep before the first retry, in seconds.  ``0.0`` disables
        sleeping entirely.
    multiplier:
        Exponential growth factor applied per retry.
    max_delay:
        Upper bound on any single sleep.
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0.0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < 0.0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")

    def delay(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (1-based)."""

        if retry_index < 1:
            raise ValueError(f"retry_index must be >= 1, got {retry_index}")
        return min(self.base_delay * self.multiplier ** (retry_index - 1), self.max_delay)

    def delays(self) -> Sequence[float]:
        """The full deterministic backoff schedule."""

        return tuple(self.delay(i) for i in range(1, self.attempts))

    def call(
        self,
        fn: Callable[[], Any],
        *,
        retry_on: tuple[type[BaseException], ...] = (Exception,),
        should_retry: Callable[[BaseException], bool] | None = None,
        before_retry: Callable[[int, BaseException], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Any:
        """Run ``fn`` with up to :attr:`attempts` tries.

        ``should_retry`` (when given) is consulted after the exception
        matches ``retry_on``; returning ``False`` re-raises
        immediately.  ``before_retry(retry_index, exc)`` runs after the
        backoff decision but before the sleep — the persistent cache
        rolls back its failed transaction there.  The final exhausted exception is
        re-raised unchanged.
        """

        last_error: BaseException | None = None
        for attempt in range(1, self.attempts + 1):
            try:
                return fn()
            except retry_on as exc:
                if should_retry is not None and not should_retry(exc):
                    raise
                last_error = exc
                if attempt == self.attempts:
                    raise
                if before_retry is not None:
                    before_retry(attempt, exc)
                pause = self.delay(attempt)
                if pause > 0.0:
                    sleep(pause)
        raise AssertionError(f"unreachable retry state: {last_error!r}")  # pragma: no cover
