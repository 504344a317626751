"""Shard coordinator: fan one design space out across service processes.

``repro shard`` (and :class:`ShardCoordinator` for embedding) splits an
enumerated design space across *N* running ``repro serve`` processes by
the stable ``design.cache_key()`` hash (:func:`repro.evaluation.api.
shard_of`), sends one ``/v1`` request per shard — each carrying
``options.shard = {"index": I, "count": N}`` so the *service* filters
its partition from the same enumeration — and merges the partial
payloads back into the exact single-process payload:

* designs are re-interleaved in enumeration order (each shard returns
  its partition in that order, so the merge is a deterministic
  multi-way zip — no sorting, no float comparisons);
* the sweep ``pareto`` flags are recomputed over the merged set with
  :func:`repro.evaluation.api.pareto_flags` (a shard only sees its own
  partition, so its local front is too generous);
* everything else (roles, budgets, campaign metadata, key order) is
  identical across shards by construction.

The result is byte-identical to a single-process run over the same
space — asserted in tests and the CI shard smoke.

Failures fail over: shard *i*'s primary endpoint is ``endpoints[i %
N]``, and each retry rotates to the next endpoint, so a killed shard's
partition is re-requested from a surviving service.  When the services
share a sqlite cache (``repro serve --cache``), the survivor serves the
dead shard's finished designs from the shared result tier instead of
recomputing them.  The attempt loop passes the ``shard.request`` fault
point (see :mod:`repro.resilience.faults`), so chaos tests can kill a
request deterministically.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor

from repro import observability
from repro.errors import (
    DeadlineExceeded,
    EvaluationError,
    FaultInjected,
    ValidationError,
)
from repro.evaluation import api
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy

__all__ = ["ShardCoordinator", "parse_endpoint"]

_logger = logging.getLogger(__name__)

_SHARD_REQUESTS = observability.counter(
    "repro_shard_requests_total",
    "Per-shard service requests issued by the coordinator, by outcome.",
)
_SHARD_FAILOVERS = observability.counter(
    "repro_shard_failovers_total",
    "Shard requests retried against another endpoint after a failure.",
).labels()


def parse_endpoint(text: str) -> tuple[str, int]:
    """``"host:port"`` (or bare ``"port"``) → ``(host, port)``."""
    spec = text.strip()
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", spec
    try:
        port = int(port_text)
    except ValueError:
        raise ValidationError(
            f"invalid endpoint {text!r}; expected host:port"
        ) from None
    if not (0 < port < 65536):
        raise ValidationError(f"endpoint port out of range: {text!r}")
    return host or "127.0.0.1", port


class ShardCoordinator:
    """Fan sweep/timeline requests across *endpoints* and merge.

    Parameters
    ----------
    endpoints:
        ``host:port`` strings (or ``(host, port)`` pairs) of running
        ``repro serve`` processes; the shard count is ``len(endpoints)``.
    timeout:
        Per-request socket timeout of the underlying
        :class:`~repro.evaluation.service.ServiceClient`.
    retry:
        Failover policy: ``attempts`` bounds how many endpoints a
        failing shard request rotates through (with the policy's
        deterministic backoff between attempts).  Every shard request
        carries the caller's full ``deadline_ms`` budget — shards run
        concurrently, so budgets do not stack.
    """

    DEFAULT_RETRY = RetryPolicy(attempts=3, base_delay=0.2, max_delay=5.0)

    def __init__(
        self,
        endpoints,
        timeout: float = 300.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        from repro.evaluation.service import ServiceClient

        parsed = [
            endpoint
            if isinstance(endpoint, tuple)
            else parse_endpoint(endpoint)
            for endpoint in endpoints
        ]
        if not parsed:
            raise ValidationError("shard coordinator needs >= 1 endpoint")
        self.endpoints = parsed
        self.retry = retry or self.DEFAULT_RETRY
        self._clients = [
            ServiceClient(host, port, timeout=timeout) for host, port in parsed
        ]

    @property
    def shard_count(self) -> int:
        return len(self.endpoints)

    # -- public ----------------------------------------------------------

    def sweep(self, **fields) -> dict:
        """A sharded sweep, merged byte-identical to one process."""
        return self._fan_out(fields, timeline=False)

    def timeline(self, **fields) -> dict:
        """A sharded timeline, merged byte-identical to one process."""
        return self._fan_out(fields, timeline=True)

    # -- internals -------------------------------------------------------

    def _fan_out(self, fields: dict, timeline: bool) -> dict:
        # Parsed here, so a bad request fails before any shard is asked.
        space = api.parse_request(api.envelope(fields, timeline), timeline).space
        count = self.shard_count
        with ThreadPoolExecutor(
            max_workers=count, thread_name_prefix="repro-shard"
        ) as pool:
            futures = [
                pool.submit(self._shard_request, index, dict(fields), timeline)
                for index in range(count)
            ]
            responses = [future.result() for future in futures]
        # The space is walked only once every shard has answered: a
        # space past the services' budget fails there, never enumerated
        # on the client.
        return self._merge(space, responses, timeline)

    def _shard_request(self, index: int, fields: dict, timeline: bool) -> dict:
        """One shard's partition, failing over across endpoints."""
        fields["shard"] = {"index": index, "count": self.shard_count}
        last_error: Exception | None = None
        for attempt in range(self.retry.attempts):
            endpoint = (index + attempt) % len(self._clients)
            client = self._clients[endpoint]
            if attempt:
                pause = self.retry.delay(attempt)
                if pause > 0.0:
                    time.sleep(pause)
                _SHARD_FAILOVERS.inc()
                _logger.warning(
                    "shard %d/%d: failing over to %s:%d (attempt %d/%d): %s",
                    index,
                    self.shard_count,
                    client.host,
                    client.port,
                    attempt + 1,
                    self.retry.attempts,
                    last_error,
                )
            try:
                fault_point("shard.request")
                response = (
                    client.timeline(**fields)
                    if timeline
                    else client.sweep(**fields)
                )
            except (EvaluationError, FaultInjected, OSError) as exc:
                last_error = exc
                _SHARD_REQUESTS.inc(outcome="error")
                continue
            _SHARD_REQUESTS.inc(outcome="ok")
            return response
        # A deadline that ran out on every attempt stays a deadline.
        error = (
            DeadlineExceeded
            if isinstance(last_error, DeadlineExceeded)
            else EvaluationError
        )
        raise error(
            f"shard {index}/{self.shard_count} failed on every endpoint "
            f"({self.retry.attempts} attempt(s)); last error: {last_error}"
        ) from last_error

    @staticmethod
    def _merge(
        space: api.SpaceSpec, responses: list[dict], timeline: bool
    ) -> dict:
        """Re-interleave shard partitions into the single-process payload."""
        from collections import deque

        count = len(responses)
        queues = [deque(response["designs"]) for response in responses]
        merged = []
        for design in api.iter_space(space):
            queue = queues[api.shard_of(design, count)]
            if not queue:
                raise EvaluationError(
                    f"shard merge underflow at design {design.label!r}: a "
                    "shard returned fewer designs than its partition — "
                    "endpoint/space mismatch?"
                )
            merged.append(dict(queue.popleft()))
        leftovers = sum(len(queue) for queue in queues)
        if leftovers:
            raise EvaluationError(
                f"shard merge overflow: {leftovers} design payload(s) "
                "unclaimed after the merge — endpoint/space mismatch?"
            )
        payload = dict(responses[0])
        if not timeline:
            # A shard's local Pareto front is too generous (it never saw
            # the other partitions); recompute over the merged set.  The
            # flag is mutated in place, so key order — and therefore the
            # serialised bytes — match the single-process payload.
            for record, flag in zip(merged, api.pareto_flags(merged)):
                record["pareto"] = flag
        payload["designs"] = merged
        payload["design_count"] = len(merged)
        return payload
