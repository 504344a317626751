"""Persistent on-disk cache for design evaluations (sqlite-backed).

The sweep engine's in-memory memo dies with the engine instance; this
module persists evaluated :class:`~repro.evaluation.combined.DesignEvaluation`
and :class:`~repro.evaluation.timeline.DesignTimeline` records across
processes, keyed by ``DesignSpec.cache_key()`` plus a fingerprint of the
evaluation context (case study, policy, database), so repeated CLI
sweeps across sessions only pay for designs not seen before.

Payloads are pickled value objects (designs, evaluations and timelines
are all plain picklable values).  A *scope* column separates record
kinds (``"evaluation"`` vs per-time-grid ``"timeline"`` entries) so one
cache file serves both ``repro sweep --cache`` and ``repro timeline
--cache``.

The cache is bounded: pass ``max_entries`` and/or ``max_bytes`` and
every write evicts least-recently-used entries (reads refresh recency)
until the store fits.  ``repro cache`` exposes the maintenance surface
from the command line: ``stats``, ``purge`` (everything, one scope, or
one context fingerprint) and ``trim`` to given bounds.

Concurrency guarantees
----------------------
One :class:`PersistentEvaluationCache` instance may be shared freely
across threads: the connection is opened with
``check_same_thread=False`` and an internal lock serialises every
statement-and-commit pair, so interleaved ``get``/``put``/maintenance
calls from a multi-threaded service (``repro serve``) never observe a
half-committed write or a cross-thread sqlite error.  A batch of
entries (:meth:`~PersistentEvaluationCache.put_many`; the sweep engine
writes each finished chunk this way) is one transaction: one
statement, one trim and one commit, so a chunk costs one commit, not
one per design.  Multiple
*processes* may also share one cache file — each opens its own
instance: the database runs in WAL journal mode (readers never block
the writer) with a busy timeout, so a contended write retries for up to
:data:`_BUSY_TIMEOUT_S` seconds instead of surfacing ``database is
locked``.  That multi-process safety is what makes the sqlite store
the *shared result tier* of the sharded service: engine lanes within
one ``repro serve`` process, the shard processes behind ``repro shard
--endpoints ...`` and restarted services all read and write the same
per-design records, so a failed-over shard request finds the dead
shard's finished designs already on disk.  Using a cache after :meth:`~PersistentEvaluationCache.close`
(which is idempotent) raises :class:`~repro.errors.EvaluationError`
with a clear message rather than a raw ``sqlite3.ProgrammingError``.

Degraded mode
-------------
A cache is an accelerator, never a correctness dependency — so sqlite
contention must not fail a sweep.  Errors whose result code is
``SQLITE_BUSY`` or ``SQLITE_LOCKED`` (never read from the message) that
survive the busy timeout are retried under a bounded
:class:`~repro.resilience.RetryPolicy`; if they persist, the instance
*degrades*: it stops touching the database and serves reads/writes
from a process-local dict instead (``repro_cache_degraded`` gauge set
to 1, :attr:`~PersistentEvaluationCache.degraded` property, surfaced
through ``stats()`` and the service's ``/healthz``).  Degradation is
one-way for the instance's lifetime — flapping between disk and memory
would serve neither tier predictably.
"""

from __future__ import annotations

import hashlib
import logging
import pickle
import sqlite3
import threading
from collections.abc import Hashable, Iterable
from contextlib import contextmanager

from repro import observability
from repro.errors import EvaluationError
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy

_logger = logging.getLogger(__name__)

_DISK_LOOKUPS = observability.counter(
    "repro_disk_cache_requests_total",
    "Persistent (sqlite) cache lookups by outcome.",
)
_DISK_HITS = _DISK_LOOKUPS.labels(outcome="hit")
_DISK_MISSES = _DISK_LOOKUPS.labels(outcome="miss")
_DISK_STALE = _DISK_LOOKUPS.labels(outcome="stale")
_DISK_WRITES = observability.counter(
    "repro_disk_cache_writes_total",
    "Persistent (sqlite) cache entries written.",
).labels()
_DEGRADED = observability.gauge(
    "repro_cache_degraded",
    "Whether the persistent cache fell back to memory-only mode (1) "
    "after exhausting its sqlite contention retries.",
).labels()

__all__ = ["PersistentEvaluationCache", "context_fingerprint"]

#: Salted into every context fingerprint.  Bump when the evaluation
#: pipeline's numerics change (even at the last-ulp level) or when a
#: cached payload class grows fields, so stale cache files miss instead
#: of mixing results from two pipelines: version 2 = the
#: canonical-structure COA path; version 3 = the campaign-aware
#: ``DesignTimeline`` (new ``campaign``/``phase_starts`` fields — old
#: pickles lack them, so they must not be served); version 4 = the
#: sparse-first solver dispatch (method-aware timeline keys, iterative
#: steady-state auto path above the size cutoff — entries keyed before
#: the dispatch change must miss cleanly); version 5 = the closed-form
#: upper layer (COA values move in the last ulp); version 6 = the
#: closed-form patch completion (completion curves and mean time to
#: completion move in the last bits); version 7 = security metrics over
#: host classes (``SecurityMetrics`` drops its per-path tuples; ASP and
#: ``total_risk`` move in the last bits); version 8 = one server-group
#: order (patch-completion curves follow the canonical tier order of
#: the COA and move in the last bits where a design lists its roles
#: out of order).
_PIPELINE_VERSION = b"repro-evaluation-pipeline-v8"

#: How long a contended statement retries before sqlite gives up with
#: ``database is locked`` — generous, because a competing writer only
#: holds the lock for one small INSERT/UPDATE plus commit.
_BUSY_TIMEOUT_S = 10.0

#: sqlite's primary result codes of a contended database.
_CONTENTION_CODES = frozenset({sqlite3.SQLITE_BUSY, sqlite3.SQLITE_LOCKED})


def _busy_error() -> sqlite3.OperationalError:
    """The error an injected ``cache.read``/``cache.write`` fault raises."""
    exc = sqlite3.OperationalError("database is locked (injected)")
    exc.sqlite_errorcode = sqlite3.SQLITE_BUSY
    exc.sqlite_errorname = "SQLITE_BUSY"
    return exc


def context_fingerprint(*parts: object) -> str:
    """A stable digest of the evaluation context.

    Cached results are only valid for the exact case study / policy /
    database they were computed under — and for the exact evaluation
    pipeline (:data:`_PIPELINE_VERSION` is salted in, so entries written
    by a numerically different release read as misses).  All
    evaluation-context objects are plain picklable value objects, and
    each is pickled
    independently so one unpicklable part fails loudly here rather than
    silently aliasing distinct contexts.
    """
    digest = hashlib.sha256()
    digest.update(_PIPELINE_VERSION)
    for part in parts:
        try:
            digest.update(pickle.dumps(part, protocol=4))
        except Exception as exc:
            raise EvaluationError(
                f"cannot fingerprint evaluation context part {type(part).__name__}: "
                f"{exc}"
            ) from exc
    return digest.hexdigest()[:32]


class PersistentEvaluationCache:
    """A ``(scope, key) -> pickled payload`` store in one sqlite file.

    Parameters
    ----------
    path:
        The sqlite database file; created (with its table) on first use.
        Files written by earlier versions are migrated in place (the
        recency/size columns are added on open).
    max_entries:
        Optional cap on the number of stored entries; writes evict the
        least-recently-used entries beyond it.
    max_bytes:
        Optional cap on the summed payload size, enforced the same way.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "cache.sqlite")
    >>> cache = PersistentEvaluationCache(path)
    >>> cache.put("evaluation", "k1", {"coa": 0.99})
    >>> cache.get("evaluation", "k1")
    {'coa': 0.99}
    >>> cache.get("evaluation", "missing") is None
    True
    """

    #: Contention recovery: three attempts, 50 ms → 100 ms backoff.
    DEFAULT_RETRY = RetryPolicy(attempts=3, base_delay=0.05)

    def __init__(
        self,
        path,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.path = str(path)
        for bound, name in ((max_entries, "max_entries"), (max_bytes, "max_bytes")):
            if bound is not None and bound < 1:
                raise EvaluationError(f"{name} must be >= 1, got {bound}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.retry_policy = retry_policy or self.DEFAULT_RETRY
        self._degraded = False
        #: Memory-only fallback store once degraded: pickled payloads
        #: keyed like the table, so served values stay copies.
        self._fallback: dict[tuple[str, str], bytes] = {}
        self._seq: int | None = None
        # One instance may be shared across service threads: the lock
        # serialises every statement+commit pair, and the connection is
        # opened thread-agnostic (sqlite objects are only ever touched
        # under the lock).  `timeout` is sqlite's busy timeout: writes
        # contending with another *process* on the same file retry
        # instead of raising `database is locked`.
        self._lock = threading.Lock()
        self._closed = False
        try:
            self._conn = sqlite3.connect(
                self.path, check_same_thread=False, timeout=_BUSY_TIMEOUT_S
            )
            # WAL lets concurrent readers proceed while one process
            # writes; best-effort because some filesystems (network
            # mounts) refuse it — the busy timeout still applies then.
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
            except sqlite3.Error:
                pass
            self._conn.execute(
                f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "  scope TEXT NOT NULL,"
                "  key TEXT NOT NULL,"
                "  payload BLOB NOT NULL,"
                "  PRIMARY KEY (scope, key)"
                ")"
            )
            self._migrate()
            self._conn.commit()
        except sqlite3.Error as exc:
            raise EvaluationError(
                f"cannot open evaluation cache at {self.path!r}: {exc}"
            ) from exc

    def _columns(self) -> set[str]:
        return {row[1] for row in self._conn.execute("PRAGMA table_info(entries)")}

    def _migrate(self) -> None:
        """Add the recency/size columns to pre-LRU cache files."""
        columns = self._columns()
        try:
            if "used_seq" not in columns:
                self._conn.execute(
                    "ALTER TABLE entries ADD COLUMN used_seq INTEGER NOT NULL DEFAULT 0"
                )
            if "size_bytes" not in columns:
                self._conn.execute(
                    "ALTER TABLE entries ADD COLUMN size_bytes INTEGER NOT NULL DEFAULT 0"
                )
                self._conn.execute(
                    "UPDATE entries SET size_bytes = LENGTH(payload)"
                )
        except sqlite3.OperationalError:
            # Two processes opening one pre-LRU file race the ALTERs.
            # The loser's error carries no code of its own (a duplicate
            # column is a plain SQLITE_ERROR): it is no error once the
            # winner's columns exist.
            if not {"used_seq", "size_bytes"} <= self._columns():
                raise

    @contextmanager
    def _locked(self, operation: str):
        """Serialise one statement+commit; reject use after close."""
        with self._lock:
            if self._closed:
                raise EvaluationError(
                    f"evaluation cache at {self.path!r} is closed; "
                    f"cannot {operation} (create a new "
                    "PersistentEvaluationCache to reopen it)"
                )
            yield

    @staticmethod
    def entry_key(fingerprint: str, *parts: Hashable) -> str:
        """The canonical text key for a cache entry."""
        return repr((fingerprint, *parts))

    # -- degraded-mode plumbing ----------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether the cache fell back to memory-only operation."""
        return self._degraded

    @staticmethod
    def _is_contention(exc: BaseException) -> bool:
        """A busy or locked database, by sqlite's result code (an
        extended code carries its primary one in the low byte)."""
        code = getattr(exc, "sqlite_errorcode", None)
        return code is not None and code & 0xFF in _CONTENTION_CODES

    def _rollback(self, *_ignored) -> None:
        """Best-effort rollback between contention retries."""
        try:
            self._conn.rollback()
        except sqlite3.Error:
            pass

    def _degrade(self, operation: str, exc: BaseException) -> None:
        self._degraded = True
        _DEGRADED.set(1)
        _logger.warning(
            "evaluation cache at %r degraded to memory-only after "
            "persistent sqlite contention on %s: %s",
            self.path,
            operation,
            exc,
        )

    def _next_seq(self) -> int:
        # The counter lives in memory after one MAX scan at first use;
        # concurrent writers may hand out equal sequence numbers, which
        # only makes their entries tie in LRU order — harmless.
        if self._seq is None:
            row = self._conn.execute(
                "SELECT IFNULL(MAX(used_seq), 0) FROM entries"
            ).fetchone()
            self._seq = int(row[0])
        self._seq += 1
        return self._seq

    def get(self, scope: str, key: str):
        """The stored payload, or ``None`` on a miss (or stale pickle).

        A hit refreshes the entry's recency (best effort), so hot
        entries survive LRU trimming.  Contended reads retry under the
        cache's :class:`~repro.resilience.RetryPolicy`; persistent
        contention degrades the instance to memory-only (a miss here,
        never a failed sweep).
        """
        if self._degraded:
            row = (
                (self._fallback[(scope, key)],)
                if (scope, key) in self._fallback
                else None
            )
        else:
            try:
                row = self.retry_policy.call(
                    lambda: self._get_row(scope, key),
                    retry_on=(sqlite3.OperationalError,),
                    should_retry=self._is_contention,
                    before_retry=self._rollback,
                )
            except sqlite3.Error as exc:
                if self._is_contention(exc):
                    self._degrade("get", exc)
                    _DISK_MISSES.inc()
                    return None
                raise EvaluationError(
                    f"evaluation cache read failed ({self.path!r}): {exc}"
                ) from exc
        if row is None:
            _DISK_MISSES.inc()
            return None
        try:
            value = pickle.loads(row[0])
        except Exception:
            # A payload written by an incompatible library version is a
            # miss, not an error: the caller recomputes and overwrites.
            _DISK_STALE.inc()
            _logger.debug(
                "stale cache payload for (%s, %s…): treating as miss",
                scope,
                key[:16],
            )
            return None
        _DISK_HITS.inc()
        return value

    def _get_row(self, scope: str, key: str):
        with self._locked("get"):
            fault_point("cache.read", error=_busy_error())
            row = self._conn.execute(
                "SELECT payload FROM entries WHERE scope = ? AND key = ?",
                (scope, key),
            ).fetchone()
            if row is not None:
                # Recency tracking must not turn reads into hard writes: a
                # read-only or contended cache file still serves hits.
                try:
                    self._conn.execute(
                        "UPDATE entries SET used_seq = ? WHERE scope = ? AND key = ?",
                        (self._next_seq(), scope, key),
                    )
                    self._conn.commit()
                except sqlite3.Error:
                    pass
        return row

    def put(self, scope: str, key: str, value: object) -> None:
        """Store (or replace) *value* under ``(scope, key)``.

        The one-item case of :meth:`put_many`.
        """
        self.put_many(scope, [(key, value)])

    def put_many(self, scope: str, items: Iterable[tuple[str, object]]) -> None:
        """Store (or replace) each ``(key, value)`` of *items* under *scope*.

        The items are written in one transaction: one statement, one
        trim, one commit.  Later items are more recent, as if put one
        by one.  When size bounds are configured, least-recently-used
        entries are evicted until the store fits again.  Contended
        writes retry under the cache's
        :class:`~repro.resilience.RetryPolicy`; persistent contention
        degrades the instance to memory-only and the items land in the
        fallback dict instead of failing.
        """
        rows = [(key, pickle.dumps(value, protocol=4)) for key, value in items]
        if not rows:
            return
        if not self._degraded:
            try:
                self.retry_policy.call(
                    lambda: self._put_rows(scope, rows),
                    retry_on=(sqlite3.OperationalError,),
                    should_retry=self._is_contention,
                    before_retry=self._rollback,
                )
            except sqlite3.Error as exc:
                if not self._is_contention(exc):
                    raise EvaluationError(
                        f"evaluation cache write failed ({self.path!r}): {exc}"
                    ) from exc
                self._degrade("put", exc)
            else:
                _DISK_WRITES.inc(len(rows))
                _logger.debug("cached %d payload(s) under scope %s", len(rows), scope)
                return
        for key, payload in rows:
            self._fallback[(scope, key)] = payload

    def _put_rows(self, scope: str, rows: list[tuple[str, bytes]]) -> None:
        with self._locked("put"):
            fault_point("cache.write", error=_busy_error())
            self._conn.executemany(
                "INSERT OR REPLACE INTO entries "
                "(scope, key, payload, used_seq, size_bytes) "
                "VALUES (?, ?, ?, ?, ?)",
                [
                    (scope, key, payload, self._next_seq(), len(payload))
                    for key, payload in rows
                ],
            )
            self._trim_locked(self.max_entries, self.max_bytes)
            self._conn.commit()

    # -- maintenance ----------------------------------------------------------

    def stats(self) -> dict:
        """Entry/byte counts, total and per scope (plus the bounds)."""
        if self._degraded:
            scopes: dict[str, dict[str, int]] = {}
            for (scope, _key), payload in self._fallback.items():
                entry = scopes.setdefault(scope, {"entries": 0, "bytes": 0})
                entry["entries"] += 1
                entry["bytes"] += len(payload)
            return {
                "path": self.path,
                "entries": len(self._fallback),
                "bytes": sum(len(p) for p in self._fallback.values()),
                "scopes": dict(sorted(scopes.items())),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "degraded": True,
            }
        with self._locked("stats"):
            try:
                total, total_bytes = self._conn.execute(
                    "SELECT COUNT(*), IFNULL(SUM(size_bytes), 0) FROM entries"
                ).fetchone()
                scopes = {
                    scope: {"entries": count, "bytes": size}
                    for scope, count, size in self._conn.execute(
                        "SELECT scope, COUNT(*), IFNULL(SUM(size_bytes), 0) "
                        "FROM entries GROUP BY scope ORDER BY scope"
                    )
                }
            except sqlite3.Error as exc:
                raise EvaluationError(
                    f"evaluation cache stats failed ({self.path!r}): {exc}"
                ) from exc
        return {
            "path": self.path,
            "entries": int(total),
            "bytes": int(total_bytes),
            "scopes": scopes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "degraded": self._degraded,
        }

    def purge(
        self, fingerprint: str | None = None, scope: str | None = None
    ) -> int:
        """Delete entries; returns the number removed.

        With *fingerprint*, only entries of that evaluation context are
        removed (keys embed the fingerprint as their first component);
        with *scope*, only that record kind; with neither, everything.
        """
        clauses, params = [], []
        if scope is not None:
            clauses.append("scope = ?")
            params.append(scope)
        if fingerprint is not None:
            clauses.append("key LIKE ?")
            params.append(f"({fingerprint!r},%")
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._locked("purge"):
            try:
                cursor = self._conn.execute(f"DELETE FROM entries{where}", params)
                self._conn.commit()
            except sqlite3.Error as exc:
                raise EvaluationError(
                    f"evaluation cache purge failed ({self.path!r}): {exc}"
                ) from exc
        return cursor.rowcount

    def trim(
        self, max_entries: int | None = None, max_bytes: int | None = None
    ) -> int:
        """Evict least-recently-used entries down to the given bounds.

        Returns the number of entries removed.  Bounds default to the
        cache's configured ones; passing explicit values trims a cache
        opened without bounds.
        """
        max_entries = max_entries if max_entries is not None else self.max_entries
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        for bound, name in ((max_entries, "max_entries"), (max_bytes, "max_bytes")):
            if bound is not None and bound < 1:
                raise EvaluationError(f"{name} must be >= 1, got {bound}")
        if max_entries is None and max_bytes is None:
            return 0
        with self._locked("trim"):
            try:
                removed = self._trim_locked(max_entries, max_bytes)
                self._conn.commit()
            except sqlite3.Error as exc:
                raise EvaluationError(
                    f"evaluation cache trim failed ({self.path!r}): {exc}"
                ) from exc
        return removed

    def _trim_locked(
        self, max_entries: int | None, max_bytes: int | None
    ) -> int:
        removed = 0
        if max_entries is not None:
            count = self._conn.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()[0]
            excess = count - max_entries
            if excess > 0:
                cursor = self._conn.execute(
                    "DELETE FROM entries WHERE rowid IN ("
                    "  SELECT rowid FROM entries ORDER BY used_seq ASC LIMIT ?"
                    ")",
                    (excess,),
                )
                removed += cursor.rowcount
        if max_bytes is not None:
            total = self._conn.execute(
                "SELECT IFNULL(SUM(size_bytes), 0) FROM entries"
            ).fetchone()[0]
            if total > max_bytes:
                # One pass over entries by recency: accumulate the excess
                # and delete the least-recently-used prefix in one go,
                # always keeping the most recent entry.
                victims: list[int] = []
                rows = self._conn.execute(
                    "SELECT rowid, size_bytes FROM entries "
                    "ORDER BY used_seq ASC"
                ).fetchall()
                for rowid, size in rows[:-1]:
                    if total <= max_bytes:
                        break
                    victims.append(rowid)
                    total -= size
                if victims:
                    marks = ",".join("?" for _ in victims)
                    cursor = self._conn.execute(
                        f"DELETE FROM entries WHERE rowid IN ({marks})",
                        victims,
                    )
                    removed += cursor.rowcount
        return removed

    def __len__(self) -> int:
        with self._locked("count"):
            return int(
                self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
            )

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Close the underlying connection (idempotent).

        Any later ``get``/``put``/``stats``/``trim``/``purge`` raises
        :class:`~repro.errors.EvaluationError` instead of a raw
        ``sqlite3.ProgrammingError``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._conn.close()

    def __enter__(self) -> "PersistentEvaluationCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
