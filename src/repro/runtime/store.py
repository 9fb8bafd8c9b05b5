"""Content-addressed result store: sqlite key → JSON table plus a hot LRU.

Every :class:`~repro.runtime.shard.Task` has a canonical **cache key** — the
SHA-256 of the canonical JSON encoding of::

    {"function": <module:qualname>, "parameters": {...},
     "seeds": [...], "code_version": <repro.__version__>}

Two tasks share a key exactly when they would compute the same metrics:
same replication function, same parameters (order-insensitive, tuples and
numpy scalars normalised), same seed list, same code version.  Sweep names,
shard layout and worker counts are deliberately *not* part of the key, so a
result computed by any execution strategy serves every other one.

Storage has two parts:

sqlite table
    The only durable tier.  One ``results`` row per key carries the task's
    provenance and its metric rows inline as JSON.  Python's float repr
    round-trips every non-NaN float64 (``-0.0``, subnormals, infinities)
    bit-identically; NaN comes back as NaN, without its sign or payload
    bits.  Ints, bools, ``None`` and strings keep their types.
hot LRU
    An in-memory map of decoded metric rows bounded by ``hot_budget_bytes``
    (an estimate of their decoded size).  Every ``put`` and every sqlite
    read admits the entry; over-budget entries are evicted least-recently
    used first, and an entry larger than the whole budget is never admitted
    (it is read from sqlite every time instead of thrashing the LRU).

Stores written by earlier versions open unchanged.  A store whose rows point
at ``.npz`` segment files in a ``<path>.segments/`` directory is migrated on
open: every such row is decoded once into inline JSON and committed, and
only then are the migrated segment files deleted.

Writes happen only from the opening process — workers return results to the
parent, which flushes each completed shard — but that process may be
multi-threaded: the API daemon's worker threads read and write one shared
store concurrently.  All access is therefore serialised behind an internal
lock (one connection, ``check_same_thread=False``), and file-backed stores
run in WAL mode with a busy timeout so a second *process* pointing at the
same file (a CLI run next to a daemon) blocks briefly instead of failing
with ``database is locked``.  ``hits``/``misses`` count :meth:`get`
outcomes; :meth:`counters` snapshots them with the LRU breakdown (hot hits,
cold hits, evictions) atomically so callers can attribute deltas to a span
of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
import threading
from collections import OrderedDict
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import __version__
from repro.runtime.shard import Task

PathLike = Union[str, Path]

_BUSY_TIMEOUT_SECONDS = 30.0

DEFAULT_HOT_BUDGET_BYTES = 64 * 2**20
"""Default in-memory hot-tier budget (64 MiB of estimated decoded rows)."""

_SELECT_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    function TEXT NOT NULL,
    name TEXT NOT NULL,
    parameters TEXT NOT NULL,
    seeds TEXT NOT NULL,
    code_version TEXT NOT NULL,
    metrics TEXT NOT NULL,
    created_at TEXT NOT NULL
)
"""

# Naming the columns keeps the insert valid (or loudly broken) if the schema
# ever gains a column; a positional VALUES (?,...) would silently misalign.
_INSERT = """
INSERT OR REPLACE INTO results
    (key, function, name, parameters, seeds, code_version, metrics,
     created_at)
VALUES (?, ?, ?, ?, ?, ?, ?, ?)
"""


def canonical_value(value: Any) -> Any:
    """Normalise ``value`` for canonical JSON encoding.

    Mappings are key-sorted, sequences become lists, numpy scalars and
    0-d arrays become Python scalars.  Unsupported types raise ``TypeError``
    rather than falling back to ``str`` — a silent fallback could make two
    different parameterisations collide on one key.  Non-finite floats raise
    ``ValueError``: RFC 8259 JSON has no ``NaN``/``Infinity`` tokens, so a
    key built from them could not round-trip through other JSON parsers
    (and ``NaN != NaN`` makes such a parameter unmatchable anyway).
    """
    if isinstance(value, dict):
        normalized = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(
                    f"cache-key parameter names must be strings, got {key!r}"
                )
            normalized[key] = canonical_value(value[key])
        return normalized
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return [canonical_value(item) for item in value.tolist()]
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return canonical_value(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(
            f"non-finite float {value!r} cannot appear in a cache key: "
            "JSON (RFC 8259) has no NaN/Infinity tokens, so the key would "
            "not round-trip; replace it with a finite sentinel value"
        )
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot build a canonical cache key from {type(value).__name__} "
        f"value {value!r}; use scalars, strings, sequences or mappings"
    )


def canonical_json(value: Any) -> str:
    """Deterministic, RFC-compliant JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(
        canonical_value(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def task_key(task: Task, code_version: str = __version__) -> str:
    """The content-addressed cache key of ``task``."""
    payload = canonical_json(
        {
            "function": task.function_ref,
            "parameters": task.parameters,
            "seeds": list(task.seeds),
            "code_version": code_version,
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class StoreCounters(NamedTuple):
    """Atomic snapshot of a store's counters.

    ``hits``/``misses`` count every :meth:`ResultStore.get` outcome;
    ``hits == hot_hits + cold_hits`` always, where a hot hit is served by
    the in-memory LRU and a cold hit is read from sqlite.  ``evictions``
    counts entries dropped from the LRU by its byte budget.
    """

    hits: int
    misses: int
    hot_hits: int
    cold_hits: int
    evictions: int

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (the daemon's ``/stats`` payload)."""
        return dict(self._asdict())


Metrics = List[Dict[str, float]]


def _estimate_entry_bytes(metrics: Sequence[Dict[str, Any]]) -> int:
    """Cheap size estimate of decoded metric rows for the hot-tier budget."""
    total = 88
    for row in metrics:
        total += 72
        for name in row:
            total += 72 + len(name)
    return total


def _decode_segment_entry(arrays: Dict[str, np.ndarray], entry: int) -> Metrics:
    """One entry's metric rows from an earlier version's ``.npz`` segment.

    A segment holds ``offsets`` (row range per entry), column ``names`` and
    a float64 ``values`` matrix with a ``present`` mask; only all-float rows
    were ever written there, so the rebuilt rows are bit-identical.
    """
    offsets = arrays["offsets"]
    names = [str(name) for name in arrays["names"]]
    values = arrays["values"]
    present = arrays["present"]
    metrics: Metrics = []
    for row_index in range(int(offsets[entry]), int(offsets[entry + 1])):
        metrics.append(
            {
                name: float(values[row_index, column])
                for column, name in enumerate(names)
                if present[row_index, column]
            }
        )
    return metrics


class _HotTier:
    """In-memory LRU of decoded entries; the caller holds the store lock."""

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = budget_bytes
        self.bytes = 0
        self._entries: "OrderedDict[str, Tuple[Tuple[Dict[str, Any], ...], int]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Tuple[Dict[str, Any], ...]]:
        found = self._entries.get(key)
        if found is None:
            return None
        self._entries.move_to_end(key)
        return found[0]

    def admit(self, key: str, metrics: Sequence[Dict[str, Any]]) -> int:
        """Insert ``key`` (copying the rows); returns the number of evictions.

        An entry larger than the whole byte budget is not admitted at all —
        caching it would evict everything else for a single resident.
        """
        self.discard(key)
        size = _estimate_entry_bytes(metrics)
        if size > self.budget_bytes:
            return 0
        self._entries[key] = (tuple(dict(row) for row in metrics), size)
        self.bytes += size
        evicted = 0
        while self.bytes > self.budget_bytes:
            _, (_, victim_size) = self._entries.popitem(last=False)
            self.bytes -= victim_size
            evicted += 1
        return evicted

    def discard(self, key: str) -> None:
        found = self._entries.pop(key, None)
        if found is not None:
            self.bytes -= found[1]


class ResultStore:
    """A persistent, content-addressed cache of task metrics.

    Parameters
    ----------
    path:
        Sqlite file (created, with parents, if missing) or ``":memory:"``
        for an ephemeral store.
    code_version:
        Version string mixed into every key (default: ``repro.__version__``),
        so upgrading the library naturally invalidates old entries.
    hot_budget_bytes:
        Budget of the in-memory LRU, in estimated decoded bytes.

    Thread safety: every operation runs behind one internal lock (a single
    sqlite connection, ``check_same_thread=False``), so a store instance may
    be shared freely between threads (the API daemon shares one store
    across its whole worker pool).  Sharing one *file* between processes is
    safe for reads and writes — WAL mode plus a 30-second busy timeout —
    though counters are per-instance.
    """

    def __init__(
        self,
        path: PathLike = ":memory:",
        *,
        code_version: str = __version__,
        hot_budget_bytes: int = DEFAULT_HOT_BUDGET_BYTES,
    ) -> None:
        if hot_budget_bytes <= 0:
            raise ValueError(
                f"hot_budget_bytes must be positive, got {hot_budget_bytes}"
            )
        self.path = path if path == ":memory:" else Path(path)
        self.code_version = code_version
        self.hits = 0
        self.misses = 0
        self.hot_hits = 0
        self.cold_hits = 0
        self.evictions = 0
        self._hot = _HotTier(hot_budget_bytes)
        self._lock = threading.RLock()
        if isinstance(self.path, Path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
            str(self.path),
            timeout=_BUSY_TIMEOUT_SECONDS,
            check_same_thread=False,
        )
        # WAL lets a concurrent reader proceed during a write (it is a no-op
        # "memory" mode for :memory: stores); the busy timeout makes a second
        # writer on the same file wait instead of raising "database is
        # locked".
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute(
            f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_SECONDS * 1000)}"
        )
        self._connection.execute(_SCHEMA)
        self._connection.commit()
        self._migrate_segments()

    def _migrate_segments(self) -> None:
        """Inline the ``.npz`` segment rows of an earlier store layout.

        That layout added ``segment``/``entry`` columns to ``results``: a
        row either carried inline JSON metrics (both NULL) or pointed at
        entry ``entry`` of ``<path>.segments/<segment>``.  Every pointer row
        is decoded once and rewritten as inline JSON, and the two columns
        are dropped, in one transaction; the segment files are deleted only
        after that commit, so a failure before it leaves the old store
        intact.
        """
        connection = self._connection
        columns = {row[1] for row in connection.execute("PRAGMA table_info(results)")}
        if "segment" not in columns:
            return
        segments_dir = Path(str(self.path) + ".segments")
        loaded: Dict[str, Dict[str, np.ndarray]] = {}
        with connection:  # commits on success, rolls back on any error
            connection.execute("BEGIN IMMEDIATE")
            located = connection.execute(
                "SELECT key, segment, entry FROM results WHERE segment IS NOT NULL"
            ).fetchall()
            updates = []
            for key, segment, entry in located:
                if segment not in loaded:
                    with np.load(segments_dir / segment) as payload:
                        loaded[segment] = {
                            name: payload[name] for name in payload.files
                        }
                metrics = _decode_segment_entry(loaded[segment], int(entry))
                updates.append((json.dumps(metrics), key))
            connection.executemany(
                "UPDATE results SET metrics = ? WHERE key = ?", updates
            )
            connection.execute("ALTER TABLE results DROP COLUMN segment")
            connection.execute("ALTER TABLE results DROP COLUMN entry")
        for segment in loaded:
            (segments_dir / segment).unlink()
        if segments_dir.is_dir() and not any(segments_dir.iterdir()):
            segments_dir.rmdir()

    def _require_connection(self) -> sqlite3.Connection:
        if self._connection is None:
            raise RuntimeError(f"result store {self.path} is closed")
        return self._connection

    def key_for(self, task: Task) -> str:
        """Cache key of ``task`` under this store's code version."""
        return task_key(task, self.code_version)

    # -- read path -----------------------------------------------------------

    def _read_cold(self, key: str, metrics_json: str) -> Metrics:
        # Caller holds the lock.
        metrics = json.loads(metrics_json)
        self.evictions += self._hot.admit(key, metrics)
        self.hits += 1
        self.cold_hits += 1
        return metrics

    def _read_hot(self, key: str) -> Optional[Metrics]:
        # Caller holds the lock.  Callers get fresh row dicts so nobody can
        # mutate the LRU's copy.
        hot = self._hot.get(key)
        if hot is None:
            return None
        self.hits += 1
        self.hot_hits += 1
        return [dict(row) for row in hot]

    def get(self, key: str) -> Optional[Metrics]:
        """Stored metrics for ``key``, or ``None`` (counts hits/misses)."""
        with self._lock:
            connection = self._require_connection()
            hot = self._read_hot(key)
            if hot is not None:
                return hot
            row = connection.execute(
                "SELECT metrics FROM results WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            return self._read_cold(key, row[0])

    def get_many(self, keys: Sequence[str]) -> Dict[str, Metrics]:
        """Bulk lookup: metrics for every stored key in ``keys``.

        One query per 500 keys instead of one per key — the fast path for
        store-bound replay of large plans.  Counts hits/misses per key
        occurrence exactly as per-key :meth:`get` calls would: a repeated
        key is a hot hit when found (its first occurrence admitted it) and
        another miss when not.
        """
        unique = list(dict.fromkeys(keys))
        found: Dict[str, Metrics] = {}
        with self._lock:
            connection = self._require_connection()
            pending: List[str] = []
            for key in unique:
                hot = self._read_hot(key)
                if hot is None:
                    pending.append(key)
                else:
                    found[key] = hot
            for start in range(0, len(pending), _SELECT_CHUNK):
                chunk = pending[start : start + _SELECT_CHUNK]
                placeholders = ",".join("?" for _ in chunk)
                for key, metrics_json in connection.execute(
                    f"SELECT key, metrics FROM results WHERE key IN ({placeholders})",
                    chunk,
                ):
                    found[key] = self._read_cold(key, metrics_json)
            duplicate_hits = sum(1 for key in keys if key in found) - len(found)
            self.hits += duplicate_hits
            self.hot_hits += duplicate_hits
            self.misses += len(keys) - len(found) - duplicate_hits
        return found

    # -- write path ----------------------------------------------------------

    def put(self, task: Task, metrics: Metrics) -> str:
        """Store ``metrics`` for ``task``; returns the key."""
        return self.put_many([(task, metrics)])[0]

    def put_many(self, entries: Iterable[Tuple[Task, Metrics]]) -> List[str]:
        """Store a batch of results in one transaction (a shard flush).

        Every entry is also admitted to the LRU, so a put followed by a get
        is a hot hit.
        """
        now = datetime.now(timezone.utc).isoformat()
        keyed = [(self.key_for(task), task, metrics) for task, metrics in entries]
        rows = [
            (
                key,
                task.function_ref,
                task.name,
                canonical_json(task.parameters),
                json.dumps(list(task.seeds)),
                self.code_version,
                json.dumps(metrics),
                now,
            )
            for key, task, metrics in keyed
        ]
        with self._lock:
            connection = self._require_connection()
            connection.executemany(_INSERT, rows)
            connection.commit()
            for key, _, metrics in keyed:
                self.evictions += self._hot.admit(key, metrics)
        return [key for key, _, _ in keyed]

    def compact(self) -> None:
        """Checkpoint the write-ahead log into the database file.

        The store's one maintenance call: it folds every committed write
        into the main file and truncates the log, so later reads need not
        consult it.  Readers in other processes are waited for, up to the
        busy timeout.  A no-op for ``:memory:`` stores.
        """
        with self._lock:
            self._require_connection().execute("PRAGMA wal_checkpoint(TRUNCATE)")

    # -- introspection ---------------------------------------------------------

    def counters(self) -> StoreCounters:
        """Atomic snapshot of this instance's counters."""
        with self._lock:
            return StoreCounters(
                hits=self.hits,
                misses=self.misses,
                hot_hits=self.hot_hits,
                cold_hits=self.cold_hits,
                evictions=self.evictions,
            )

    @property
    def hot_entries(self) -> int:
        """Entries currently resident in the hot tier."""
        with self._lock:
            return len(self._hot)

    @property
    def hot_bytes(self) -> int:
        """Estimated bytes currently resident in the hot tier."""
        with self._lock:
            return self._hot.bytes

    def __contains__(self, key: str) -> bool:
        with self._lock:
            connection = self._require_connection()
            if key in self._hot:
                return True
            row = connection.execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            row = (
                self._require_connection()
                .execute("SELECT COUNT(*) FROM results")
                .fetchone()
            )
        return int(row[0])

    def close(self) -> None:
        """Close the sqlite connection (idempotent)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._connection is None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
