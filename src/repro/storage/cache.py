"""Redis-style TTL cache.

CrypText places a Redis cache in front of its slower DB queries so that
repeated Look Up / Normalization requests are served from memory (paper
§III-F).  :class:`TTLCache` reproduces the behaviour the system relies on:

* ``get`` / ``set`` with a per-entry time-to-live;
* bounded capacity with least-recently-used eviction;
* lazy expiry: an entry expires when it is read after its deadline, and an
  entry that is never read again is evicted in LRU order like any other,
  so a ``set`` never scans the cache for expired entries;
* hit/miss/eviction statistics (used by the cache ablation benchmark);
* an injectable clock so tests can control expiry deterministically;
* optional *tags* on entries so groups of related keys can be invalidated
  together (the lookup engine tags every cached Look Up result with its
  phonetic sound key, letting a dictionary write drop exactly the stale
  buckets instead of flushing the whole cache), and an index of the
  untagged entries so dropping them all costs only their own number;
* :meth:`TTLCache.set_if`, a store guarded by a caller's check under the
  cache lock — the query cache and the batch memo store every entry
  through it, guarded by the dictionary version;
* thread safety — the batch engine serves Look Up / Normalization from
  worker threads while the crawler enriches the dictionary concurrently.

:func:`make_key` builds those entries' hashable keys from call arguments.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from ..analysis.sanitizer import tracked_rlock
from ..errors import CacheError

_MISSING = object()


@dataclass
class CacheStats:
    """Counters describing cache effectiveness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    sets: int = 0

    @property
    def requests(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get`` calls served from cache (0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict[str, float | int]:
        """Serialize the counters plus the derived hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "sets": self.sets,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    value: Any
    expires_at: float
    tags: tuple[Hashable, ...] = ()


class TTLCache:
    """Bounded key/value cache with per-entry TTL, LRU eviction and tags.

    Expiry is lazy: ``get`` drops an entry it finds past its deadline, and
    an entry that is never read again is evicted in LRU order once the
    cache is full.  ``len`` and :meth:`keys` may therefore count expired
    entries; no read ever returns one.

    Parameters
    ----------
    max_entries:
        Capacity; inserting beyond it evicts the least recently used entry.
    default_ttl:
        TTL in seconds applied when ``set`` is called without an explicit
        ``ttl``.
    clock:
        Callable returning the current time in seconds.  Defaults to
        :func:`time.monotonic`; tests inject a fake clock.

    All public operations are thread-safe: a single reentrant lock guards the
    entry map and the tag index.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        default_ttl: float = 300.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_entries <= 0:
            raise CacheError(f"max_entries must be positive, got {max_entries}")
        if default_ttl <= 0:
            raise CacheError(f"default_ttl must be positive, got {default_ttl}")
        self.max_entries = max_entries
        self.default_ttl = default_ttl
        self._clock = clock or time.monotonic
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._tag_index: dict[Hashable, set[Hashable]] = {}
        # Keys of the entries that carry no tags, kept in step with
        # _entries by every store and removal (see _link/_unlink).
        self._untagged: set[Hashable] = set()
        self._lock = tracked_rlock("storage.cache")
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return self.get(key, default=_MISSING) is not _MISSING

    # ------------------------------------------------------------------ #
    def _link(self, key: Hashable, tags: tuple[Hashable, ...]) -> None:
        if not tags:
            self._untagged.add(key)
        for tag in tags:
            self._tag_index.setdefault(tag, set()).add(key)

    def _unlink(self, key: Hashable, entry: _Entry) -> None:
        if not entry.tags:
            self._untagged.discard(key)
        for tag in entry.tags:
            keys = self._tag_index.get(tag)
            if keys is None:
                continue
            keys.discard(key)
            if not keys:
                del self._tag_index[tag]

    def _remove(self, key: Hashable) -> _Entry | None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._unlink(key, entry)
        return entry

    def set(
        self,
        key: Hashable,
        value: Any,
        ttl: float | None = None,
        tags: Iterable[Hashable] = (),
    ) -> None:
        """Store ``value`` under ``key`` for ``ttl`` seconds (default TTL if omitted).

        ``tags`` associates the entry with invalidation groups; a later
        :meth:`invalidate_tag` on any of them drops the entry.
        """
        if ttl is not None and ttl <= 0:
            raise CacheError(f"ttl must be positive, got {ttl}")
        frozen_tags = tuple(tags)
        with self._lock:
            now = self._clock()
            lifetime = self.default_ttl if ttl is None else ttl
            if key in self._entries:
                self._remove(key)
            elif len(self._entries) >= self.max_entries:
                oldest_key, oldest_entry = self._entries.popitem(last=False)
                self._unlink(oldest_key, oldest_entry)
                self.stats.evictions += 1
            self._entries[key] = _Entry(
                value=value, expires_at=now + lifetime, tags=frozen_tags
            )
            self._link(key, frozen_tags)
            self.stats.sets += 1

    def set_if(
        self,
        key: Hashable,
        value: Any,
        guard: Callable[[], bool],
        ttl: float | None = None,
        tags: Iterable[Hashable] = (),
    ) -> bool:
        """Store ``value`` only if ``guard()`` is true, atomically.

        The guard runs under the cache lock, so the check and the store
        cannot interleave with :meth:`invalidate_tag`.  With writers that
        bump a version *before* dropping tagged entries, a reader that
        captures the version, computes, then calls ``set_if`` with a
        ``guard`` comparing versions can never leave a stale entry behind:
        either the guard sees the moved version and skips the store, or the
        store lands before the invalidation and is dropped by it.  Returns
        whether the value was stored.
        """
        with self._lock:
            if not guard():
                return False
            self.set(key, value, ttl=ttl, tags=tags)
            return True

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value or ``default``; counts a hit or a miss."""
        with self._lock:
            now = self._clock()
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return default
            if entry.expires_at <= now:
                self._remove(key)
                self.stats.expirations += 1
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.value

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` if present; return whether something was removed."""
        with self._lock:
            return self._remove(key) is not None

    def invalidate_tag(self, tag: Hashable) -> int:
        """Drop every entry carrying ``tag``; returns how many were removed."""
        with self._lock:
            keys = self._tag_index.get(tag)
            if not keys:
                return 0
            doomed = list(keys)
            for key in doomed:
                self._remove(key)
            return len(doomed)

    def invalidate_tags(self, tags: Iterable[Hashable]) -> int:
        """Drop every entry carrying any of ``tags``; returns removals."""
        return sum(self.invalidate_tag(tag) for tag in set(tags))

    def invalidate_untagged(self) -> int:
        """Drop every entry that carries no tags; returns removals.

        For entries whose dependencies are unknown, which no tag can reach.
        No cache owner in this package stores one; ``perfbench``'s tracer
        still wraps this method by name.  Costs O(untagged entries), not
        O(cache size).
        """
        with self._lock:
            doomed, self._untagged = self._untagged, set()
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        with self._lock:
            self._entries.clear()
            self._tag_index.clear()
            self._untagged.clear()

    def keys(self) -> tuple[Hashable, ...]:
        """Currently stored keys, in LRU order (least recently used first).

        An expired entry stays here until a ``get`` reads it (and drops it)
        or LRU eviction reclaims it.
        """
        with self._lock:
            return tuple(self._entries)

    def tags(self) -> tuple[Hashable, ...]:
        """Tags currently attached to at least one live entry."""
        with self._lock:
            return tuple(self._tag_index)


def make_key(*args: Any, **kwargs: Any) -> Hashable:
    """Build a hashable cache key from call arguments.

    Lists/sets are converted to tuples; dictionaries to sorted item tuples.
    """

    def freeze(value: Any) -> Hashable:
        if isinstance(value, (list, tuple)):
            return tuple(freeze(item) for item in value)
        if isinstance(value, (set, frozenset)):
            return tuple(sorted(freeze(item) for item in value))
        if isinstance(value, dict):
            return tuple(sorted((key, freeze(val)) for key, val in value.items()))
        return value

    return (
        tuple(freeze(arg) for arg in args),
        tuple(sorted((name, freeze(value)) for name, value in kwargs.items())),
    )
