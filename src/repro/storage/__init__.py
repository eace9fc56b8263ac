"""Storage substrate: JSONL and snapshot persistence, and the query cache.

The CrypText architecture (paper §III-F) stores all its data in MongoDB and
puts a Redis cache in front of slow queries.  The dictionary keeps its
``H_k`` maps in its own token store
(:class:`~repro.core.dictionary.PerturbationDictionary`) and the simulated
platform keeps its posts in a list (:class:`~repro.social.SocialPlatform`);
this subpackage provides what they persist and cache with:

* :func:`repro.storage.write_jsonl` / :func:`repro.storage.iter_jsonl` —
  the JSON-lines files the CLI saves and loads a dictionary's token
  documents as, plus atomic text/JSON writers;
* :mod:`repro.storage.snapshot` — checksummed warm-start snapshots;
* :class:`repro.storage.TTLCache` — a Redis-style key/value cache with
  per-entry TTL, LRU eviction, tag invalidation, version-guarded stores and
  hit/miss statistics, which the Look Up engine uses as its query cache.
"""

from .persistence import (
    iter_jsonl,
    read_json,
    write_json_atomic,
    write_jsonl,
    write_text_atomic,
)
from .snapshot import (
    SNAPSHOT_FILE_NAME,
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    read_envelope,
    read_snapshot,
    resolve_snapshot,
    snapshot_checksum,
    write_envelope,
    write_snapshot,
)
from .cache import CacheStats, TTLCache, make_key

__all__ = [
    "iter_jsonl",
    "read_json",
    "write_json_atomic",
    "write_jsonl",
    "write_text_atomic",
    "SNAPSHOT_FILE_NAME",
    "SNAPSHOT_FORMAT_VERSION",
    "Snapshot",
    "read_envelope",
    "read_snapshot",
    "resolve_snapshot",
    "snapshot_checksum",
    "write_envelope",
    "write_snapshot",
    "CacheStats",
    "TTLCache",
    "make_key",
]
