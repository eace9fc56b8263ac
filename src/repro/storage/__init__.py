"""Storage substrate: embedded document store and query cache.

The CrypText architecture (paper §III-F) stores all its data in MongoDB and
puts a Redis cache in front of slow queries.  This subpackage provides
embedded, dependency-free stand-ins that expose the operations CrypText
actually needs:

* :class:`repro.storage.DocumentStore` / :class:`repro.storage.Collection` —
  schemaless document collections with Mongo-style filter documents
  (``{"field": {"$in": [...]}}``), secondary hash indexes, update/delete, and
  JSONL persistence;
* :class:`repro.storage.TTLCache` — a Redis-style key/value cache with
  per-entry TTL, LRU eviction, tag invalidation, version-guarded stores and
  hit/miss statistics, which the Look Up engine uses as its query cache.
"""

from .query import compile_filter, matches_filter
from .index import HashIndex
from .document_store import Collection, DocumentStore
from .persistence import (
    dump_collection,
    dump_store,
    iter_jsonl,
    load_collection,
    load_store,
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
    "compile_filter",
    "matches_filter",
    "HashIndex",
    "Collection",
    "DocumentStore",
    "dump_collection",
    "dump_store",
    "iter_jsonl",
    "load_collection",
    "load_store",
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
