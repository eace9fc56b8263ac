"""Secondary hash indexes for document collections.

CrypText's hot queries are exact-match lookups: "all dictionary entries whose
Soundex key is ``RE4425``", "all posts containing token ``vaccine``".  A hash
index over a single field turns those from full scans into dictionary
lookups, mirroring the secondary indexes the original MongoDB deployment
would declare.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Hashable, Iterable, Mapping

from ..errors import StorageError


def _freeze(value: Any) -> Hashable:
    """Convert an indexed value into something hashable.

    Lists become tuples so that array-valued fields can still be indexed by
    their exact content; dictionaries are rejected (index a scalar field
    instead).
    """
    # Scalar fast path: almost every indexed value is a string (tokens,
    # Soundex keys) or a bool/int — skip the container isinstance ladder.
    kind = type(value)
    if kind is str or kind is bool or kind is int or kind is float or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(item) for item in value))
    if isinstance(value, dict):
        raise StorageError("cannot index a mapping-valued field")
    return value


class HashIndex:
    """Equality index over one field of a collection.

    Parameters
    ----------
    field:
        Field name (dotted paths are supported).
    multi:
        If ``True`` and the field holds a list, each element is indexed
        individually (a "multikey" index) — used for the posts collection's
        ``tokens`` field so containment queries are fast.
    """

    def __init__(self, field: str, multi: bool = False) -> None:
        self.field = field
        self.multi = multi
        self._field_parts = tuple(field.split("."))
        self._buckets: dict[Hashable, set[Any]] = defaultdict(set)
        self._entries: dict[Any, tuple[Hashable, ...]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _extract(self, document: Mapping[str, Any]) -> tuple[Hashable, ...]:
        current: Any = document
        # Runs once per index per write — the bulk-load hot loop.  Concrete
        # dict checks here: an ``isinstance(..., typing.Mapping)`` costs a
        # cached-but-slow ABC dispatch, which dominated warm-start loads.
        for part in self._field_parts:
            if isinstance(current, dict):
                if part in current:
                    current = current[part]
                    continue
                return ()
            # Rare path: a caller stored a non-dict Mapping (e.g. a
            # MappingProxyType) — still index it correctly.
            if isinstance(current, Mapping) and part in current:
                current = current[part]
            else:
                return ()
        if self.multi and isinstance(current, (list, tuple, set, frozenset)):
            return tuple(_freeze(item) for item in current)
        return (_freeze(current),)

    def add(self, doc_id: Any, document: Mapping[str, Any]) -> None:
        """Index ``document`` under ``doc_id`` (replacing any prior entry).

        Returns early when the document's indexed value has not changed,
        the common case for an update that writes other fields.
        """
        keys = self._extract(document)
        previous = self._entries.get(doc_id)
        if previous is not None:
            if previous == keys:
                return
            self.remove(doc_id)
        for key in keys:
            self._buckets[key].add(doc_id)
        self._entries[doc_id] = keys

    def remove(self, doc_id: Any) -> None:
        """Remove ``doc_id`` from the index (no-op if absent)."""
        keys = self._entries.pop(doc_id, ())
        for key in keys:
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            bucket.discard(doc_id)
            if not bucket:
                del self._buckets[key]

    def lookup(self, value: Any) -> frozenset[Any]:
        """Return the ids of documents whose field equals ``value``."""
        return frozenset(self._buckets.get(_freeze(value), frozenset()))

    def lookup_many(self, values: Iterable[Any]) -> frozenset[Any]:
        """Return ids of documents whose field equals any of ``values``."""
        result: set[Any] = set()
        for value in values:
            result.update(self._buckets.get(_freeze(value), ()))
        return frozenset(result)

    def keys(self) -> frozenset[Hashable]:
        """Distinct indexed values."""
        return frozenset(self._buckets)

    def clear(self) -> None:
        """Drop every entry."""
        self._buckets.clear()
        self._entries.clear()
