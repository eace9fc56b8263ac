"""Embedded document store (MongoDB stand-in).

CrypText stores every artifact — the token dictionary hash-maps, crawled
posts, cached benchmark results — in MongoDB collections (paper §III-F).
:class:`DocumentStore` reproduces the slice of that interface the social
platform's posts need as an in-process, dependency-free engine (the token
dictionary keeps its hash-maps in a purpose-built store,
:class:`~repro.core.dictionary.PerturbationDictionary`):

* schemaless documents (plain ``dict``) with an ``_id`` primary key;
* ``insert_one`` / ``insert_many`` / ``find`` / ``find_one`` / ``count`` /
  ``update_one`` / ``delete_many`` / ``distinct``;
* Mongo-style filter documents (see :mod:`repro.storage.query`);
* secondary hash indexes that accelerate equality and ``$in`` filters;
* JSONL persistence via :mod:`repro.storage.persistence`.

The store is deliberately synchronous and single-process: the reproduction
targets library use, not a networked deployment.
"""

from __future__ import annotations

import copy
import functools
import itertools
from copy import deepcopy as _deepcopy
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..analysis.sanitizer import tracked_rlock
from ..errors import DocumentNotFoundError, DuplicateKeyError, QueryError, StorageError
from .index import HashIndex
from .query import compile_filter


def _id_order(document: Mapping[str, Any]) -> str:
    """Sort key of the default document order (``str(_id)``)."""
    return str(document.get("_id"))


def _locked(method):
    """Run ``method`` while holding the collection's reentrant lock."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self.lock:
            return method(self, *args, **kwargs)

    return wrapper


class Collection:
    """A named collection of documents.

    Value semantics, as with a real database client: ``insert_one`` and
    ``replace_one`` store deep copies, and ``find``/``get``/iteration
    return them, so callers cannot mutate the store's state by accident.

    Stored documents are never mutated in place: every write replaces a
    document wholesale.  :meth:`update_one` builds the new version from a
    shallow copy of the stored one and deep-copies only the values it
    writes, so old and new versions share their untouched values.  That
    invariant is what lets iteration copy documents outside the lock.

    A reentrant lock serializes every read and write: a social platform is
    searched and crawled while posts are ingested, and a real database
    client would likewise present each operation as atomic.
    Callers that need a compound read-modify-write to be atomic should hold
    :attr:`lock` across the sequence.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._documents: dict[Any, dict[str, Any]] = {}
        self._indexes: dict[str, HashIndex] = {}
        self._id_counter = itertools.count(1)
        self.lock = tracked_rlock("storage.collection")

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @_locked
    def __len__(self) -> int:
        return len(self._documents)

    @_locked
    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._documents

    def __iter__(self) -> Iterator[dict[str, Any]]:
        # Snapshot under the lock, copy outside it: stored documents are
        # replaced wholesale on update (never mutated in place), so deep
        # copying the snapshot is safe without holding the lock across yields.
        with self.lock:
            snapshot = list(self._documents.values())
        for document in snapshot:
            yield copy.deepcopy(document)

    @property
    def index_fields(self) -> tuple[str, ...]:
        """Fields that currently have a secondary index."""
        return tuple(sorted(self._indexes))

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def _next_id(self) -> int:
        candidate = next(self._id_counter)
        while candidate in self._documents:
            candidate = next(self._id_counter)
        return candidate

    @_locked
    def insert_one(self, document: Mapping[str, Any]) -> Any:
        """Insert a document, returning its ``_id``.

        If the document has no ``_id`` one is assigned.  Inserting a
        duplicate ``_id`` raises :class:`~repro.errors.DuplicateKeyError`.
        """
        if not isinstance(document, Mapping):
            raise StorageError(
                f"documents must be mappings, got {type(document).__name__}"
            )
        stored = copy.deepcopy(dict(document))
        doc_id = stored.get("_id")
        if doc_id is None:
            doc_id = self._next_id()
            stored["_id"] = doc_id
        elif doc_id in self._documents:
            raise DuplicateKeyError(
                f"collection {self.name!r} already has a document with _id={doc_id!r}"
            )
        self._documents[doc_id] = stored
        for index in self._indexes.values():
            index.add(doc_id, stored)
        return doc_id

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> list[Any]:
        """Insert many documents, returning their ids in order."""
        return [self.insert_one(document) for document in documents]

    @_locked
    def load_documents(self, documents: Iterable[Mapping[str, Any]]) -> int:
        """Bulk-insert ``documents`` in one locked pass; returns the count.

        The bulk path for persistence: one lock acquisition and one index
        update per document, and the documents are adopted without a deep
        copy — the caller hands over ownership (freshly parsed JSON it will
        never touch again, as the JSONL loader does).  Duplicate
        ``_id``\\ s raise :class:`~repro.errors.DuplicateKeyError` exactly
        like :meth:`insert_one`.
        """
        count = 0
        for document in documents:
            if not isinstance(document, dict) and not isinstance(document, Mapping):
                raise StorageError(
                    f"documents must be mappings, got {type(document).__name__}"
                )
            stored = dict(document)
            doc_id = stored.get("_id")
            if doc_id is None:
                doc_id = self._next_id()
                stored["_id"] = doc_id
            elif doc_id in self._documents:
                raise DuplicateKeyError(
                    f"collection {self.name!r} already has a document with _id={doc_id!r}"
                )
            self._documents[doc_id] = stored
            for index in self._indexes.values():
                index.add(doc_id, stored)
            count += 1
        return count

    @_locked
    def replace_one(self, doc_id: Any, document: Mapping[str, Any]) -> None:
        """Replace the document with id ``doc_id`` entirely."""
        if doc_id not in self._documents:
            raise DocumentNotFoundError(
                f"collection {self.name!r} has no document with _id={doc_id!r}"
            )
        stored = copy.deepcopy(dict(document))
        stored["_id"] = doc_id
        self._documents[doc_id] = stored
        for index in self._indexes.values():
            index.add(doc_id, stored)

    @_locked
    def update_one(
        self,
        filter_document: Mapping[str, Any] | None,
        update: Mapping[str, Any],
        upsert: bool = False,
    ) -> bool:
        """Apply a ``$set`` / ``$inc`` / ``$addToSet`` / ``$push`` update to one document.

        Updates the first match in ``str(_id)`` order.  Returns ``True`` if a
        document was modified (or upserted), ``False`` when nothing matched
        and ``upsert`` is off.

        The new version is a shallow copy of the stored document: the values
        the update writes are deep-copied in (``$addToSet``/``$push`` build a
        new list), and every other value is shared with the previous
        version, which stays unchanged for anyone still reading it.
        """
        allowed = {"$set", "$inc", "$addToSet", "$push"}
        unknown = set(update) - allowed
        if unknown:
            raise QueryError(f"unsupported update operators: {sorted(unknown)}")
        matches = self._matches(filter_document)
        if not matches:
            if not upsert:
                return False
            document: dict[str, Any] = {}
            if filter_document:
                for key, value in filter_document.items():
                    if not key.startswith("$") and not isinstance(value, Mapping):
                        document[key] = value
            doc_id = None
        else:
            document = dict(min(matches, key=_id_order))
            doc_id = document["_id"]

        for key, value in update.get("$set", {}).items():
            document[key] = _deepcopy(value)
        for key, value in update.get("$inc", {}).items():
            document[key] = document.get(key, 0) + value
        for key, value in update.get("$addToSet", {}).items():
            existing = list(document.get(key, []))
            if value not in existing:
                existing.append(_deepcopy(value))
            document[key] = existing
        for key, value in update.get("$push", {}).items():
            existing = list(document.get(key, []))
            existing.append(_deepcopy(value))
            document[key] = existing

        if doc_id is None:
            self.insert_one(document)
            return True
        document["_id"] = doc_id
        self._documents[doc_id] = document
        for index in self._indexes.values():
            index.add(doc_id, document)
        return True

    @_locked
    def delete_many(self, filter_document: Mapping[str, Any] | None = None) -> int:
        """Delete every matching document, returning how many were removed."""
        predicate = compile_filter(filter_document)
        doomed = [
            doc_id
            for doc_id, document in self._documents.items()
            if predicate(document)
        ]
        for doc_id in doomed:
            del self._documents[doc_id]
            for index in self._indexes.values():
                index.remove(doc_id)
        return len(doomed)

    @_locked
    def clear(self) -> None:
        """Remove every document (indexes are kept but emptied).

        The auto-id counter restarts too: a cleared collection assigns ids
        exactly like a freshly constructed one (``_next_id`` skips over any
        ids reinstalled by a snapshot load).  Wholesale replacement relies
        on this — crash recovery must hand a replayed insert the same id
        the crashed process assigned, because ``str(_id)`` order is bucket
        order and bucket order is ranking order.
        """
        self._documents.clear()
        self._id_counter = itertools.count(1)
        for index in self._indexes.values():
            index.clear()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _candidate_ids(
        self, filter_document: Mapping[str, Any] | None
    ) -> Iterable[Any] | None:
        """Use an index to narrow the candidate set, when possible."""
        if not filter_document:
            return None
        for field, condition in filter_document.items():
            if field.startswith("$") or field not in self._indexes:
                continue
            index = self._indexes[field]
            if isinstance(condition, Mapping):
                if "$eq" in condition:
                    return index.lookup(condition["$eq"])
                if "$in" in condition:
                    return index.lookup_many(condition["$in"])
                if "$elem" in condition and index.multi:
                    return index.lookup(condition["$elem"])
                continue
            return index.lookup(condition)
        return None

    def _matches(
        self, filter_document: Mapping[str, Any] | None
    ) -> list[dict[str, Any]]:
        """Stored documents matching the filter, unordered (lock held)."""
        predicate = compile_filter(filter_document)
        candidate_ids = self._candidate_ids(filter_document)
        if candidate_ids is None:
            candidates: Iterable[dict[str, Any]] = self._documents.values()
        else:
            candidates = (
                self._documents[doc_id]
                for doc_id in candidate_ids
                if doc_id in self._documents
            )
        return [doc for doc in candidates if predicate(doc)]

    @_locked
    def find(
        self,
        filter_document: Mapping[str, Any] | None = None,
        sort: str | None = None,
        reverse: bool = False,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> list[dict[str, Any]]:
        """Return deep copies of every matching document.

        Parameters
        ----------
        filter_document:
            Mongo-style filter (``None`` matches everything).
        sort:
            Field name to sort by (missing values sort first).  Without one,
            documents come in ``str(_id)`` order.
        reverse:
            Sort descending.
        limit:
            Return at most this many documents.
        projection:
            If given, keep only these fields (``_id`` is always kept).
        """
        matched = self._matches(filter_document)
        if sort is not None:
            matched.sort(
                key=lambda doc: (doc.get(sort) is not None, doc.get(sort)),
                reverse=reverse,
            )
        else:
            matched.sort(key=_id_order)
        if limit is not None:
            matched = matched[:limit]
        if projection is not None:
            keep = set(projection) | {"_id"}
            matched = [
                {key: value for key, value in doc.items() if key in keep}
                for doc in matched
            ]
        return [copy.deepcopy(doc) for doc in matched]

    def find_one(
        self, filter_document: Mapping[str, Any] | None = None
    ) -> dict[str, Any] | None:
        """Return one matching document or ``None``."""
        results = self.find(filter_document, limit=1)
        return results[0] if results else None

    @_locked
    def get(self, doc_id: Any) -> dict[str, Any]:
        """Return the document with ``doc_id`` or raise."""
        if doc_id not in self._documents:
            raise DocumentNotFoundError(
                f"collection {self.name!r} has no document with _id={doc_id!r}"
            )
        return copy.deepcopy(self._documents[doc_id])

    @_locked
    def count(self, filter_document: Mapping[str, Any] | None = None) -> int:
        """Count matching documents."""
        if not filter_document:
            return len(self._documents)
        return len(self._matches(filter_document))

    @_locked
    def distinct(
        self, field: str, filter_document: Mapping[str, Any] | None = None
    ) -> list[Any]:
        """Distinct values of ``field`` across matching documents."""
        predicate = compile_filter(filter_document)
        seen: list[Any] = []
        seen_keys: set[Any] = set()
        for document in self._documents.values():
            if not predicate(document):
                continue
            if field not in document:
                continue
            value = document[field]
            key = tuple(value) if isinstance(value, list) else value
            if key not in seen_keys:
                seen_keys.add(key)
                seen.append(copy.deepcopy(value))
        return seen

    @_locked
    def aggregate_counts(
        self,
        field: str,
        filter_document: Mapping[str, Any] | None = None,
    ) -> dict[Any, int]:
        """Group-by count of ``field`` values (multikey for list fields)."""
        predicate = compile_filter(filter_document)
        counts: dict[Any, int] = {}
        for document in self._documents.values():
            if not predicate(document) or field not in document:
                continue
            value = document[field]
            values = value if isinstance(value, (list, tuple)) else [value]
            for item in values:
                counts[item] = counts.get(item, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #
    @_locked
    def create_index(self, field: str, multi: bool = False) -> HashIndex:
        """Create (or return) a secondary hash index over ``field``."""
        if field in self._indexes:
            return self._indexes[field]
        index = HashIndex(field, multi=multi)
        for doc_id, document in self._documents.items():
            index.add(doc_id, document)
        self._indexes[field] = index
        return index

    @_locked
    def drop_index(self, field: str) -> None:
        """Drop the index over ``field`` (no-op if absent)."""
        self._indexes.pop(field, None)


class DocumentStore:
    """A named set of collections — the Mongo-database stand-in."""

    def __init__(self, name: str = "cryptext") -> None:
        self.name = name
        self._collections: dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        """Get or create the collection ``name``."""
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def __contains__(self, name: object) -> bool:
        return name in self._collections

    def collection_names(self) -> tuple[str, ...]:
        """Names of the collections created so far."""
        return tuple(sorted(self._collections))

    def drop_collection(self, name: str) -> None:
        """Remove a collection and all its documents."""
        self._collections.pop(name, None)

    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-collection document and index counts."""
        return {
            name: {
                "documents": len(collection),
                "indexes": list(collection.index_fields),
            }
            for name, collection in sorted(self._collections.items())
        }

    def apply(self, name: str, operation: Callable[[Collection], Any]) -> Any:
        """Run ``operation`` against collection ``name`` and return its result."""
        return operation(self.collection(name))
