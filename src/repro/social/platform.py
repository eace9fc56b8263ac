"""Simulated social platform (Twitter / Reddit stand-in).

The platform stores posts in a document-store collection with a multikey
index over their lowercased tokens, and exposes the two access patterns the
paper's system uses:

* :meth:`SocialPlatform.search` — PushShift-style keyword search with
  optional date range, used by Social Listening and by the keyword-enrichment
  use case;
* :meth:`SocialPlatform.stream` — a chronological post stream with a cursor,
  used by the crawler that continually enriches the dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..errors import PlatformError
from ..storage import Collection, DocumentStore
from ..text.tokenizer import Tokenizer
from ..datasets.builders import SyntheticPost

#: Name of the collection holding the posts of one platform.
POST_COLLECTION = "posts"


@dataclass(frozen=True)
class SearchResult:
    """Result of one platform search."""

    queries: tuple[str, ...]
    posts: tuple[dict[str, object], ...]

    @property
    def texts(self) -> tuple[str, ...]:
        """Published text of every matched post."""
        return tuple(str(post["text"]) for post in self.posts)

    def __len__(self) -> int:
        return len(self.posts)


class SocialPlatform:
    """An in-process social platform with search and stream APIs.

    Parameters
    ----------
    name:
        Platform name ("twitter", "reddit", ...); used to filter which posts
        of a mixed corpus are ingested.
    store:
        Optional shared document store.
    """

    def __init__(self, name: str = "twitter", store: DocumentStore | None = None) -> None:
        self.name = name
        self.store = store if store is not None else DocumentStore(f"platform-{name}")
        self._tokenizer = Tokenizer()
        collection = self._collection
        collection.create_index("tokens", multi=True)
        collection.create_index("created_at")
        collection.create_index("author")

    @property
    def _collection(self) -> Collection:
        return self.store.collection(f"{self.name}_{POST_COLLECTION}")

    def __len__(self) -> int:
        return len(self._collection)

    def _tokens(self, text: str) -> list[str]:
        """The lowered word tokens that :meth:`search` matches against."""
        # Lowered per token, not by the tokenizer: ``"İ".lower()`` is two
        # characters, which no longer fits the token's span.
        return [token.text.lower() for token in self._tokenizer.word_tokens(text)]

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def ingest_posts(
        self, posts: Iterable[SyntheticPost], only_matching_platform: bool = True
    ) -> int:
        """Ingest synthetic posts; returns how many were stored."""
        stored = 0
        for post in posts:
            if only_matching_platform and post.platform != self.name:
                continue
            document = post.to_document()
            document["tokens"] = self._tokens(post.text)
            self._collection.insert_one(document)
            stored += 1
        return stored

    def ingest_raw(
        self,
        text: str,
        created_at: str,
        author: str = "anonymous",
        **metadata: object,
    ) -> int:
        """Ingest a single raw post (used by tests and live-feed simulations)."""
        if not text.strip():
            raise PlatformError("cannot ingest an empty post")
        document: dict[str, object] = {
            "post_id": len(self._collection) + 1,
            "platform": self.name,
            "author": author,
            "created_at": created_at,
            "text": text,
            "clean_text": text,
            "tokens": self._tokens(text),
        }
        document.update(metadata)
        return int(self._collection.insert_one(document))

    # ------------------------------------------------------------------ #
    # search (PushShift-style)
    # ------------------------------------------------------------------ #
    def search(
        self,
        queries: str | Sequence[str],
        since: str | None = None,
        until: str | None = None,
        limit: int | None = None,
    ) -> SearchResult:
        """Posts containing *any* of the query tokens (case-insensitive).

        Parameters
        ----------
        queries:
            One keyword or a sequence of keywords (e.g. a keyword plus its
            perturbations from Look Up).
        since / until:
            Inclusive ISO-date bounds on ``created_at``.
        limit:
            Maximum number of posts returned (most recent first).
        """
        if isinstance(queries, str):
            query_list: tuple[str, ...] = (queries,)
        else:
            query_list = tuple(queries)
        if not query_list:
            raise PlatformError("at least one query keyword is required")
        tokens = [query.lower() for query in query_list]
        filter_document: dict[str, object] = {"tokens": {"$in": tokens}}
        date_filter: dict[str, object] = {}
        if since is not None:
            date_filter["$gte"] = since
        if until is not None:
            date_filter["$lte"] = until
        if date_filter:
            filter_document["created_at"] = date_filter
        posts = self._collection.find(
            filter_document, sort="created_at", reverse=True, limit=limit
        )
        return SearchResult(queries=query_list, posts=tuple(posts))

    def count_matching(self, queries: str | Sequence[str]) -> int:
        """Number of posts matching any of the query tokens."""
        return len(self.search(queries))

    # ------------------------------------------------------------------ #
    # stream (Twitter-style)
    # ------------------------------------------------------------------ #
    def stream(
        self, batch_size: int = 100, after_post_id: int = 0
    ) -> Iterator[list[dict[str, object]]]:
        """Yield post batches in ``post_id`` order, starting after a cursor.

        The crawler keeps the last seen ``post_id`` as its cursor, exactly
        like a resumable stream consumer.
        """
        if batch_size < 1:
            raise PlatformError(f"batch_size must be >= 1, got {batch_size}")
        cursor = after_post_id
        while True:
            batch = self._collection.find(
                {"post_id": {"$gt": cursor}}, sort="post_id", limit=batch_size
            )
            if not batch:
                return
            yield batch
            cursor = int(batch[-1]["post_id"])

    def posts_between(self, since: str, until: str) -> list[dict[str, object]]:
        """All posts in an inclusive ISO-date range (used by timelines)."""
        return self._collection.find(
            {"created_at": {"$gte": since, "$lte": until}}, sort="created_at"
        )

    def all_posts(self) -> list[dict[str, object]]:
        """Every stored post (most recent last)."""
        return self._collection.find(sort="post_id")
