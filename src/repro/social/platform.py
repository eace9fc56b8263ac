"""Simulated social platform (Twitter / Reddit stand-in).

The platform keeps its posts in a list in ingest order — a post's ``_id``
is its position + 1 — and one index from each lowered word token to the
ascending ``_id``\\ s of the posts that contain it.  It exposes the two
access patterns the paper's system uses:

* :meth:`SocialPlatform.search` — PushShift-style keyword search with
  optional date range, used by Social Listening and by the keyword-enrichment
  use case;
* :meth:`SocialPlatform.stream` — a chronological post stream with a cursor,
  used by the crawler that continually enriches the dictionary.

Every read is a filter and a stable sort over that list.  Posts are copied
on the way in and on the way out, so no caller can change what the platform
holds, and stored posts are never mutated.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..analysis.sanitizer import tracked_lock
from ..errors import PlatformError
from ..text.tokenizer import Tokenizer
from ..datasets.builders import SyntheticPost


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


def _check_bound(name: str, value: object) -> None:
    """Reject a date bound that is neither ``None`` nor a string."""
    if value is not None and not isinstance(value, str):
        raise PlatformError(f"{name} must be an ISO date string or None, got {value!r}")


def _query_list(queries: str | Sequence[str]) -> tuple[str, ...]:
    """One keyword or a sequence of them as a non-empty tuple."""
    query_list = (queries,) if isinstance(queries, str) else tuple(queries)
    if not query_list:
        raise PlatformError("at least one query keyword is required")
    return query_list


def _in_range(post: dict[str, object], since: str | None, until: str | None) -> bool:
    day = post["created_at"]
    return (since is None or day >= since) and (until is None or day <= until)


def _copies(posts: Iterable[dict[str, object]]) -> list[dict[str, object]]:
    return [copy.deepcopy(post) for post in posts]


class SocialPlatform:
    """An in-process social platform with search and stream APIs.

    Parameters
    ----------
    name:
        Platform name ("twitter", "reddit", ...); used to filter which posts
        of a mixed corpus are ingested.
    """

    def __init__(self, name: str = "twitter") -> None:
        self.name = name
        self._tokenizer = Tokenizer()
        # Under ``_lock``: the posts in ingest order, each lowered token's
        # ascending ``_id``s, and the largest stored ``post_id``.
        self._posts: list[dict[str, object]] = []
        self._ids_by_token: dict[str, list[int]] = {}
        self._last_post_id = 0
        self._lock = tracked_lock("social.posts")

    def __len__(self) -> int:
        return len(self._posts)

    def _tokens(self, text: str) -> list[str]:
        """The lowered word tokens that :meth:`search` matches against."""
        # Lowered per token, not by the tokenizer: ``"İ".lower()`` is two
        # characters, which no longer fits the token's span.
        return [token.text.lower() for token in self._tokenizer.word_tokens(text)]

    def _store(self, document: dict[str, object]) -> int:
        """Append a copy of ``document`` and index its tokens; returns its ``_id``.

        A ``post_id`` of ``None`` becomes the largest stored one + 1.
        """
        stored = copy.deepcopy(document)
        if not isinstance(stored["created_at"], str):
            raise PlatformError(
                f"created_at must be an ISO date string, got {stored['created_at']!r}"
            )
        with self._lock:
            if stored["post_id"] is None:
                stored["post_id"] = self._last_post_id + 1
            self._last_post_id = max(self._last_post_id, stored["post_id"])
            doc_id = stored["_id"] = len(self._posts) + 1
            self._posts.append(stored)
            for token in dict.fromkeys(stored["tokens"]):
                self._ids_by_token.setdefault(token, []).append(doc_id)
        return doc_id

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
            self._store(document)
            stored += 1
        return stored

    def ingest_raw(
        self,
        text: str,
        created_at: str,
        author: str = "anonymous",
        **metadata: object,
    ) -> int:
        """Ingest a single raw post (used by tests and live-feed simulations).

        The post gets the next ``post_id`` after every stored one, so a
        crawler whose cursor has passed the stored posts still sees it.
        """
        if not text.strip():
            raise PlatformError("cannot ingest an empty post")
        document: dict[str, object] = {
            "post_id": None,
            "platform": self.name,
            "author": author,
            "created_at": created_at,
            "text": text,
            "clean_text": text,
            "tokens": self._tokens(text),
        }
        document.update(metadata)
        return self._store(document)

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
            Maximum number of posts returned.

        Posts come most recent first; posts of the same day come in ingest
        order.
        """
        query_list = _query_list(queries)
        _check_bound("since", since)
        _check_bound("until", until)
        with self._lock:
            ids = self._matching_ids(query_list)
            posts = [self._posts[doc_id - 1] for doc_id in sorted(ids)]
        matched = [post for post in posts if _in_range(post, since, until)]
        matched.sort(key=lambda post: post["created_at"], reverse=True)
        return SearchResult(queries=query_list, posts=tuple(_copies(matched[:limit])))

    def count_matching(self, queries: str | Sequence[str]) -> int:
        """Number of posts matching any of the query tokens.

        Counts ``_id``\\ s in the token index; no post is read or copied.
        """
        query_list = _query_list(queries)
        with self._lock:
            return len(self._matching_ids(query_list))

    def _matching_ids(self, queries: Sequence[str]) -> set[int]:
        """``_id``\\ s of the posts holding any query token; caller holds the lock."""
        return {
            doc_id
            for query in queries
            for doc_id in self._ids_by_token.get(query.lower(), ())
        }

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
            with self._lock:
                newer = [post for post in self._posts if post["post_id"] > cursor]
            newer.sort(key=lambda post: post["post_id"])
            if not newer:
                return
            batch = _copies(newer[:batch_size])
            yield batch
            cursor = int(batch[-1]["post_id"])

    def posts_between(self, since: str, until: str) -> list[dict[str, object]]:
        """All posts in an inclusive ISO-date range, oldest first (used by timelines)."""
        _check_bound("since", since)
        _check_bound("until", until)
        with self._lock:
            posts = [post for post in self._posts if _in_range(post, since, until)]
        posts.sort(key=lambda post: post["created_at"])
        return _copies(posts)

    def all_posts(self) -> list[dict[str, object]]:
        """Every stored post in ``post_id`` order (most recent last)."""
        with self._lock:
            posts = list(self._posts)
        posts.sort(key=lambda post: post["post_id"])
        return _copies(posts)
