"""Batch throughput engine: Look Up / Normalization / Perturbation at scale.

The deployed CrypText is an always-on service: bulk API requests, a social
listener expanding whole watch-lists, and a crawler enriching the database
around the clock.  :class:`BatchEngine` is the throughput layer those paths
run on.  It combines

* **query deduplication** — repeated queries and sound keys across a batch
  are resolved once, against the dictionary's compiled-bucket cache (the
  one the per-query path uses) — plus **per-token memoization** of
  Normalization candidate retrieval layered on
  :class:`~repro.storage.TTLCache`,
* **backpressure-aware streaming** — chunked generators with a bounded
  number of in-flight batches — for the crawler / social-listening path,
* **sound-scoped enrichment**: the engine observes the dictionary, so any
  write, through any path, drops exactly the memoized tokens over the
  sounds it changed.

Batch results are guaranteed identical to N sequential single calls: both
paths share :meth:`LookupEngine.build_result` and the normalizer's candidate
logic, and all batch methods preserve input order.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..config import CrypTextConfig
from ..obs.registry import OBS
from ..core.dictionary import PerturbationDictionary
from ..core.lookup import LookupEngine, LookupResult, sound_tag
from ..core.normalizer import NormalizationResult, Normalizer
from ..core.perturber import PerturbationOutcome, Perturber
from ..errors import CrypTextError
from ..lm import CoherencyScorer
from ..storage import TTLCache, make_key

_MISSING = object()


@dataclass(frozen=True)
class EnrichmentReport:
    """What one enrichment pass changed (returned by :meth:`BatchEngine.enrich`)."""

    added: int
    changed_sounds: frozenset[tuple[int, str]]

    def to_dict(self) -> dict[str, object]:
        """Serialize for crawler reports and monitoring exports."""
        return {
            "added": self.added,
            "num_changed_sounds": len(self.changed_sounds),
        }


class _MemoizedNormalizer(Normalizer):
    """A :class:`Normalizer` whose candidate retrieval is memoized.

    Candidate retrieval — bucket match plus distance filtering — is
    context-free (only the coherency *ranking* looks at neighbors), so a
    token seen a thousand times across a batch pays the retrieval cost once.
    Retrieval and ranking are the base class's (identical results to the
    sequential path by construction); memo entries are tagged with their
    sound key so a write drops exactly the tokens whose buckets changed, and
    a store is skipped when the dictionary's version moved mid-retrieval.
    """

    def __init__(
        self,
        dictionary: PerturbationDictionary,
        memo: TTLCache,
        scorer: CoherencyScorer | None,
        config: CrypTextConfig,
    ) -> None:
        super().__init__(dictionary, scorer=scorer, config=config)
        self._memo = memo

    def _retrieve_candidates(self, token_text: str) -> list[tuple[str, int, int]]:
        level = self.config.phonetic_level
        memo_key = make_key(
            "normalize.candidates",
            token_text,
            level,
            self.config.edit_distance,
            self.config.use_transpositions,
        )
        cached = self._memo.get(memo_key, _MISSING)
        if cached is not _MISSING:
            return cached
        dictionary = self.dictionary
        version = dictionary.version
        candidates = super()._retrieve_candidates(token_text)
        key = self._encoder.encode_or_none(token_text)
        tags = (sound_tag(level, key),) if key is not None else ()
        self._memo.set_if(
            memo_key, candidates, lambda: dictionary.version == version, tags=tags
        )
        return candidates


def _chunked(items: Iterable[str], size: int) -> Iterator[list[str]]:
    chunk: list[str] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class BatchEngine:
    """Runs the paper's functions over batches and streams of documents.

    Parameters
    ----------
    dictionary:
        The token database; its compiled-bucket cache serves every bucket.
    lookup_engine:
        Engine whose result builder and query cache the batch path shares; a
        private one is created when omitted.  Sharing the ``CrypText``
        facade's engine means batch and per-call traffic populate one cache.
    config:
        Hyper-parameters; defaults to the dictionary's configuration.
    scorer:
        Coherency scorer for Normalization ranking (optional).
    perturber:
        Perturbation sampler used by :meth:`perturb_batch`; a private seeded
        one is created when omitted.
    chunk_size:
        Default documents-per-chunk for the streaming methods.
    max_in_flight:
        Default bound on concurrently processed chunks in the streaming
        methods (the backpressure knob: an unbounded reader can be at most
        ``max_in_flight * chunk_size`` documents ahead of the consumer).
    memo_cache:
        Cache for per-token Normalization memoization (a private
        :class:`TTLCache` is created when omitted).
    """

    def __init__(
        self,
        dictionary: PerturbationDictionary,
        lookup_engine: LookupEngine | None = None,
        config: CrypTextConfig | None = None,
        scorer: CoherencyScorer | None = None,
        perturber: Perturber | None = None,
        chunk_size: int = 256,
        max_in_flight: int = 4,
        memo_cache: TTLCache | None = None,
    ) -> None:
        if chunk_size < 1:
            raise CrypTextError(f"chunk_size must be >= 1, got {chunk_size}")
        if max_in_flight < 1:
            raise CrypTextError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.dictionary = dictionary
        self.config = config if config is not None else dictionary.config
        self.lookup_engine = (
            lookup_engine
            if lookup_engine is not None
            else LookupEngine(dictionary, config=self.config)
        )
        self.chunk_size = chunk_size
        self.max_in_flight = max_in_flight
        self.memo = (
            memo_cache
            if memo_cache is not None
            else TTLCache(
                max_entries=self.config.cache_max_entries,
                default_ttl=self.config.cache_ttl_seconds,
            )
        )
        self.normalizer = _MemoizedNormalizer(
            dictionary, self.memo, scorer, self.config
        )
        self.perturber = (
            perturber
            if perturber is not None
            else Perturber(self.lookup_engine, config=self.config)
        )
        # Cooperative maintenance hook (attach_maintenance): streaming
        # generators tick it between chunks, so a long-running stream
        # refreshes snapshots on schedule without a background thread.
        self._maintenance = None
        # Every dictionary write, through any path, drops the memoized
        # candidates over the sounds it changed.
        dictionary.register_observer(self)

    # ------------------------------------------------------------------ #
    # Look Up
    # ------------------------------------------------------------------ #
    def look_up_batch(
        self,
        queries: Sequence[str],
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        canonical_distance: bool = False,
        use_transpositions: bool | None = None,
    ) -> list[LookupResult]:
        """Look Up every query of a batch; results preserve input order.

        Duplicate queries are resolved once, cache hits are served from the
        shared query cache, and the remaining misses fetch each distinct
        sound bucket once before being built with the exact logic of the
        sequential path — so ``look_up_batch(qs)[i]`` equals
        ``look_up(qs[i])`` for every ``i``.  ``use_transpositions``
        overrides the distance policy for the whole batch exactly as the
        per-query parameter does on :meth:`LookupEngine.look_up` (it is part
        of every cache key consulted and populated here).
        """
        if OBS.armed:
            with OBS.span("batch.lookup"):
                return self._look_up_batch(
                    queries, phonetic_level, max_edit_distance, case_sensitive,
                    canonical_distance, use_transpositions,
                )
        return self._look_up_batch(
            queries, phonetic_level, max_edit_distance, case_sensitive,
            canonical_distance, use_transpositions,
        )

    def _look_up_batch(
        self,
        queries: Sequence[str],
        phonetic_level: int | None,
        max_edit_distance: int | None,
        case_sensitive: bool,
        canonical_distance: bool,
        use_transpositions: bool | None,
    ) -> list[LookupResult]:
        queries = list(queries)
        level = self.config.phonetic_level if phonetic_level is None else phonetic_level
        distance = (
            self.config.edit_distance if max_edit_distance is None else max_edit_distance
        )
        engine = self.lookup_engine
        resolved: dict[str, LookupResult] = {}
        misses: list[str] = []
        for query in dict.fromkeys(queries):
            if engine.cache is not None:
                cache_key = engine.cache_key(
                    query, level, distance, case_sensitive, canonical_distance,
                    use_transpositions,
                )
                hit = engine.cache.get(cache_key, default=None)
                if hit is not None:
                    resolved[query] = hit
                    continue
            misses.append(query)
        if misses:
            encoder = self.dictionary.encoder(level)
            sound_keys = {query: encoder.encode_or_none(query) for query in misses}
            # Same stale-write guard as the sequential look_up: results built
            # from buckets read before a write are returned, not stored.
            version = self.dictionary.version
            buckets = self._fetch_buckets(level, set(sound_keys.values()) - {None})
            for query in misses:
                key = sound_keys[query]
                bucket = buckets.get(key, ())
                result = engine.build_result(
                    query, level, distance, case_sensitive, canonical_distance, key,
                    bucket, use_transpositions=use_transpositions,
                )
                engine.cache_result(
                    result, case_sensitive, canonical_distance, version=version,
                    use_transpositions=use_transpositions,
                )
                resolved[query] = result
        return [resolved[query] for query in queries]

    def _fetch_buckets(self, level: int, keys: set[str]) -> dict:
        """Each distinct sound bucket of a batch, fetched once."""
        if self.config.compiled_buckets:
            fetch = self.dictionary.compiled_bucket
        else:
            fetch = self.dictionary.tokens_for_key
        return {key: fetch(key, phonetic_level=level) for key in keys}

    def look_up_many(
        self,
        queries: Sequence[str],
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        use_transpositions: bool | None = None,
    ) -> dict[str, LookupResult]:
        """Dict-shaped bulk Look Up (drop-in for ``LookupEngine.look_up_many``)."""
        results = self.look_up_batch(
            queries,
            phonetic_level=phonetic_level,
            max_edit_distance=max_edit_distance,
            case_sensitive=case_sensitive,
            use_transpositions=use_transpositions,
        )
        return {query: result for query, result in zip(queries, results)}

    def stream_look_up(
        self,
        queries: Iterable[str],
        chunk_size: int | None = None,
        max_in_flight: int | None = None,
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        use_transpositions: bool | None = None,
    ) -> Iterator[LookupResult]:
        """Stream Look Up results over an unbounded query iterable, in order.

        The iterable is consumed in chunks of ``chunk_size``; at most
        ``max_in_flight`` chunks are being resolved at once, so a slow
        consumer exerts backpressure on the producer instead of the engine
        buffering the whole stream (the crawler / social-listening path).
        """
        yield from self._stream(
            queries,
            lambda chunk: self.look_up_batch(
                chunk,
                phonetic_level=phonetic_level,
                max_edit_distance=max_edit_distance,
                case_sensitive=case_sensitive,
                use_transpositions=use_transpositions,
            ),
            chunk_size,
            max_in_flight,
        )

    # ------------------------------------------------------------------ #
    # Normalization
    # ------------------------------------------------------------------ #
    def normalize_batch(self, texts: Sequence[str]) -> list[NormalizationResult]:
        """Normalize every document of a batch; results preserve input order.

        Duplicate documents are normalized once; across distinct documents
        every repeated token shares one memoized candidate retrieval, so the
        per-document cost degenerates to ranking.
        """
        if OBS.armed:
            with OBS.span("batch.normalize"):
                return self._normalize_batch(texts)
        return self._normalize_batch(texts)

    def _normalize_batch(self, texts: Sequence[str]) -> list[NormalizationResult]:
        texts = list(texts)
        resolved = {
            text: self.normalizer.normalize(text) for text in dict.fromkeys(texts)
        }
        return [resolved[text] for text in texts]

    def stream_normalize(
        self,
        texts: Iterable[str],
        chunk_size: int | None = None,
        max_in_flight: int | None = None,
    ) -> Iterator[NormalizationResult]:
        """Stream Normalization results over a document iterable, in order.

        Chunked and bounded exactly like :meth:`stream_look_up`.
        """
        yield from self._stream(
            texts, self.normalize_batch, chunk_size, max_in_flight
        )

    # ------------------------------------------------------------------ #
    # Perturbation
    # ------------------------------------------------------------------ #
    def perturb_batch(
        self,
        texts: Sequence[str],
        ratio: float | None = None,
        case_sensitive: bool | None = None,
    ) -> list[PerturbationOutcome]:
        """Perturb every document of a batch; results preserve input order.

        Sampling is stochastic, so documents are *not* deduplicated — two
        occurrences of the same text may legitimately perturb differently —
        but every per-token Look Up inside the sampler is served from the
        shared query cache the batch path keeps warm.
        """
        return [
            self.perturber.perturb(text, ratio=ratio, case_sensitive=case_sensitive)
            for text in texts
        ]

    # ------------------------------------------------------------------ #
    # enrichment (crawler / social-listening write path)
    # ------------------------------------------------------------------ #
    def enrich(self, texts: Iterable[str], source: str = "stream") -> EnrichmentReport:
        """Add ``texts`` to the dictionary; report what changed.

        The dictionary notifies every cache owner of each write, so only the
        cached queries and memoized tokens over the changed sounds are
        dropped; everything else stays warm.
        """
        changed: set[tuple[int, str]] = set()
        added = self.dictionary.add_corpus(texts, source=source, changed_keys=changed)
        return EnrichmentReport(added=added, changed_sounds=frozenset(changed))

    def note_changes(self, changed_keys: set[tuple[int, str]] | None) -> None:
        """Dictionary write notification (the ``ChangeObserver`` hook).

        Drops the memoized normalization candidates over ``changed_keys``,
        or all of them when ``changed_keys`` is ``None`` (a snapshot load or
        a replay reset replaced every bucket).  The query cache belongs to
        the lookup engine, which observes the dictionary itself.
        """
        if changed_keys is None:
            self.memo.clear()
        else:
            self.memo.invalidate_tags(
                sound_tag(level, key) for level, key in changed_keys
            )

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def attach_maintenance(self, scheduler) -> None:
        """Tick ``scheduler`` between streamed chunks (cooperative upkeep).

        The streaming generators call
        :meth:`~repro.wal.maintenance.MaintenanceScheduler.tick` each time a
        chunk's results are drained — a cheap no-op until the auto-save
        interval elapses, then an incremental snapshot refresh that runs
        while the stream pool keeps resolving the next chunks.
        """
        self._maintenance = scheduler

    def _tick_maintenance(self) -> None:
        if self._maintenance is not None:
            self._maintenance.tick()

    def _stream(self, items, process, chunk_size, max_in_flight):
        size = self.chunk_size if chunk_size is None else chunk_size
        bound = self.max_in_flight if max_in_flight is None else max_in_flight
        if size < 1:
            raise CrypTextError(f"chunk_size must be >= 1, got {size}")
        if bound < 1:
            raise CrypTextError(f"max_in_flight must be >= 1, got {bound}")
        with ThreadPoolExecutor(
            max_workers=bound, thread_name_prefix="cryptext-stream"
        ) as pool:
            in_flight: deque = deque()
            for chunk in _chunked(items, size):
                while len(in_flight) >= bound:
                    yield from in_flight.popleft().result()
                    self._tick_maintenance()
                in_flight.append(pool.submit(process, chunk))
            while in_flight:
                yield from in_flight.popleft().result()
                self._tick_maintenance()

    def stats(self) -> dict[str, object]:
        """Cache and memoization counters (monitoring export).

        ``compiled_buckets`` is the dictionary's compiled-bucket LRU (the
        capacity-tuning view for ``config.cache_max_entries``); its
        ``kernels`` entry totals the per-kernel match counters
        (myers/banded/symspell/linear) for every match the dictionary served.
        """
        return {
            "memo": self.memo.stats.to_dict(),
            "query_cache": (
                self.lookup_engine.cache.stats.to_dict()
                if self.lookup_engine.cache is not None
                else None
            ),
            "compiled_buckets": self.dictionary.compiled_cache_stats(),
            "chunk_size": self.chunk_size,
            "max_in_flight": self.max_in_flight,
            "maintenance": (
                self._maintenance.status() if self._maintenance is not None else None
            ),
        }
