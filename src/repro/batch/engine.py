"""Batch throughput engine: Look Up / Normalization / Perturbation at scale.

The deployed CrypText is an always-on service: bulk API requests and
whole document streams.  :class:`BatchEngine` runs the paper's functions
over batches and streams.  It adds

* **deduplication** — each distinct query of a Look Up batch and each
  distinct document of a Normalization batch is resolved once,
* **per-token memoization** of Normalization candidate retrieval, layered
  on :class:`~repro.storage.TTLCache`; the engine observes the dictionary,
  so any write, through any path, drops exactly the memoized tokens over
  the sounds it changed,
* **chunked streaming** — generators that pull one chunk of an unbounded
  iterable at a time and resolve it on the caller's thread, so a slow
  consumer throttles the producer.

Batch results are identical to N sequential single calls: batch Look Up
runs :meth:`LookupEngine.look_up` once per distinct query, batch
Normalization shares the normalizer's candidate logic, and all batch
methods preserve input order.
"""

from __future__ import annotations

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
        Engine whose :meth:`~LookupEngine.look_up` (and query cache) the
        batch path runs; a private one is created when omitted.  Sharing
        the ``CrypText`` facade's engine means batch and per-call traffic
        populate one cache.
    config:
        Hyper-parameters; defaults to the dictionary's configuration.
    scorer:
        Coherency scorer for Normalization ranking (optional).
    perturber:
        Perturbation sampler used by :meth:`perturb_batch`; a private seeded
        one is created when omitted.
    chunk_size:
        Default documents-per-chunk for the streaming methods (the
        backpressure knob: the stream reads at most one chunk ahead of the
        consumer).
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
        memo_cache: TTLCache | None = None,
    ) -> None:
        if chunk_size < 1:
            raise CrypTextError(f"chunk_size must be >= 1, got {chunk_size}")
        self.dictionary = dictionary
        self.config = config if config is not None else dictionary.config
        self.lookup_engine = (
            lookup_engine
            if lookup_engine is not None
            else LookupEngine(dictionary, config=self.config)
        )
        self.chunk_size = chunk_size
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

        Each distinct query is resolved once, by :meth:`LookupEngine.look_up`
        (query cache included), so ``look_up_batch(qs)[i]`` equals
        ``look_up(qs[i])`` for every ``i``.  The keyword arguments apply to
        the whole batch exactly as they do to one ``look_up`` call.
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
        look_up = self.lookup_engine.look_up
        resolved = {
            query: look_up(
                query,
                phonetic_level=phonetic_level,
                max_edit_distance=max_edit_distance,
                case_sensitive=case_sensitive,
                canonical_distance=canonical_distance,
                use_transpositions=use_transpositions,
            )
            for query in dict.fromkeys(queries)
        }
        return [resolved[query] for query in queries]

    def stream_look_up(
        self,
        queries: Iterable[str],
        chunk_size: int | None = None,
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        use_transpositions: bool | None = None,
    ) -> Iterator[LookupResult]:
        """Stream Look Up results over an unbounded query iterable, in order.

        The iterable is consumed one chunk of ``chunk_size`` at a time, and
        each chunk is resolved on the caller's thread when the consumer asks
        for its first result, so a slow consumer exerts backpressure on the
        producer instead of the engine buffering the whole stream.
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
    ) -> Iterator[NormalizationResult]:
        """Stream Normalization results over a document iterable, in order.

        Chunked exactly like :meth:`stream_look_up`.
        """
        yield from self._stream(texts, self.normalize_batch, chunk_size)

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
    # cache coherence
    # ------------------------------------------------------------------ #
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
        before the stream pulls its next chunk.
        """
        self._maintenance = scheduler

    def _stream(self, items, process, chunk_size):
        size = self.chunk_size if chunk_size is None else chunk_size
        if size < 1:
            raise CrypTextError(f"chunk_size must be >= 1, got {size}")
        for chunk in _chunked(items, size):
            yield from process(chunk)
            if self._maintenance is not None:
                self._maintenance.tick()

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
            "maintenance": (
                self._maintenance.status() if self._maintenance is not None else None
            ),
        }
