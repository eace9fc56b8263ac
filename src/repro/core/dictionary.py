"""The human-written token database.

Paper §III-A: CrypText tokenizes every sentence of its source corpora,
encodes each token's sound with the customized Soundex algorithm, and stores
the result as hash-maps ``H_k`` (one per phonetic level ``k <= 2``) whose
keys are Soundex encodings and whose values are the sets of raw,
case-sensitive tokens sharing that encoding.  Table I of the paper shows a
tiny ``H_1`` built from three sentences.

:class:`PerturbationDictionary` keeps those maps themselves: one document
per distinct raw token, ::

    {
        "_id":        <auto>,
        "token":      "repubLIEcans",          # raw, case-sensitive
        "canonical":  "republiecans",          # folded form
        "keys":       {"k0": "R...", "k1": "RE...", "k2": "REP..."},
        "count":      3,                        # total occurrences seen
        "is_word":    false,                    # in the English lexicon?
        "sources":    ["hatespeech", "twitter_stream"],
    }

held in a ``token -> document`` dict, and per level a ``key -> tokens``
map whose tuples list each bucket in ``str(_id)`` order, so a Look Up
bucket read is two dict lookups.

Every write — one token, a text, a corpus, a crawler round, the lexicon
seeding, a replayed journal record — goes through one batch write: the
occurrences are merged per raw token (first-occurrence order, summed
counts), each distinct token is canonicalized once for all levels, and the
batch is applied under one ``dictionary.write`` hold with one journal
record, one :attr:`~PerturbationDictionary.version` bump and one observer
notification.  The documents come out exactly as if every occurrence had
been added one at a time.  Writes replace documents and bucket tuples
instead of mutating them, so point reads need no lock, and the dictionary
copies only into the :class:`DictionaryEntry` it returns.
"""

from __future__ import annotations

import bisect
import copy
import enum
import weakref
import zlib
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Protocol, Sequence

from ..analysis.sanitizer import tracked_lock, tracked_rlock
from ..config import CrypTextConfig, DEFAULT_CONFIG
from ..errors import DictionaryError, EncodingError
from ..obs.registry import OBS
from ..text.tokenizer import Tokenizer
from ..text.unicode_fold import has_surrogate
from ..text.wordlist import EnglishLexicon, default_lexicon
from .categories import TokenFeatures, token_features
from .soundex import CustomSoundex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (matcher imports us)
    from ..storage.snapshot import LazyPayloads, Snapshot
    from ..wal.log import ChangeLog
    from .matcher import CompiledBucket, TrieFamily, TrieFamilyRegistry

def _id_order(document: Mapping[str, object]) -> str:
    """Sort key of bucket order: ``str(_id)``, so ``"1" < "10" < "2"``."""
    return str(document["_id"])


class AddOutcome(enum.Enum):
    """What one :meth:`PerturbationDictionary.add_token` call did.

    Truthy when the token was recorded at all, so existing
    ``if add_token(...)`` call sites keep working; callers that care whether
    the write created a new entry or incremented an existing one (e.g.
    :meth:`~PerturbationDictionary.seed_lexicon`, which reports "words
    added") compare against the members.
    """

    SKIPPED = "skipped"  # no phonetic content — nothing recorded
    INSERTED = "inserted"  # first observation of this raw spelling
    UPDATED = "updated"  # count incremented on an existing entry

    def __bool__(self) -> bool:
        return self is not AddOutcome.SKIPPED


class ChangeObserver(Protocol):
    """A cache owner that wants to hear which sound buckets a write touched.

    Every cache built on the dictionary subscribes through
    :meth:`PerturbationDictionary.register_observer` and drops only its own
    entries, so a write through any path reaches every cache the same way.
    """

    def note_changes(self, changed_keys: set[tuple[int, str]] | None) -> None:
        """Called after every write with the ``(level, key)`` pairs it touched.

        ``None`` means every bucket (a snapshot load or a replay reset
        replaced the whole dictionary).
        """


@dataclass(frozen=True)
class DictionaryEntry:
    """A single raw token and its database record."""

    token: str
    canonical: str
    keys: Mapping[str, str]
    count: int
    is_word: bool
    sources: tuple[str, ...]

    def key_at(self, phonetic_level: int) -> str | None:
        """The Soundex key of this token at the requested level (or ``None``)."""
        return self.keys.get(f"k{phonetic_level}")

    @cached_property
    def token_lower(self) -> str:
        """Lowered raw spelling, computed once per entry.

        The Look Up matching loop compares lowered spellings for every
        bucket entry on every query; caching here keeps ``str.lower`` out
        of that loop for entries that are matched repeatedly (the entry
        objects are shared through the dictionary's bucket caches).
        """
        return self.token.lower()

    @cached_property
    def features(self) -> TokenFeatures:
        """The token's categorization record, computed once per entry.

        Look Up classifies every non-identical match from this record and
        the query's (see :func:`~repro.core.categories.categorize_perturbation`'s
        ``features=``).  It is built at the entry's first such match, not
        when its bucket compiles: most entries never match, and writes
        recompile hot buckets often.  It lives as long as the entry, so it
        goes when a write or an eviction drops the entry's compiled bucket.
        """
        return token_features(self.token, self.token_lower)


@dataclass(frozen=True)
class DictionaryStats:
    """Aggregate statistics of the dictionary.

    The paper's headline figures ("over 2M human-written tokens ... over 400K
    unique phonetic sounds") correspond to :attr:`total_tokens` and
    :attr:`unique_keys` at the default phonetic level.
    :attr:`compiled_cache` carries the compiled-bucket LRU and trie-family
    counters (hits/misses/evictions plus family sharing) used for capacity
    tuning of ``config.cache_max_entries``.
    """

    total_tokens: int
    total_occurrences: int
    lexicon_tokens: int
    perturbation_tokens: int
    unique_keys: Mapping[int, int]
    tokens_per_key: Mapping[int, float]
    compiled_cache: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """Serialize (used by benchmarks and the benchmark page export)."""
        return {
            "total_tokens": self.total_tokens,
            "total_occurrences": self.total_occurrences,
            "lexicon_tokens": self.lexicon_tokens,
            "perturbation_tokens": self.perturbation_tokens,
            "unique_keys": {str(level): count for level, count in self.unique_keys.items()},
            "tokens_per_key": {
                str(level): ratio for level, ratio in self.tokens_per_key.items()
            },
            "compiled_cache": dict(self.compiled_cache),
        }


@dataclass(frozen=True)
class SnapshotSaveReport:
    """What :meth:`PerturbationDictionary.save_snapshot` wrote.

    ``incremental`` distinguishes a delta save from a full rewrite; for a
    delta, ``documents``/``families``/``buckets`` count only the dirty
    slice that was serialized, and ``delta_index`` is its position in the
    chain (``None`` for a full save, or for an incremental call that found
    nothing dirty and wrote no file).  ``wal_seq`` is the change-log
    position the artifact covers — crash recovery replays only records
    past it.
    """

    path: str
    documents: int
    families: int
    buckets: int
    levels: tuple[int, ...]
    incremental: bool = False
    delta_index: int | None = None
    wal_seq: int = 0

    def to_dict(self) -> dict[str, object]:
        """Serialize for the CLI and the admin API endpoint."""
        return {
            "path": self.path,
            "documents": self.documents,
            "families": self.families,
            "buckets": self.buckets,
            "levels": list(self.levels),
            "incremental": self.incremental,
            "delta_index": self.delta_index,
            "wal_seq": self.wal_seq,
        }


@dataclass(frozen=True)
class SnapshotLoadReport:
    """What a snapshot load did — or why it fell back to recompilation.

    ``loaded`` is true when documents were installed; ``hydrated_tries``
    when pre-built trie families were adopted too.  ``reason`` explains a
    fallback (corruption, format/version mismatch) and is ``None`` on full
    success.
    """

    loaded: bool
    hydrated_tries: bool
    reason: str | None = None
    documents: int = 0
    families: int = 0
    buckets: int = 0

    def to_dict(self) -> dict[str, object]:
        """Serialize for the CLI and the admin API endpoint."""
        return {
            "loaded": self.loaded,
            "hydrated_tries": self.hydrated_tries,
            "reason": self.reason,
            "documents": self.documents,
            "families": self.families,
            "buckets": self.buckets,
        }


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`PerturbationDictionary.recover` reconstructed.

    ``loaded`` is true when a snapshot (base, possibly plus deltas) was
    installed; ``deltas_applied`` counts the chain links folded in.
    ``replayed_records`` is the WAL tail applied past the snapshot's
    recorded position, ``torn_bytes`` what a crash mid-append left behind
    (discarded by the tail repair), and ``degraded`` collects the reasons
    any layer fell back (broken delta chain, unusable base, foreign trie
    payloads) — empty for a fully clean recovery.
    """

    loaded: bool
    deltas_applied: int = 0
    documents: int = 0
    replayed_records: int = 0
    skipped_records: int = 0
    torn_bytes: int = 0
    snapshot_wal_seq: int = 0
    wal_seq: int = 0
    fingerprint: str = ""
    degraded: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        """Serialize for the CLI, ``/v1/stats``, and monitoring exports."""
        return {
            "loaded": self.loaded,
            "deltas_applied": self.deltas_applied,
            "documents": self.documents,
            "replayed_records": self.replayed_records,
            "skipped_records": self.skipped_records,
            "torn_bytes": self.torn_bytes,
            "snapshot_wal_seq": self.snapshot_wal_seq,
            "wal_seq": self.wal_seq,
            "fingerprint": self.fingerprint,
            "degraded": list(self.degraded),
        }


class PerturbationDictionary:
    """Database of raw human-written tokens grouped by phonetic sound.

    Parameters
    ----------
    config:
        Library configuration; ``max_phonetic_level`` controls how many
        hash-maps ``H_k`` are materialized (the paper uses ``k <= 2``).
    lexicon:
        English lexicon used to flag which tokens are correctly-spelled
        words.  Needed by Normalization (candidate targets must be English
        words) and by the statistics.
    """

    def __init__(
        self,
        config: CrypTextConfig = DEFAULT_CONFIG,
        lexicon: EnglishLexicon | None = None,
    ) -> None:
        self.config = config
        self.lexicon = lexicon if lexicon is not None else default_lexicon()
        self.tokenizer = Tokenizer(lowercase=False)
        self._encoders: dict[int, CustomSoundex] = {
            level: CustomSoundex(phonetic_level=level)
            for level in range(config.max_phonetic_level + 1)
        }
        # The token store: raw token -> document, and per level the H_k map
        # from Soundex key to the bucket's tokens in str(_id) order (bucket
        # order is ranking order: Look Up's case-insensitive merge keeps the
        # earlier entry on a count tie, and trie payloads index entries by
        # position).  Writers replace documents and bucket tuples under
        # dictionary.write and never mutate them; a wholesale load publishes
        # a new pair in one assignment.  So a point read takes one reference
        # to the pair and no lock.
        self._store: tuple[
            dict[str, dict[str, object]], dict[int, dict[str, tuple[str, ...]]]
        ] = ({}, {level: {} for level in self._encoders})
        self._next_id = 1
        # Serializes whole batch writes (journal, update-or-insert, version
        # bump) so concurrent writers (crawler threads) never lose count
        # increments and journal order is apply order.
        self._write_lock = tracked_rlock("dictionary.write")
        # Bumped under the compiled lock in the same block that drops the
        # written buckets, so a reader that sees the new version can no
        # longer fetch a pre-write compiled bucket: the one store guard every
        # cache uses.
        self._version = 0
        # Compiled-bucket cache: (phonetic_level, soundex_key) -> CompiledBucket,
        # LRU-ordered (hits refresh recency, capacity evicts the coldest key).
        # Writers drop exactly the pairs they touched (same scoped-invalidation
        # discipline as the query cache); stores are version-guarded so a
        # compile that straddled a write never caches a stale trie.
        self._compiled: "OrderedDict[tuple[int, str], CompiledBucket]" = OrderedDict()
        self._compiled_lock = tracked_lock("dictionary.compiled")
        self._compiled_max_entries = config.cache_max_entries
        self._compiled_hits = 0
        self._compiled_misses = 0
        self._compiled_evictions = 0
        self._compiled_invalidations = 0
        # Per-kernel match counters (myers/banded/symspell/linear), counted
        # by the query engines through note_kernel_hits under the same lock.
        from .kernels import KernelCounters

        self._kernel_counters = KernelCounters()
        # One trie-family registry per dictionary: buckets whose token
        # sequences coincide across phonetic levels (every singleton bucket,
        # and any bucket that never splits at a deeper level) compile one
        # trie instead of one per level.
        from .matcher import TrieFamilyRegistry

        self._trie_families = TrieFamilyRegistry()
        # Strong references to snapshot-hydrated families: the registry is
        # weak, so without these a cache eviction would silently discard the
        # pre-built tries the snapshot paid to persist.  Bounded by snapshot
        # size; replaced wholesale on every load.
        self._snapshot_families: tuple["TrieFamily", ...] = ()
        # Weakly-held cache owners (lookup engines, batch engines, the
        # facade) notified of every write's touched sound keys, so no write
        # can bypass their invalidation, whatever path it took.
        self._observers: "weakref.WeakSet[ChangeObserver]" = weakref.WeakSet()
        # --- durability state (the WAL subsystem, repro.wal) ---
        # Attached change log: every recorded write is journaled before it
        # is acknowledged.  Replay applies records without journaling them
        # again (``_apply`` with no op).
        self._wal: "ChangeLog | None" = None
        # Dirty sets since the last persisted snapshot (full or delta):
        # the (level, key) buckets an incremental save must re-serialize and
        # the raw tokens whose documents it must carry.  Maintained on the
        # same write path that feeds the change observers.
        self._dirty_pairs: set[tuple[int, str]] = set()
        self._dirty_tokens: set[str] = set()
        # In-memory tip of the on-disk snapshot chain (directory,
        # fingerprint of the chain tip, number of delta links).  Set by full
        # saves, delta saves, and recovery; cleared when unknown — an
        # incremental save without a tip falls back to a full rewrite.
        self._chain_dir: Path | None = None
        self._chain_fingerprint: str | None = None
        self._chain_deltas = 0
        # Change-log position the persisted chain covers; a log attached
        # later must assign only sequences past it, or replay (which skips
        # records <= the snapshot's recorded position) would drop them.
        self._chain_wal_seq = 0
        # Serializes whole snapshot saves (full and delta): concurrent
        # savers would otherwise race the chain-tip read/advance and write
        # the same delta file.  Separate from the write lock, which must
        # stay free during trie compilation.
        self._snapshot_lock = tracked_rlock("dictionary.snapshot")
        self._last_recovery: RecoveryReport | None = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped once per write call.

        A batch write (:meth:`add_corpus`, :meth:`seed_lexicon`, a replayed
        journal record, ...) counts as one mutation however many tokens it
        records; a write that records nothing leaves it unchanged.
        """
        return self._version

    @property
    def trie_families(self) -> "TrieFamilyRegistry":
        """The trie-family registry shared by every compiled-bucket cache."""
        return self._trie_families

    def register_observer(self, observer: ChangeObserver) -> None:
        """Subscribe ``observer`` to write notifications (weakly referenced)."""
        self._observers.add(observer)

    def _notify_observers(self, changed_keys: set[tuple[int, str]] | None) -> None:
        for observer in tuple(self._observers):
            observer.note_changes(changed_keys)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @property
    def phonetic_levels(self) -> tuple[int, ...]:
        """Phonetic levels for which hash-maps are materialized."""
        return tuple(sorted(self._encoders))

    def encoder(self, phonetic_level: int) -> CustomSoundex:
        """The Soundex encoder for ``phonetic_level``."""
        try:
            return self._encoders[phonetic_level]
        except KeyError as exc:
            raise DictionaryError(
                f"phonetic level {phonetic_level} is not materialized "
                f"(available: {sorted(self._encoders)})"
            ) from exc

    def _keys_for(self, token: str) -> tuple[str, dict[str, str]] | None:
        """``token``'s canonical form and its key at every level.

        Folds the token once and builds each level's key from that one
        canonical form; ``None`` when the token has no phonetic content.
        """
        try:
            canonical = self._encoders[min(self._encoders)].canonicalize(token)
        except EncodingError:
            return None
        if not canonical:
            return None
        return canonical, {
            f"k{level}": encoder.encode_canonical(canonical)
            for level, encoder in self._encoders.items()
        }

    def _apply(
        self,
        counts: Mapping[str, int],
        source: str | None,
        op: str | None,
        changed_keys: set[tuple[int, str]] | None = None,
    ) -> tuple[int, int]:
        """The one write path: record a batch of token occurrences.

        ``counts`` maps each distinct raw token to its occurrences, in the
        order the tokens were first seen, which is the order new documents
        get their ``_id`` (hence bucket order).  Tokens without phonetic
        content are dropped before anything is journaled; nothing is written
        when none remain.  ``op`` names the journal record (``"add_token"``
        for a single token, ``"learn_batch"`` otherwise); ``None`` applies a
        record that is already journaled (replay).  A count below 1, or a
        token or ``source`` holding a surrogate code point (which UTF-8,
        hence the journal and every save, cannot encode), raises
        :class:`DictionaryError` before anything is journaled or changed.

        The whole batch is one write: one ``dictionary.write`` hold, one
        journal record, one :attr:`version` bump with one compiled-bucket
        drop, and one observer notification carrying every touched
        ``(level, key)`` pair (also added to ``changed_keys`` when given).
        Returns ``(occurrences recorded, documents inserted)``.
        """
        if source is not None and has_surrogate(source):
            raise DictionaryError(f"source {source!r} holds a surrogate code point")
        encoded: list[tuple[str, int, str, dict[str, str]]] = []
        for token, count in counts.items():
            if count < 1:
                raise DictionaryError(f"count must be >= 1, got {count}")
            if has_surrogate(token):
                raise DictionaryError(f"token {token!r} holds a surrogate code point")
            keyed = self._keys_for(token)
            if keyed is not None:
                encoded.append((token, count, *keyed))
        if not encoded:
            return 0, 0
        pairs: set[tuple[int, str]] = set()
        inserted = 0
        with self._write_lock:
            # Journal-before-apply, under the write lock: a write is
            # acknowledged only once it is replayable, so a failed append
            # (disk full, closed log) rejects the whole write instead of
            # leaving a served-but-unjournaled document behind — and append
            # order is exactly ``_id`` order, which is what lets replay
            # reassign the same ``_id``s (and thus the same bucket order) a
            # crashed process had handed out.
            if op is not None and self._wal is not None:
                tokens = [[token, count] for token, count, _, _ in encoded]
                payload: dict[str, object] = {"source": source, "tokens": tokens}
                if op == "add_token":
                    [[token, count]] = tokens
                    payload = {"token": token, "source": source, "count": count}
                self._wal.append(op, payload)
            documents, buckets = self._store
            for token, count, canonical, keys in encoded:
                document = documents.get(token)
                if document is not None:
                    sources = document.get("sources", [])
                    if source and source not in sources:
                        sources = [*sources, source]
                    documents[token] = {
                        **document,
                        "count": document["count"] + count,
                        "sources": sources,
                    }
                else:
                    # The document goes in before any bucket lists it, so a
                    # concurrent bucket read always finds its documents.
                    documents[token] = {
                        "token": token,
                        "canonical": canonical,
                        "keys": keys,
                        "count": count,
                        "is_word": self.lexicon.is_word(token),
                        "sources": [source] if source else [],
                        "_id": self._next_id,
                    }
                    position = str(self._next_id)
                    self._next_id += 1
                    inserted += 1
                    for level, level_buckets in buckets.items():
                        key = keys[f"k{level}"]
                        bucket = level_buckets.get(key, ())
                        at = bisect.bisect(
                            bucket,
                            position,
                            key=lambda member: str(documents[member]["_id"]),
                        )
                        level_buckets[key] = (*bucket[:at], token, *bucket[at:])
                pairs.update((level, keys[f"k{level}"]) for level in self._encoders)
            self._dirty_pairs.update(pairs)
            self._dirty_tokens.update(token for token, _, _, _ in encoded)
            with self._compiled_lock:
                self._version += 1
                for pair in pairs:
                    if self._compiled.pop(pair, None) is not None:
                        self._compiled_invalidations += 1
            self._notify_observers(pairs)
        if changed_keys is not None:
            changed_keys.update(pairs)
        return sum(count for _, count, _, _ in encoded), inserted

    def add_token(
        self,
        token: str,
        source: str | None = None,
        count: int = 1,
        changed_keys: set[tuple[int, str]] | None = None,
    ) -> AddOutcome:
        """Record ``count`` occurrences of the raw token ``token``.

        A one-token batch of the dictionary's single write path, journaled as
        an ``add_token`` record.

        Returns an :class:`AddOutcome`: :attr:`~AddOutcome.INSERTED` for a
        first observation, :attr:`~AddOutcome.UPDATED` when an existing
        entry's count was incremented, and the falsy
        :attr:`~AddOutcome.SKIPPED` when the token had no phonetic content
        (pure punctuation/emoji tokens cannot participate in phonetic
        lookup).  Boolean call sites keep their meaning — the outcome is
        truthy exactly when something was recorded.

        When ``changed_keys`` is given, the ``(phonetic_level, soundex_key)``
        pairs whose buckets this write touched are added to it.  Every
        registered observer hears the same pairs once the write is applied.
        """
        recorded, inserted = self._apply({token: count}, source, "add_token", changed_keys)
        if not recorded:
            return AddOutcome.SKIPPED
        return AddOutcome.INSERTED if inserted else AddOutcome.UPDATED

    def add_text(self, text: str, source: str | None = None) -> int:
        """Tokenize ``text`` and add every word token as one batch write.

        Returns the number of word-token occurrences recorded (tokens with
        no phonetic content are not counted).
        """
        return self.add_corpus((text,), source=source)

    def add_corpus(self, texts: Iterable[str], source: str | None = None) -> int:
        """Add every word token of ``texts`` as one batch write.

        The tokens of all texts are merged per raw spelling, in
        first-occurrence order with summed counts, and applied under one
        write-lock hold with one ``learn_batch`` journal record, one
        :attr:`version` bump and one observer notification.  The resulting
        documents — ``_id``\\ s, counts, sources, hence bucket order — are
        exactly those of adding every occurrence with :meth:`add_token` in
        text order.  Returns the number of word-token occurrences recorded.
        """
        counts = Counter(
            token.text for text in texts for token in self.tokenizer.word_tokens(text)
        )
        return self._apply(counts, source, "learn_batch")[0]

    def learn_batch(self, texts: Iterable[str], source: str | None = None) -> int:
        """Record a whole enrichment round as one journaled mutation.

        The same write as :meth:`add_corpus`, under the name the enrichment
        path (:meth:`~repro.core.pipeline.CrypText.learn_from`) calls: one
        compound ``learn_batch`` WAL record per round instead of one frame
        per token occurrence.  Returns the number of token occurrences
        recorded.
        """
        return self.add_corpus(texts, source=source)

    def seed_lexicon(self, words: Iterable[str] | None = None) -> int:
        """Ensure canonical English words are present as dictionary entries.

        The Look Up function maps a query word to its Soundex bucket; if the
        canonical spelling itself was never observed in a corpus it must
        still exist in the bucket so Normalization has correction targets.
        All words (the whole lexicon by default) are applied as one batch
        write with source ``"lexicon"``.  Returns the number of words
        actually *added* — re-seeding over a dictionary that already
        contains a word only bumps its count and is not counted.
        """
        counts = Counter(self.lexicon if words is None else words)
        return self._apply(counts, "lexicon", "learn_batch")[1]

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._store[0])

    def __contains__(self, token: object) -> bool:
        return isinstance(token, str) and token in self._store[0]

    def entry(self, token: str) -> DictionaryEntry | None:
        """Return the :class:`DictionaryEntry` for a raw token, if present."""
        document = self._store[0].get(token)
        return self._to_entry(document) if document is not None else None

    def _to_entry(self, document: Mapping[str, object]) -> DictionaryEntry:
        return DictionaryEntry(
            token=str(document["token"]),
            canonical=str(document["canonical"]),
            keys=dict(document["keys"]),  # type: ignore[arg-type]
            count=int(document["count"]),  # type: ignore[arg-type]
            is_word=bool(document["is_word"]),
            sources=tuple(document.get("sources", ())),  # type: ignore[arg-type]
        )

    def tokens_for_key(
        self, key: str, phonetic_level: int | None = None
    ) -> list[DictionaryEntry]:
        """All entries whose Soundex encoding at the given level equals ``key``."""
        level = self.config.phonetic_level if phonetic_level is None else phonetic_level
        if level not in self._encoders:
            raise DictionaryError(
                f"phonetic level {level} is not materialized "
                f"(available: {sorted(self._encoders)})"
            )
        documents, buckets = self._store
        bucket = buckets[level].get(key, ())
        return [self._to_entry(documents[token]) for token in bucket]

    def compiled_bucket(
        self, key: str, phonetic_level: int | None = None
    ) -> "CompiledBucket":
        """The sound bucket for ``key``, compiled for one-pass matching.

        Compiled buckets are cached per ``(phonetic_level, soundex_key)``
        and invalidated incrementally: every write drops exactly the
        pairs it touched, so the next Look Up over a changed bucket
        recompiles from fresh ``tokens_for_key`` output while untouched
        buckets keep their tries warm.  The cache evicts least-recently-used
        — hits refresh recency, so the hot buckets of a skewed workload
        survive a sweep of cold keys.  The store is skipped when any write
        landed mid-compile (version guard) — the caller still gets a
        correct bucket, it just isn't cached.
        """
        from .matcher import CompiledBucket

        level = self.config.phonetic_level if phonetic_level is None else phonetic_level
        cache_key = (level, key)
        with self._compiled_lock:
            cached = self._compiled.get(cache_key)
            if cached is not None:
                self._compiled.move_to_end(cache_key)
                self._compiled_hits += 1
            else:
                self._compiled_misses += 1
        if cached is not None:
            return cached
        version = self._version
        entries = self.tokens_for_key(key, phonetic_level=level)
        compiled = CompiledBucket(entries, family=self._trie_families.family_for(entries))
        with self._compiled_lock:
            if self._version == version:
                while len(self._compiled) >= self._compiled_max_entries:
                    self._compiled.popitem(last=False)
                    self._compiled_evictions += 1
                self._compiled[cache_key] = compiled
        return compiled

    def bucket_for_token(
        self, token: str, phonetic_level: int | None = None
    ) -> list[DictionaryEntry]:
        """Entries sharing ``token``'s Soundex bucket (the raw Look Up set)."""
        level = self.config.phonetic_level if phonetic_level is None else phonetic_level
        key = self.encoder(level).encode_or_none(token)
        if key is None:
            return []
        return self.tokens_for_key(key, phonetic_level=level)

    def hashmap(self, phonetic_level: int | None = None) -> dict[str, set[str]]:
        """Materialize the full hash-map ``H_k`` as ``{encoding: {tokens}}``.

        This reproduces the structure of Table I.  For large dictionaries
        prefer :meth:`tokens_for_key`, which reads one bucket instead of
        copying them all.
        """
        level = self.config.phonetic_level if phonetic_level is None else phonetic_level
        if level not in self._encoders:
            raise DictionaryError(
                f"phonetic level {level} is not materialized "
                f"(available: {sorted(self._encoders)})"
            )
        with self._write_lock:
            buckets = list(self._store[1][level].items())
        return {key: set(tokens) for key, tokens in buckets}

    def english_words_for_key(
        self, key: str, phonetic_level: int | None = None
    ) -> list[DictionaryEntry]:
        """Entries in the bucket that are correctly-spelled English words."""
        return [
            entry
            for entry in self.tokens_for_key(key, phonetic_level=phonetic_level)
            if entry.is_word
        ]

    def _document_table(self) -> list[dict[str, object]]:
        """Every stored document, copied out under ``dictionary.write``.

        Full scans iterate this copy: iterating the live table while a
        writer inserts a token would raise.
        """
        with self._write_lock:
            return list(self._store[0].values())

    def documents(self) -> list[dict[str, object]]:
        """Copies of every token document, in ``str(_id)`` order.

        What the CLI writes to ``tokens.jsonl``; :meth:`replace_documents`
        loads it back.
        """
        return copy.deepcopy(sorted(self._document_table(), key=_id_order))

    def iter_entries(self) -> Iterator[DictionaryEntry]:
        """Iterate over every entry (arbitrary but deterministic order)."""
        for document in self._document_table():
            yield self._to_entry(document)

    def token_counts(self) -> dict[str, int]:
        """Mapping from raw token to its observed occurrence count."""
        return {
            str(document["token"]): int(document["count"])
            for document in self._document_table()
        }

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def compiled_cache_stats(self) -> dict[str, object]:
        """Compiled-bucket LRU counters plus trie-family sharing counters.

        ``hits``/``misses``/``evictions``/``invalidations`` describe the
        per-``(level, key)`` bucket cache (capacity tuning for
        ``config.cache_max_entries``); ``families`` describes how often the
        level-shared registry let a bucket reuse another bucket's tries
        instead of compiling its own.
        """
        with self._compiled_lock:
            counters: dict[str, object] = {
                "hits": self._compiled_hits,
                "misses": self._compiled_misses,
                "evictions": self._compiled_evictions,
                "invalidations": self._compiled_invalidations,
                "size": len(self._compiled),
                "capacity": self._compiled_max_entries,
                "kernel": self.config.match_kernel,
                "kernels": self._kernel_counters.to_dict(),
            }
        counters["families"] = self._trie_families.stats()
        return counters

    def note_kernel_hits(self, kernel: str, count: int = 1) -> None:
        """Attribute ``count`` matches to ``kernel`` in the stats counters.

        Called by the query engines (lookup, normalizer, and the shard
        caches' consumers) with the *resolved* kernel name — ``linear`` for
        the non-compiled per-entry scan — so ``stats().compiled_cache``
        accounts for every match the dictionary served.
        """
        with self._compiled_lock:
            self._kernel_counters.note(kernel, count)

    @staticmethod
    def _documents_fingerprint(documents: Iterable[Mapping[str, object]]) -> str:
        """CRC-32 (hex) over the trie-relevant fields of ``documents``."""
        digest = 0
        for line in sorted(
            f"{document['token']}\x00{document['canonical']}\x00{int(bool(document['is_word']))}"
            for document in documents
        ):
            digest = zlib.crc32(line.encode("utf-8"), digest)
            digest = zlib.crc32(b"\n", digest)
        return format(digest & 0xFFFFFFFF, "08x")

    def content_fingerprint(self) -> str:
        """CRC-32 (hex) over the trie-relevant content of the dictionary.

        Two dictionaries with equal fingerprints compile byte-identical
        tries for every bucket: the fingerprint folds in each raw token, its
        canonical form, and its lexicon flag — everything the matcher reads —
        but *not* counts or sources, which tries never see.  The warm-start
        loaders use it as the staleness guard: a snapshot whose recorded
        fingerprint differs from the live dictionary's must not install its
        tries.
        """
        return self._documents_fingerprint(self._document_table())

    def stats(self) -> DictionaryStats:
        """Aggregate statistics (token counts, unique keys per level)."""
        with self._write_lock:
            documents, buckets = self._store
            table = list(documents.values())
            unique_key_counts = {level: len(buckets[level]) for level in self._encoders}
        total_tokens = len(table)
        total_occurrences = sum(int(document["count"]) for document in table)
        lexicon_tokens = sum(1 for document in table if document["is_word"])
        tokens_per_key = {
            level: (total_tokens / count if count else 0.0)
            for level, count in unique_key_counts.items()
        }
        return DictionaryStats(
            total_tokens=total_tokens,
            total_occurrences=total_occurrences,
            lexicon_tokens=lexicon_tokens,
            perturbation_tokens=total_tokens - lexicon_tokens,
            unique_keys=unique_key_counts,
            tokens_per_key=tokens_per_key,
            compiled_cache=self.compiled_cache_stats(),
        )

    # ------------------------------------------------------------------ #
    # warm-start snapshots
    # ------------------------------------------------------------------ #
    def _snapshot_path(self, path: "str | Path | None") -> Path:
        """Resolve an explicit path or the configured snapshot directory."""
        from ..storage.snapshot import SNAPSHOT_FILE_NAME

        if path is not None:
            return Path(path)
        if self.config.snapshot_dir is not None:
            return Path(self.config.snapshot_dir) / SNAPSHOT_FILE_NAME
        raise DictionaryError(
            "no snapshot path given and config.snapshot_dir is not set"
        )

    def _grouped_documents(
        self, documents: Sequence[Mapping[str, object]], levels: Sequence[int]
    ) -> "dict[tuple[int, str], list[DictionaryEntry]]":
        """Entries (in ``documents`` order) grouped per ``(level, key)`` bucket.

        ``documents`` must already be in str(``_id``) order — the order
        ``tokens_for_key`` serves buckets in — so the grouped entry lists
        are exactly what a live query would retrieve.
        """
        grouped: dict[tuple[int, str], list[DictionaryEntry]] = {}
        level_fields = [(level, f"k{level}") for level in levels]
        for document in documents:
            entry = self._to_entry(document)
            keys = document.get("keys")
            if not isinstance(keys, dict):
                continue
            for level, field_name in level_fields:
                key = keys.get(field_name)
                if key is not None:
                    grouped.setdefault((level, str(key)), []).append(entry)
        return grouped

    def _family_rows(
        self, buckets: Iterable[tuple[tuple[int, str], Sequence[DictionaryEntry]]]
    ) -> "tuple[tuple[tuple[int, str, int], ...], LazyPayloads]":
        """Plan a save's bucket table and trie families; compiles nothing.

        ``buckets`` yields ``((level, key), entries)`` in table order.  Each
        distinct token sequence gets the next family row, in order of first
        appearance; the families come back as
        :class:`~repro.storage.snapshot.LazyPayloads` over the entries of
        each row's first bucket, so a family's tries are built only when
        its payload is read.
        """
        from ..storage.snapshot import LazyPayloads

        rows: dict[tuple[str, ...], int] = {}
        family_entries: list[Sequence[DictionaryEntry]] = []
        table: list[tuple[int, str, int]] = []
        for (level, key), entries in buckets:
            tokens = tuple(entry.token for entry in entries)
            row = rows.get(tokens)
            if row is None:
                row = rows[tokens] = len(family_entries)
                family_entries.append(entries)
            table.append((level, key, row))
        return tuple(table), LazyPayloads(self._family_payload, family_entries)

    def _family_payload(self, entries: Sequence[DictionaryEntry]) -> dict:
        """Build one family's two hot-path tries and serialize it.

        The raw trie (Look Up) and the canonical English-only trie
        (Normalization) are force-built through the shared registry.  A
        family the compiled-bucket LRU holds keeps them; any other family is
        freed when this returns, before a save builds the next one.
        """
        family = self._trie_families.family_for(entries)
        family.trie(False, False, entries)
        family.trie(True, True, entries)
        return family.to_payload()

    def _plan_snapshot(self, levels: Sequence[int] | None) -> "Snapshot":
        """Capture documents and plan a full snapshot with lazy families."""
        from ..storage.snapshot import Snapshot

        wanted = tuple(self.phonetic_levels if levels is None else sorted(set(levels)))
        for level in wanted:
            if level not in self._encoders:
                raise DictionaryError(
                    f"phonetic level {level} is not materialized "
                    f"(available: {sorted(self._encoders)})"
                )
        # Capture documents and the WAL position atomically with respect to
        # writers: a record journaled after this point is *not* in the
        # captured documents, so it must stay past the recorded ``wal_seq``
        # for replay to find — the no-lost-writes invariant of recovery.
        with self._write_lock:
            documents = list(self._store[0].values())
            wal_seq = self._wal.last_seq if self._wal is not None else 0
            version = self._version
        documents.sort(key=_id_order)
        buckets, families = self._family_rows(
            self._grouped_documents(documents, wanted).items()
        )
        return Snapshot(
            dictionary_version=version,
            # Fingerprint the captured documents, not the live table: a
            # concurrent write between the capture above and here must not
            # produce a snapshot that can never pass its own staleness guard.
            fingerprint=self._documents_fingerprint(documents),
            config={
                "phonetic_level": self.config.phonetic_level,
                "max_phonetic_level": self.config.max_phonetic_level,
                "levels": list(wanted),
            },
            documents=tuple(documents),
            families=families,
            buckets=buckets,
            wal_seq=wal_seq,
        )

    def build_snapshot(
        self, levels: Sequence[int] | None = None
    ) -> "Snapshot":
        """Compile every bucket and capture documents + tries in memory.

        The materialized form of the plan a full save streams: for each
        bucket the raw trie (the Look Up hot path) and the canonical
        English-only trie (the Normalization hot path) are force-built
        through the shared family registry, so a token sequence appearing
        at several phonetic levels is compiled and serialized exactly once.
        Families are built one at a time, but every payload is held;
        :meth:`save_snapshot` holds one.
        """
        snapshot = self._plan_snapshot(levels)
        return replace(snapshot, families=tuple(snapshot.families))

    def save_snapshot(
        self,
        path: "str | Path | None" = None,
        levels: Sequence[int] | None = None,
        incremental: bool = False,
        shards: "int | None" = None,
    ) -> SnapshotSaveReport:
        """Persist the documents plus their compiled tries for warm starts.

        ``path`` defaults to ``config.snapshot_dir`` (raising
        :class:`DictionaryError` when neither is available).  Compilation
        cost is paid here, once, instead of on every process start.

        A v1 full save and a delta save stream: they capture the documents,
        plan the bucket table and family rows without compiling, then build,
        write and drop one trie family at a time, so peak memory is the
        documents plus one family (a family the compiled-bucket cache holds
        stays alive).  The file is byte-identical to encoding
        :meth:`build_snapshot`'s body as one string.

        With ``incremental`` true, only the buckets written since the last
        save are re-serialized into a delta file chained onto the base
        snapshot by content fingerprint (:mod:`repro.wal.delta`) — the cost
        scales with how much changed, not with dictionary size.  An
        incremental save silently falls back to a full rewrite when there
        is no known chain to extend (no prior save into this directory, a
        non-conventional file name, or ``levels`` narrowing the default
        set); an incremental call that finds nothing dirty writes no file
        and reports zero documents.

        With ``config.snapshot_shards`` > 0 (or an explicit ``shards``
        override), a full save writes the v2 sharded layout
        (``dictionary.snapshot.d/``) instead of the v1 single file; a base
        in the other format at the conventional location is removed so
        resolution is never ambiguous.  Deltas chain onto either base
        format identically.
        """
        if OBS.armed:
            with OBS.span("snapshot.save"):
                return self._save_snapshot(path, levels, incremental, shards)
        return self._save_snapshot(path, levels, incremental, shards)

    def _save_snapshot(
        self,
        path: "str | Path | None",
        levels: Sequence[int] | None,
        incremental: bool,
        shards: "int | None",
    ) -> SnapshotSaveReport:
        from ..storage.snapshot import (
            SNAPSHOT_FILE_NAME,
            sharded_snapshot_dir,
            write_sharded_snapshot,
            write_snapshot,
        )
        from ..wal.delta import remove_delta_files

        target = self._snapshot_path(path)
        with self._snapshot_lock:
            if incremental and levels is None and target.name == SNAPSHOT_FILE_NAME:
                report = self._save_delta(target.parent)
                if report is not None:
                    return report
                # No usable chain tip — fall through to the full rewrite.
            # Dirty state is swapped out (not copied) *before* the document
            # capture inside _plan_snapshot: a write landing during the
            # save dirties the fresh sets, so it can never be subtracted
            # away by this save's completion — at worst it is both in the
            # snapshot and re-saved by the next delta, never lost.  Only a
            # save into the chain resets the baseline; a side export under
            # another name leaves the dirty sets alone.
            into_chain = target.name == SNAPSHOT_FILE_NAME
            if into_chain:
                with self._write_lock:
                    captured_pairs, self._dirty_pairs = self._dirty_pairs, set()
                    captured_tokens, self._dirty_tokens = self._dirty_tokens, set()
            try:
                # The v1 writer streams the planned families one at a time;
                # the v2 writer materializes them all first.
                snapshot = self._plan_snapshot(levels)
                if shards is None:
                    shards = self.config.snapshot_shards
                if shards > 0:
                    shard_dir = sharded_snapshot_dir(target)
                    write_sharded_snapshot(shard_dir, snapshot, shards)
                    # The v1 file (if any) is now stale; resolution prefers
                    # a readable v2 layout, but leaving both invites skew.
                    try:
                        target.unlink()
                    except OSError:  # lint: allow=swallowed-exception
                        pass
                else:
                    write_snapshot(target, snapshot)
                    self._remove_sharded_layout(sharded_snapshot_dir(target))
            except BaseException:
                if into_chain:
                    with self._write_lock:
                        self._dirty_pairs |= captured_pairs
                        self._dirty_tokens |= captured_tokens
                raise
            if into_chain:
                with self._write_lock:
                    # A full rewrite supersedes the chain: stale deltas would
                    # reference a base fingerprint that no longer exists.
                    remove_delta_files(target.parent)
                    if self._wal is None:
                        # No journal fed this state, so any segments in the
                        # conventional location are from a previous life of
                        # the directory.  The base being written records
                        # wal_seq=0; leaving them would make the next
                        # recovery replay the old history on top of it.
                        self._remove_stale_wal_segments(target.parent)
                    self._chain_dir = target.parent
                    self._chain_fingerprint = snapshot.fingerprint
                    self._chain_deltas = 0
                    self._chain_wal_seq = snapshot.wal_seq
        return SnapshotSaveReport(
            path=str(target),
            documents=len(snapshot.documents),
            families=len(snapshot.families),
            buckets=len(snapshot.buckets),
            levels=snapshot.levels,
            incremental=False,
            wal_seq=snapshot.wal_seq,
        )

    @staticmethod
    def _remove_sharded_layout(shard_dir: Path) -> None:
        """Remove a stale v2 layout superseded by a v1 full save.

        Best-effort: only the files the layout owns (manifest, shard files,
        scratch) are touched, and a directory holding anything else is left
        in place rather than guessed at.
        """
        from ..storage.snapshot import SNAPSHOT_MANIFEST_NAME

        if not shard_dir.is_dir():
            return
        try:
            for name in (SNAPSHOT_MANIFEST_NAME,):
                (shard_dir / name).unlink(missing_ok=True)
            for stale in shard_dir.glob("shard-*.bin"):
                stale.unlink(missing_ok=True)
            for stale in shard_dir.glob("*.tmp"):
                stale.unlink(missing_ok=True)
            shard_dir.rmdir()
        except OSError:  # lint: allow=swallowed-exception (best-effort GC)
            pass

    def _remove_stale_wal_segments(self, directory: Path) -> None:
        """Sideline journal segments superseded by a WAL-less full save.

        Scoped to the journal locations that belong to *this* chain
        directory: its conventional ``wal`` sibling, plus the configured
        ``wal_dir`` only when ``directory`` is the configured snapshot
        directory it backs.  A side export into an unrelated directory must
        never touch a production journal configured elsewhere.
        """
        from ..wal.log import supersede_wal_segments, wal_directory_for

        supersede_wal_segments(wal_directory_for(directory))
        if (
            self.config.wal_dir is not None
            and self.config.snapshot_dir is not None
            and Path(self.config.snapshot_dir) == directory
        ):
            supersede_wal_segments(Path(self.config.wal_dir))

    def _save_delta(self, directory: Path) -> SnapshotSaveReport | None:
        """Write one delta link covering the dirty buckets.

        Returns ``None`` when there is no usable chain tip for
        ``directory`` (never saved there, or a concurrent load invalidated
        it) — the caller then performs a full rewrite instead.  Runs under
        :attr:`_snapshot_lock`; the tip is re-read together with the dirty
        capture so it cannot change between validation and use.
        """
        from ..wal.delta import DeltaSnapshot, delta_path, write_delta

        with self._write_lock:
            if self._chain_dir != directory or self._chain_fingerprint is None:
                return None
            wal_seq = self._wal.last_seq if self._wal is not None else 0
            version = self._version
            parent = self._chain_fingerprint
            index = self._chain_deltas + 1
            if not self._dirty_pairs and not self._dirty_tokens:
                return SnapshotSaveReport(
                    path=str(directory),
                    documents=0,
                    families=0,
                    buckets=0,
                    levels=(),
                    incremental=True,
                    delta_index=None,
                    wal_seq=wal_seq,
                )
            # Swap the dirty sets out (writes landing after this lock is
            # released dirty the fresh sets and sit past the recorded
            # ``wal_seq``, so they are never lost to this save's success);
            # restored wholesale if the save fails.
            captured_pairs, self._dirty_pairs = self._dirty_pairs, set()
            captured_tokens, self._dirty_tokens = self._dirty_tokens, set()
            table = self._store[0]
            documents = sorted(
                (table[token] for token in captured_tokens if token in table),
                key=_id_order,
            )
            bucket_entries = {
                (level, key): self.tokens_for_key(key, phonetic_level=level)
                for level, key in captured_pairs
            }
            captured = list(table.values())
        try:
            fingerprint = self._documents_fingerprint(captured)
            # Trie compilation happens outside the write lock, one family at
            # a time as write_delta reaches it — a concurrent writer only
            # re-dirties a bucket, which the next delta re-saves.
            buckets, families = self._family_rows(sorted(bucket_entries.items()))
            delta = DeltaSnapshot(
                parent_fingerprint=parent,
                fingerprint=fingerprint,
                dictionary_version=version,
                wal_seq=wal_seq,
                documents=tuple(documents),
                families=families,
                buckets=buckets,
            )
            target = delta_path(directory, index)
            write_delta(target, delta)
        except BaseException:
            with self._write_lock:
                self._dirty_pairs |= captured_pairs
                self._dirty_tokens |= captured_tokens
            raise
        with self._write_lock:
            self._chain_fingerprint = fingerprint
            self._chain_deltas = index
            self._chain_wal_seq = wal_seq
        levels = tuple(sorted({level for level, _, _ in buckets}))
        return SnapshotSaveReport(
            path=str(target),
            documents=len(delta.documents),
            families=len(delta.families),
            buckets=len(delta.buckets),
            levels=levels,
            incremental=True,
            delta_index=index,
            wal_seq=wal_seq,
        )

    def adopt_snapshot_families(
        self, snapshot: "Snapshot"
    ) -> "tuple[TrieFamily, ...]":
        """Hydrate the snapshot's trie families into the shared registry.

        Returns one family per snapshot row (registry-deduplicated) and
        pins them with strong references so later compilations keep finding
        the pre-built tries even after cache evictions.  Malformed family
        payloads raise :class:`~repro.errors.SnapshotError`.
        """
        from ..errors import SnapshotError
        from .matcher import TrieFamily

        hydrated: list[TrieFamily] = []
        for payload in snapshot.families:
            try:
                family = TrieFamily.from_payload(payload)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise SnapshotError(f"malformed trie family payload: {exc}") from exc
            hydrated.append(self._trie_families.adopt(family))
        self._snapshot_families = tuple(hydrated)
        return self._snapshot_families

    def load_snapshot(
        self,
        path: "str | Path | None" = None,
        strict: bool = False,
    ) -> SnapshotLoadReport:
        """Replace the documents from a snapshot and install its warm tries.

        The version guard and corruption handling:

        * a missing/corrupt file, a foreign format version, or a checksum
          mismatch raises :class:`~repro.errors.SnapshotError` under
          ``strict`` and otherwise returns a fallback report
          (``loaded=False``) — the dictionary is left untouched and keeps
          recompiling lazily, exactly as before snapshots existed;
        * on success the documents are installed with their original
          ``_id``\\ s (preserving bucket order), the mutation version is
          bumped, every observer clears its cache, and the compiled-bucket
          LRU is pre-seeded with hydrated views up to its capacity.
        """
        if OBS.armed:
            with OBS.span("snapshot.load"):
                return self._load_snapshot(path, strict)
        return self._load_snapshot(path, strict)

    def _load_snapshot(
        self,
        path: "str | Path | None",
        strict: bool,
    ) -> SnapshotLoadReport:
        from ..errors import SnapshotError
        from ..storage.snapshot import resolve_snapshot
        from .matcher import CompiledBucket

        try:
            target = self._snapshot_path(path)
            snapshot = resolve_snapshot(target, strict=True)
        except (SnapshotError, DictionaryError) as exc:
            if strict:
                raise
            return SnapshotLoadReport(
                loaded=False, hydrated_tries=False, reason=str(exc)
            )
        report = self._install_snapshot(snapshot, strict=strict)
        if report.loaded:
            self._note_persisted_state(target, snapshot)
        return report

    def _note_persisted_state(self, target: Path, snapshot: "Snapshot") -> None:
        """Synchronize durability state after a wholesale snapshot install.

        The journal no longer applies to the replaced state, so an attached
        WAL starts a new epoch (with its sequence floor raised past the
        snapshot's recorded position, in case the snapshot came from a
        different journal's history).  The chain tip is adopted only when
        the installed file is a conventional base with no delta siblings —
        a base loaded out from under its deltas must not be extended.
        """
        from ..errors import SnapshotError
        from ..storage.snapshot import SNAPSHOT_FILE_NAME
        from ..wal.delta import list_delta_paths, read_delta

        # The sequence floor must clear every position a later recovery
        # might filter replay by.  For a base loaded out from under its
        # delta chain that is the *chain tip's* recorded position, not the
        # base's: recovery resolves the whole chain, and records of a
        # fresh journal numbered below the tip would be skipped as
        # "already covered".
        floor = snapshot.wal_seq
        has_deltas = False
        usable_chain = True
        if target.name == SNAPSHOT_FILE_NAME:
            try:
                deltas = list_delta_paths(target.parent)
                has_deltas = bool(deltas)
                if deltas:
                    floor = max(floor, read_delta(deltas[-1]).wal_seq)
            except SnapshotError:
                has_deltas = True
                usable_chain = False
        with self._write_lock:
            if self._wal is not None:
                self._wal.reset(next_seq_floor=floor)
            # Remembered even with no log attached yet: a later attach_wal
            # must still start past the installed chain's position.
            self._chain_wal_seq = max(self._chain_wal_seq, floor)
            if target.name != SNAPSHOT_FILE_NAME:
                return
            if has_deltas or not usable_chain:
                if self._chain_dir == target.parent:
                    self._chain_fingerprint = None
            else:
                self._chain_dir = target.parent
                self._chain_fingerprint = snapshot.fingerprint
                self._chain_deltas = 0

    def _replace_store_locked(self, documents: Iterable[Mapping[str, object]]) -> int:
        """Make ``documents`` the dictionary's whole state; returns the new version.

        The one wholesale replace, behind snapshot installs, the pure-replay
        reset of :meth:`recover` and :meth:`replace_documents`.  The documents
        are adopted by reference with their ``_id``\\ s, every level's
        buckets are grouped in one ``str(_id)``-ordered pass, and new tokens
        continue numbering after the largest installed ``_id``.  The new
        tables are published in one assignment, so a concurrent reader sees
        the old state or the new one, never a mix.  Bumps :attr:`version`,
        clears the compiled-bucket LRU and the dirty sets (the installed
        state counts as persisted); the caller holds ``dictionary.write`` and
        notifies the observers.
        """
        try:
            ordered = sorted(documents, key=_id_order)
            table = {str(document["token"]): document for document in ordered}
            grouped: dict[int, dict[str, list[str]]] = {
                level: {} for level in self._encoders
            }
            fields = [(f"k{level}", buckets) for level, buckets in grouped.items()]
            for token, document in table.items():
                keys = document["keys"]
                for field_name, buckets in fields:
                    key = keys.get(field_name)
                    if key is not None:
                        buckets.setdefault(key, []).append(token)
            next_id = max((int(document["_id"]) for document in ordered), default=0) + 1
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DictionaryError(f"malformed token document: {exc!r}") from exc
        if len(table) != len(ordered):
            raise DictionaryError("token documents repeat a token")
        # One C-level pass over all tokens; a surrogate stays one on joining.
        if has_surrogate("".join(table)):
            token = next(token for token in table if has_surrogate(token))
            raise DictionaryError(f"token {token!r} holds a surrogate code point")
        self._store = (
            table,
            {
                level: {key: tuple(tokens) for key, tokens in level_buckets.items()}
                for level, level_buckets in grouped.items()
            },
        )
        self._next_id = next_id
        self._dirty_pairs.clear()
        self._dirty_tokens.clear()
        with self._compiled_lock:
            self._version += 1
            self._compiled.clear()
            return self._version

    def replace_documents(self, documents: Iterable[Mapping[str, object]]) -> None:
        """Replace the whole dictionary with ``documents`` (a ``tokens.jsonl`` load).

        ``documents`` are :meth:`documents` output or its JSON round trip:
        their ``_id``\\ s keep bucket order, and new tokens are numbered
        after the largest one.  Nothing is journaled, every observer drops
        its cache, and the next incremental save rewrites the snapshot in
        full, since the new state continues no saved chain.  A document
        without a ``token``, ``keys`` or integer ``_id``, a token listed
        twice, or a token holding a surrogate code point (which no save
        could encode) raises :class:`DictionaryError` and changes nothing.
        """
        with self._write_lock:
            self._replace_store_locked(documents)
            self._chain_fingerprint = None
        self._notify_observers(None)

    def _install_snapshot(
        self, snapshot: "Snapshot", strict: bool = False
    ) -> SnapshotLoadReport:
        """Replace all documents from an in-memory snapshot (see above).

        The file-less core of :meth:`load_snapshot`, shared with
        :meth:`recover` — which installs a snapshot merged from a base plus
        delta chain that never existed as a single file on disk.
        """
        from ..errors import SnapshotError
        from .matcher import CompiledBucket

        # One entry per document, shared by its buckets at every level, and
        # built first so that a malformed document replaces nothing.
        entries = {
            str(document["token"]): self._to_entry(document)
            for document in snapshot.documents
        }
        with self._write_lock:
            version = self._replace_store_locked(snapshot.documents)
            buckets = self._store[1]

        try:
            families = self.adopt_snapshot_families(snapshot)
        except SnapshotError as exc:
            # Documents are in and consistent; only the warm tries are lost.
            self._notify_observers(None)
            if strict:
                raise
            return SnapshotLoadReport(
                loaded=True,
                hydrated_tries=False,
                reason=str(exc),
                documents=len(snapshot.documents),
            )

        installed = 0
        with self._compiled_lock:
            for level, key, family_row in snapshot.buckets:
                # A write that landed since the install must not be shadowed
                # by a pre-write hydrated bucket.
                if installed >= self._compiled_max_entries or self._version != version:
                    break
                tokens = buckets.get(level, {}).get(key, ())
                family = families[family_row]
                if tokens != family.tokens:
                    # A family whose token sequence does not spell the bucket
                    # (corrupt mapping) must not serve it; the bucket falls
                    # back to lazy compilation instead.  A bucket a racing
                    # write already grew lands here too (its new token is in
                    # no snapshot family), ahead of the version check.
                    continue
                self._compiled[(level, key)] = CompiledBucket(
                    [entries[token] for token in tokens], family=family
                )
                installed += 1
        self._notify_observers(None)
        return SnapshotLoadReport(
            loaded=True,
            hydrated_tries=True,
            documents=len(snapshot.documents),
            families=len(families),
            buckets=installed,
        )

    # ------------------------------------------------------------------ #
    # durability: WAL attachment & crash recovery
    # ------------------------------------------------------------------ #
    @property
    def wal(self) -> "ChangeLog | None":
        """The attached change log, if any."""
        return self._wal

    @property
    def last_recovery(self) -> RecoveryReport | None:
        """The most recent :meth:`recover` outcome (``/v1/stats`` surface)."""
        return self._last_recovery

    def attach_wal(self, wal: "ChangeLog") -> None:
        """Journal every subsequent recorded write to ``wal``.

        The log's sequence floor is raised past anything a previously
        installed snapshot chain covers (``ensure_seq_at_least``), so a
        log attached *after* a snapshot load cannot hand out sequences the
        snapshot's recorded position would shadow at replay time.
        """
        with self._write_lock:
            if self._chain_wal_seq:
                wal.ensure_seq_at_least(self._chain_wal_seq)
            self._wal = wal

    def detach_wal(self) -> "ChangeLog | None":
        """Stop journaling; returns the previously attached log."""
        with self._write_lock:
            wal, self._wal = self._wal, None
            return wal

    def hydrate_snapshot(
        self, snapshot: "Snapshot", strict: bool = False
    ) -> SnapshotLoadReport:
        """Replace all state from an in-memory (chain-resolved) snapshot.

        The follower-replication entry point: a replica resolves the
        leader's base + delta chain with
        :func:`~repro.wal.delta.resolve_snapshot_chain` and installs the
        merged snapshot here — no file round-trip, no journal side effects
        beyond raising the sequence floor so a log attached later starts
        past the snapshot's recorded position.  The installed state counts
        as persisted (nothing dirty).
        """
        with self._write_lock:
            report = self._install_snapshot(snapshot, strict=strict)
            self._chain_wal_seq = max(self._chain_wal_seq, snapshot.wal_seq)
            if self._wal is not None:
                self._wal.ensure_seq_at_least(snapshot.wal_seq)
        return report

    def apply_wal_record(self, record: "WalRecord") -> bool:
        """Apply one journaled mutation without re-journaling it.

        The shared replay core of crash recovery and follower replication:
        an ``add_token`` or compound ``learn_batch`` record is applied as one
        batch write with journaling suppressed (a replica consuming history
        must not append it again), in the order the record lists its tokens,
        so replay reassigns the ``_id``\\ s the original write handed out.
        Anything else returns ``False`` for the caller to count as skipped.
        Idempotence by sequence number is the *caller's* contract — apply
        each record at most once, filtered by ``seq`` against the last
        applied position.
        """
        source = record.payload.get("source")
        counts: dict[str, int] = {}
        if record.op == "add_token":
            counts[str(record.payload["token"])] = int(record.payload.get("count", 1))
        elif record.op == "learn_batch":
            for token, count in record.payload.get("tokens", ()):
                counts[str(token)] = counts.get(str(token), 0) + int(count)
        else:
            return False
        self._apply(counts, source, None)
        return True

    def dirty_state(self) -> dict[str, int]:
        """How much has changed since the last persisted snapshot."""
        with self._write_lock:
            return {
                "dirty_buckets": len(self._dirty_pairs),
                "dirty_tokens": len(self._dirty_tokens),
                "chain_deltas": self._chain_deltas,
            }

    def _wal_directory(self, snapshot_dir: Path, wal_dir: "str | Path | None") -> Path:
        from ..wal.log import resolve_wal_directory

        return resolve_wal_directory(self.config, snapshot_dir, wal_dir)

    def recover(
        self,
        snapshot_dir: "str | Path | None" = None,
        wal_dir: "str | Path | None" = None,
        strict: bool = False,
    ) -> RecoveryReport:
        """Reconstruct the dictionary after a crash: chain hydrate + WAL replay.

        Three layers, each degrading independently (``strict`` turns any
        degradation into a raised :class:`~repro.errors.SnapshotError` /
        :class:`~repro.errors.WalError` instead):

        1. the **snapshot chain** — base plus deltas resolved by content
           fingerprint; a broken delta chain falls back to the base alone,
           an unusable base to an empty start (full recompilation);
        2. the **WAL tail** — the change log at ``wal_dir`` (default
           ``config.wal_dir``, else ``<snapshot_dir>/wal``) is repaired
           (torn tail truncated) and every record past the installed
           snapshot's ``wal_seq`` is re-applied in order, so a ``kill -9``
           mid-ingest loses nothing that was acknowledged;
        3. the log stays **attached** afterwards: subsequent writes keep
           journaling, and the replayed tail is marked dirty so the next
           incremental save persists it.
        """
        from ..errors import SnapshotError
        from ..storage.snapshot import SNAPSHOT_FILE_NAME, read_snapshot
        from ..wal.delta import resolve_snapshot_chain
        from ..wal.log import ChangeLog

        if snapshot_dir is not None:
            directory = Path(snapshot_dir)
        elif self.config.snapshot_dir is not None:
            directory = Path(self.config.snapshot_dir)
        else:
            raise DictionaryError(
                "no snapshot directory given and config.snapshot_dir is not set"
            )
        degraded: list[str] = []

        snapshot: "Snapshot | None" = None
        deltas_applied = 0
        try:
            chain = resolve_snapshot_chain(directory, strict=False)
        except SnapshotError as exc:
            # Base was readable but a delta link is broken: degrade to the
            # base alone — the WAL (retained since the last *full* save)
            # still replays everything the deltas carried.
            if strict:
                raise
            degraded.append(str(exc))
            chain = None
            try:
                snapshot = read_snapshot(directory / SNAPSHOT_FILE_NAME)
            except SnapshotError as base_exc:
                degraded.append(str(base_exc))
        if chain is not None:
            snapshot = chain.snapshot
            deltas_applied = chain.deltas_applied
        elif snapshot is None and not degraded:
            degraded.append(f"no usable snapshot in {directory}")
            if strict:
                raise SnapshotError(degraded[-1])

        from ..errors import WalError

        after_seq = snapshot.wal_seq if snapshot is not None else 0
        wal_path = self._wal_directory(directory, wal_dir)
        wal: "ChangeLog | None" = None
        try:
            attached = self._wal
            if attached is not None and Path(attached.directory) == wal_path:
                # Recovery over a live system: keep the already-attached
                # log instead of opening a second handle on the same
                # directory — holders of the existing instance (the
                # maintenance scheduler) must keep operating on the log
                # that stays attached, not on an orphaned twin whose
                # truncations would unlink the live segments.
                wal = attached
                wal.repair()
            else:
                wal = ChangeLog(
                    wal_path,
                    segment_bytes=self.config.wal_segment_bytes,
                )
        except WalError as exc:
            # Interior corruption (a bad frame before the final segment):
            # records past the tear cannot be trusted, so non-strict
            # recovery degrades to snapshot-only instead of taking the
            # serving path down.  No log is attached — a fresh epoch needs
            # an operator decision (move the corrupt directory aside).
            if strict:
                raise
            degraded.append(str(exc))
            wal = None

        install_loaded = False
        documents = 0
        replayed = 0
        skipped = 0
        torn = wal.stats().torn_bytes if wal is not None else 0
        # State replacement, log attachment, and replay run as one unit
        # under the (reentrant) write lock: recovery is atomic with
        # respect to concurrent writers, so no write can slip between the
        # install and the attach unjournaled, or interleave with the
        # replay and be double-applied.
        with self._write_lock:
            if snapshot is not None:
                report = self._install_snapshot(snapshot, strict=strict)
                install_loaded = report.loaded
                documents = report.documents
                if report.reason:
                    degraded.append(report.reason)
            else:
                # Pure-replay reconstruction: recovery *replaces* state.
                # Replaying onto whatever the dictionary already holds (a
                # seeded lexicon, or the live state on a second recover
                # call) would double-apply every record.
                self._replace_store_locked(())
                self._notify_observers(None)
            # Even with no usable log, a log attached later (after the
            # operator moves a corrupt directory aside) must start past
            # the installed snapshot's position.
            self._chain_wal_seq = max(self._chain_wal_seq, after_seq)
            if wal is not None:
                wal.ensure_seq_at_least(after_seq)
                self._wal = wal
                self._chain_wal_seq = after_seq
                for record in wal.iter_records(after_seq=after_seq):
                    if self.apply_wal_record(record):
                        replayed += 1
                    else:
                        # Unknown operation (a newer writer's record):
                        # skip it rather than fail the whole recovery,
                        # but say so.
                        skipped += 1
                if skipped:
                    degraded.append(
                        f"skipped {skipped} records with unknown operations"
                    )
            if install_loaded and snapshot is not None:
                # The next delta extends the *on-disk* tip; the replayed
                # tail is dirty on top of it and rides along in that delta.
                self._chain_dir = directory
                self._chain_fingerprint = snapshot.fingerprint
                self._chain_deltas = deltas_applied
            else:
                self._chain_fingerprint = None
        outcome = RecoveryReport(
            loaded=install_loaded,
            deltas_applied=deltas_applied,
            documents=documents,
            replayed_records=replayed,
            skipped_records=skipped,
            torn_bytes=torn,
            snapshot_wal_seq=after_seq,
            wal_seq=wal.last_seq if wal is not None else after_seq,
            fingerprint=self.content_fingerprint(),
            degraded=tuple(degraded),
        )
        self._last_recovery = outcome
        return outcome

    # ------------------------------------------------------------------ #
    # factories
    # ------------------------------------------------------------------ #
    @classmethod
    def from_corpus(
        cls,
        texts: Sequence[str],
        config: CrypTextConfig = DEFAULT_CONFIG,
        lexicon: EnglishLexicon | None = None,
        source: str | None = "corpus",
        seed_lexicon: bool = False,
    ) -> "PerturbationDictionary":
        """Build a dictionary directly from an iterable of sentences."""
        dictionary = cls(config=config, lexicon=lexicon)
        dictionary.add_corpus(texts, source=source)
        if seed_lexicon:
            dictionary.seed_lexicon()
        return dictionary
