"""The Look Up function: discovering text perturbations (paper §III-B).

Given a query token ``x``, Look Up returns the set ``P_x`` of tokens in the
database that satisfy the SMS property with respect to ``x``: they share the
customized Soundex encoding at phonetic level ``k`` and lie within
Levenshtein distance ``d`` of the query.  The paper's GUI displays the result
as an interactive word cloud whose word sizes follow observed frequencies;
the equivalent data export lives in :mod:`repro.viz.wordcloud`.

The default hyper-parameters are the paper's (``k = 1``, ``d = 3``);
"advanced users" may override both per query, which is exposed here as plain
keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from ..config import CrypTextConfig, DEFAULT_CONFIG
from ..storage import TTLCache, make_key
from .categories import PerturbationCategory, categorize_perturbation
from .dictionary import DictionaryEntry, PerturbationDictionary
from .edit_distance import bounded_levenshtein, bounded_osa
from .matcher import CompiledBucket
from .sms import SMSCheck


def sound_tag(phonetic_level: int, soundex_key: str) -> tuple[str, int, str]:
    """Cache tag identifying one sound bucket at one phonetic level.

    Every cached query whose answer depends on the bucket ``soundex_key`` at
    level ``phonetic_level`` is tagged with this value, so a dictionary write
    can invalidate exactly the queries whose buckets changed instead of
    flushing the whole cache.
    """
    return ("sound", phonetic_level, soundex_key)


@dataclass(frozen=True)
class PerturbationMatch:
    """One token of ``P_x`` returned by Look Up."""

    token: str
    canonical: str
    edit_distance: int
    count: int
    is_original: bool
    is_word: bool
    category: PerturbationCategory

    def to_dict(self) -> dict[str, object]:
        """Serialize for the API layer and visualization exports."""
        return {
            "token": self.token,
            "canonical": self.canonical,
            "edit_distance": self.edit_distance,
            "count": self.count,
            "is_original": self.is_original,
            "is_word": self.is_word,
            "category": self.category.value,
        }


@dataclass(frozen=True)
class LookupResult:
    """The full result of a Look Up query."""

    query: str
    phonetic_level: int
    max_edit_distance: int
    soundex_key: str | None
    matches: tuple[PerturbationMatch, ...] = field(default_factory=tuple)

    @property
    def perturbations(self) -> tuple[PerturbationMatch, ...]:
        """Matches other than the query word itself (``P_x`` proper)."""
        return tuple(match for match in self.matches if not match.is_original)

    @property
    def tokens(self) -> tuple[str, ...]:
        """Raw token strings of every match (query included), most frequent first."""
        return tuple(match.token for match in self.matches)

    def perturbation_tokens(self) -> tuple[str, ...]:
        """Raw token strings of the perturbations only."""
        return tuple(match.token for match in self.perturbations)

    def enriched_queries(self, limit: int | None = None) -> tuple[str, ...]:
        """Query plus perturbations — the "keyword enrichment" use case.

        The §III-B use case searches a platform with the original keyword
        *and* its perturbations; this helper returns that expanded query set.
        """
        extra = self.perturbation_tokens()
        if limit is not None:
            extra = extra[:limit]
        return (self.query, *extra)

    def to_dict(self) -> dict[str, object]:
        """Serialize for the API layer."""
        return {
            "query": self.query,
            "phonetic_level": self.phonetic_level,
            "max_edit_distance": self.max_edit_distance,
            "soundex_key": self.soundex_key,
            "matches": [match.to_dict() for match in self.matches],
        }


class LookupEngine:
    """Executes Look Up queries against a :class:`PerturbationDictionary`.

    Parameters
    ----------
    dictionary:
        The token database to query.
    config:
        Default hyper-parameters (``phonetic_level``, ``edit_distance``) and
        cache settings.
    cache:
        Optional query cache; when omitted and ``config.cache_enabled`` is
        true a private :class:`~repro.storage.TTLCache` is created.  The
        cache mirrors the Redis layer of the original architecture; an
        engine with a cache observes the dictionary, so every write drops
        the cached queries over the sounds it changed.
    """

    def __init__(
        self,
        dictionary: PerturbationDictionary,
        config: CrypTextConfig = DEFAULT_CONFIG,
        cache: TTLCache | None = None,
    ) -> None:
        self.dictionary = dictionary
        self.config = config
        if cache is not None:
            self.cache = cache
        elif config.cache_enabled:
            self.cache = TTLCache(
                max_entries=config.cache_max_entries,
                default_ttl=config.cache_ttl_seconds,
            )
        else:
            self.cache = None
        if self.cache is not None:
            dictionary.register_observer(self)

    def resolve_transpositions(self, use_transpositions: bool | None) -> bool:
        """The distance policy for one query: explicit override or config."""
        return (
            self.config.use_transpositions
            if use_transpositions is None
            else use_transpositions
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _finish_match(
        query: str,
        entry: DictionaryEntry,
        distance: int,
        transpositions: bool,
        canonical_distance: bool,
    ) -> PerturbationMatch:
        """Build the match record once the edit distance is known.

        The categorizer runs in the same canonical-distance mode the match
        was filtered under, so a swap perturbation admitted as one OSA edit
        is labelled ``adjacent_swap`` while the same pair admitted under
        plain Levenshtein (two edits) reports ``mixed``.  A match filtered
        on lowered raw spellings hands the categorizer its exact distance;
        a canonical-form distance is a different quantity and is not passed.
        """
        is_original = entry.token == query
        category = (
            PerturbationCategory.IDENTICAL
            if is_original
            else categorize_perturbation(
                query,
                entry.token,
                use_transpositions=transpositions,
                distance=None if canonical_distance else distance,
            )
        )
        return PerturbationMatch(
            token=entry.token,
            canonical=entry.canonical,
            edit_distance=distance,
            count=entry.count,
            is_original=is_original,
            is_word=entry.is_word,
            category=category,
        )

    def build_result(
        self,
        query: str,
        phonetic_level: int,
        max_edit_distance: int,
        case_sensitive: bool,
        canonical_distance: bool,
        soundex_key: str | None,
        bucket: Sequence[DictionaryEntry],
        use_transpositions: bool | None = None,
    ) -> LookupResult:
        """Assemble a :class:`LookupResult` from a pre-fetched sound bucket.

        This is the single matching/merging/ranking path shared by the
        per-query route (:meth:`look_up`) and the batch engine (which fetches
        each distinct bucket of a batch once) — guaranteeing batch results
        are identical to sequential ones.

        When ``bucket`` is a :class:`~repro.core.matcher.CompiledBucket` the
        edit distances come from one trie traversal instead of a per-entry
        scan; merge/rank semantics are unchanged because matches are still
        folded in bucket order with the exact distances the scan produces.
        """
        if soundex_key is None:
            return LookupResult(
                query=query,
                phonetic_level=phonetic_level,
                max_edit_distance=max_edit_distance,
                soundex_key=None,
                matches=(),
            )
        encoder = self.dictionary.encoder(phonetic_level)
        query_canonical = encoder.canonicalize(query)
        query_lower = query.lower()
        # One distance policy for filtering *and* categorization, shared
        # with SMSCheck and the normalizer: with transpositions an adjacent
        # swap costs one edit on the compiled and the linear path alike.
        # ``use_transpositions`` overrides the config per query (the paper's
        # "advanced users" hook); ``None`` keeps the configured policy.
        transpositions = self.resolve_transpositions(use_transpositions)
        if isinstance(bucket, CompiledBucket):
            compared = query_canonical if canonical_distance else query_lower
            kernel = bucket.kernel_for(
                self.config.match_kernel,
                len(compared),
                max_edit_distance,
                transpositions,
            )
            self.dictionary.note_kernel_hits(kernel)
            distances = bucket.match(
                compared,
                max_edit_distance,
                canonical=canonical_distance,
                transpositions=transpositions,
                kernel=kernel,
            )
            # Visit only the matched entries, in ascending index = bucket
            # order (the merge below is order-sensitive when counts tie).
            entries = bucket.entries
            scored = (
                (entries[index], distances[index]) for index in sorted(distances)
            )
        else:
            # The paper's d bounds the Levenshtein distance between the raw
            # spellings (its worked example counts "republic@@ns" as two
            # edits from "republicans"); canonical-distance mode is offered
            # for callers that want visual folds to count as zero-cost.
            if len(bucket):
                self.dictionary.note_kernel_hits("linear")
            bounded_distance = bounded_osa if transpositions else bounded_levenshtein
            scored = (
                (
                    entry,
                    bounded_distance(
                        query_canonical if canonical_distance else query_lower,
                        entry.canonical if canonical_distance else entry.token_lower,
                        max_edit_distance,
                    ),
                )
                for entry in bucket
            )
        matches: dict[str, PerturbationMatch] = {}
        for entry, distance in scored:
            if distance is None:
                continue
            match = self._finish_match(
                query, entry, distance, transpositions, canonical_distance
            )
            key = match.token if case_sensitive else match.token.lower()
            existing = matches.get(key)
            if existing is None:
                matches[key] = match
            else:
                # Case-insensitive mode merges "DemocRATs"/"democRATs":
                # keep the more frequent spelling, sum the counts.
                keep, drop = (
                    (existing, match)
                    if existing.count >= match.count
                    else (match, existing)
                )
                matches[key] = PerturbationMatch(
                    token=keep.token,
                    canonical=keep.canonical,
                    edit_distance=min(keep.edit_distance, drop.edit_distance),
                    count=keep.count + drop.count,
                    is_original=keep.is_original or drop.is_original,
                    is_word=keep.is_word or drop.is_word,
                    category=keep.category,
                )
        ordered = sorted(
            matches.values(),
            key=lambda match: (-match.count, match.edit_distance, match.token),
        )
        return LookupResult(
            query=query,
            phonetic_level=phonetic_level,
            max_edit_distance=max_edit_distance,
            soundex_key=soundex_key,
            matches=tuple(ordered),
        )

    def _execute(
        self,
        query: str,
        phonetic_level: int,
        max_edit_distance: int,
        case_sensitive: bool,
        canonical_distance: bool = False,
        use_transpositions: bool | None = None,
    ) -> LookupResult:
        soundex_key = self.dictionary.encoder(phonetic_level).encode_or_none(query)
        bucket: Sequence[DictionaryEntry] = ()
        if soundex_key is not None:
            if self.config.compiled_buckets:
                bucket = self.dictionary.compiled_bucket(
                    soundex_key, phonetic_level=phonetic_level
                )
            else:
                bucket = self.dictionary.tokens_for_key(
                    soundex_key, phonetic_level=phonetic_level
                )
        return self.build_result(
            query,
            phonetic_level,
            max_edit_distance,
            case_sensitive,
            canonical_distance,
            soundex_key,
            bucket,
            use_transpositions=use_transpositions,
        )

    def cache_key(
        self,
        query: str,
        phonetic_level: int,
        max_edit_distance: int,
        case_sensitive: bool,
        canonical_distance: bool,
        use_transpositions: bool | None = None,
    ) -> Hashable:
        """The cache key a Look Up with these parameters is stored under.

        Exposed so the batch engine populates the same cache entries the
        per-query route consults (one cache, two access paths).  The
        *resolved* distance policy — the per-query ``use_transpositions``
        override, or the config default when none was given — is part of the
        key: engines sharing one cache object with different policies must
        never serve each other's results (the same pair can be in-bound
        under OSA and out-of-bound under plain Levenshtein), and an
        overridden query must not collide with a default-policy one.
        """
        return make_key(
            "lookup", query, phonetic_level, max_edit_distance, case_sensitive,
            canonical_distance, self.resolve_transpositions(use_transpositions),
        )

    def cache_result(self, result: LookupResult, case_sensitive: bool,
                     canonical_distance: bool, version: int,
                     use_transpositions: bool | None = None) -> None:
        """Store ``result`` in the query cache, tagged with its sound bucket.

        ``version`` is the dictionary's, captured before the result was
        computed.  The store is atomically guarded by it: it is skipped when
        any write landed in the meantime, so a result built from a pre-write
        bucket can never outlive the write's invalidation.
        """
        if self.cache is None:
            return
        key = self.cache_key(
            result.query,
            result.phonetic_level,
            result.max_edit_distance,
            case_sensitive,
            canonical_distance,
            use_transpositions,
        )
        tags = (
            (sound_tag(result.phonetic_level, result.soundex_key),)
            if result.soundex_key is not None
            else ()
        )
        dictionary = self.dictionary
        self.cache.set_if(
            key, result, lambda: dictionary.version == version, tags=tags
        )

    def note_changes(self, changed_keys: set[tuple[int, str]] | None) -> None:
        """Dictionary write notification (the ``ChangeObserver`` hook).

        Drops the cached queries over the changed ``(level, key)`` sound
        buckets; cached queries over unchanged buckets survive.  ``None``
        (a snapshot load or a replay reset) clears the whole cache.
        """
        if changed_keys is None:
            self.cache.clear()
        else:
            self.cache.invalidate_tags(
                sound_tag(level, key) for level, key in changed_keys
            )

    def look_up(
        self,
        query: str,
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        canonical_distance: bool = False,
        use_transpositions: bool | None = None,
    ) -> LookupResult:
        """Return ``P_query``: the perturbations of ``query`` in the database.

        Parameters
        ----------
        query:
            The token to search for (typically a correctly-spelled keyword).
        phonetic_level / max_edit_distance:
            Override the configured ``k`` / ``d`` for this query (the paper's
            "advanced users ... through a provided API").
        case_sensitive:
            When ``False``, case variants are merged into a single match.
        canonical_distance:
            Compute the ``d`` bound between canonical (visually folded) forms
            instead of raw spellings.
        use_transpositions:
            Override the configured distance policy for this query: ``True``
            scores an adjacent swap as one edit (OSA/Damerau), ``False`` as
            two (plain Levenshtein), ``None`` keeps
            ``config.use_transpositions``.  The resolved policy is part of
            the cache key, so overridden and default queries never serve
            each other's results.
        """
        level = self.config.phonetic_level if phonetic_level is None else phonetic_level
        distance = (
            self.config.edit_distance if max_edit_distance is None else max_edit_distance
        )
        if self.cache is None:
            return self._execute(
                query, level, distance, case_sensitive, canonical_distance,
                use_transpositions,
            )
        cache_key = self.cache_key(
            query, level, distance, case_sensitive, canonical_distance,
            use_transpositions,
        )
        cached = self.cache.get(cache_key, default=None)
        if cached is not None:
            return cached
        version = self.dictionary.version
        result = self._execute(
            query, level, distance, case_sensitive, canonical_distance,
            use_transpositions,
        )
        self.cache_result(
            result, case_sensitive, canonical_distance, version=version,
            use_transpositions=use_transpositions,
        )
        return result

    def look_up_many(
        self,
        queries: list[str] | tuple[str, ...],
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        use_transpositions: bool | None = None,
    ) -> dict[str, LookupResult]:
        """Bulk Look Up as a ``{query: result}`` mapping, one :meth:`look_up` per query."""
        return {
            query: self.look_up(
                query,
                phonetic_level=phonetic_level,
                max_edit_distance=max_edit_distance,
                case_sensitive=case_sensitive,
                use_transpositions=use_transpositions,
            )
            for query in queries
        }
