"""Tests for repro.core.matcher (trie-compiled Look Up matching).

The single invariant that matters: for any bucket and any query,
``CompiledBucket.match`` returns exactly the ``(entry, distance)`` set the
per-entry ``bounded_levenshtein`` scan produces.  Everything else (Look Up
merge/rank semantics, cache behavior) is guaranteed by construction once
that holds, and double-checked end to end by the golden-corpus tests.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrypText, CrypTextConfig
from repro.core.dictionary import DictionaryEntry, PerturbationDictionary
from repro.core.edit_distance import bounded_levenshtein, damerau_levenshtein_distance
from repro.core.lookup import LookupEngine
from repro.core.matcher import CompiledBucket, TrieFamily, TrieFamilyRegistry

# Raw spellings mix plain letters, leetspeak symbols, separators, and the
# Unicode folds the canonicalizer handles (accents, homoglyph-ish letters).
token_alphabet = string.ascii_letters + "013457@$!|-._" + "éàüñçœß"
tokens = st.text(alphabet=token_alphabet, min_size=0, max_size=14)
queries = st.text(alphabet=token_alphabet, min_size=0, max_size=14)
bounds = st.integers(min_value=0, max_value=4)


def make_entry(
    token: str, canonical: str | None = None, is_word: bool = False
) -> DictionaryEntry:
    return DictionaryEntry(
        token=token,
        canonical=canonical if canonical is not None else token.lower(),
        keys={},
        count=1,
        is_word=is_word,
        sources=(),
    )


def linear_scan(
    query: str, entries: list[DictionaryEntry], bound: int, canonical: bool = False
) -> dict[int, int]:
    """The reference semantics: one bounded DP per entry."""
    distances = {}
    for index, entry in enumerate(entries):
        target = entry.canonical if canonical else entry.token_lower
        distance = bounded_levenshtein(query, target, bound)
        if distance is not None:
            distances[index] = distance
    return distances


def osa_scan(
    query: str, entries: list[DictionaryEntry], bound: int, canonical: bool = False
) -> dict[int, int]:
    """Brute-force OSA reference: one full (unbounded) table per entry.

    Deliberately uses the unbounded ``damerau_levenshtein_distance`` rather
    than ``bounded_osa`` so the compiled Damerau traversal is checked against
    an implementation that shares none of its banding/clipping machinery.
    """
    distances = {}
    for index, entry in enumerate(entries):
        target = entry.canonical if canonical else entry.token_lower
        distance = damerau_levenshtein_distance(query, target)
        if distance <= bound:
            distances[index] = distance
    return distances


class TestMatchEqualsLinearScan:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=30), queries, bounds)
    def test_raw_mode_identical_to_per_entry_scan(self, bucket_tokens, query, bound):
        entries = [make_entry(token) for token in bucket_tokens]
        compiled = CompiledBucket(entries)
        assert compiled.match(query.lower(), bound) == linear_scan(
            query.lower(), entries, bound
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(tokens, tokens), min_size=0, max_size=20), queries, bounds
    )
    def test_canonical_mode_identical_to_per_entry_scan(self, pairs, query, bound):
        # Canonical forms are independent strings attached to the entries;
        # the matcher must compare whichever representation it is asked to.
        entries = [make_entry(token, canonical=canon) for token, canon in pairs]
        compiled = CompiledBucket(entries)
        assert compiled.match(query, bound, canonical=True) == linear_scan(
            query, entries, bound, canonical=True
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tokens, min_size=1, max_size=20), bounds)
    def test_every_entry_matches_itself(self, bucket_tokens, bound):
        entries = [make_entry(token) for token in bucket_tokens]
        compiled = CompiledBucket(entries)
        for index, entry in enumerate(entries):
            assert compiled.match(entry.token_lower, bound)[index] == 0


class TestDamerauMatchEqualsBruteForceOSA:
    """The transposition mode must equal a per-entry brute-force OSA filter."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=30), queries, bounds)
    def test_raw_mode_identical_to_osa_scan(self, bucket_tokens, query, bound):
        entries = [make_entry(token) for token in bucket_tokens]
        compiled = CompiledBucket(entries)
        assert compiled.match(query.lower(), bound, transpositions=True) == osa_scan(
            query.lower(), entries, bound
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(tokens, tokens), min_size=0, max_size=20), queries, bounds
    )
    def test_canonical_mode_identical_to_osa_scan(self, pairs, query, bound):
        entries = [make_entry(token, canonical=canon) for token, canon in pairs]
        compiled = CompiledBucket(entries)
        assert compiled.match(
            query, bound, canonical=True, transpositions=True
        ) == osa_scan(query, entries, bound, canonical=True)

    def test_transposition_scored_as_one_edit(self):
        entries = [make_entry(t) for t in ["the", "then", "than", "hat"]]
        compiled = CompiledBucket(entries)
        # "teh" is one swap from "the": invisible to the plain automaton at
        # d=1, a single edit to the Damerau one.
        assert compiled.match("teh", 1) == {}
        assert compiled.match("teh", 1, transpositions=True) == {0: 1}

    def test_transposition_pair_spanning_shared_prefix(self):
        # The swap reaches across the trie edge between a shared prefix and
        # its children — the parent-row lookback must come from the right
        # ancestor for every entry under the prefix.
        entries = [make_entry(t) for t in ["abcd", "abdc", "acbd", "bacd"]]
        compiled = CompiledBucket(entries)
        assert compiled.match("abcd", 1, transpositions=True) == {
            0: 0, 1: 1, 2: 1, 3: 1
        }

    def test_match_tokens_passes_transpositions_through(self):
        entries = [make_entry(t) for t in ["mandate", "madnate"]]
        compiled = CompiledBucket(entries)
        assert compiled.match_tokens("mandate", 1, transpositions=True) == (
            ("mandate", 0), ("madnate", 1)
        )
        assert compiled.match_tokens("mandate", 1) == (("mandate", 0),)


class TestKernelSweep:
    """Every selectable kernel must reproduce the linear-scan references.

    ``tests/test_match_kernel.py`` checks the kernels against the *bounded*
    DP primitives they are built from; here the references are this file's
    independent scans (unbounded OSA for transpositions), so a shared
    clipping bug in the bounded machinery cannot hide.
    """

    kernels = pytest.mark.parametrize("kernel", ["auto", "myers", "banded", "symspell"])

    @kernels
    @settings(max_examples=120, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=25), queries, bounds)
    def test_levenshtein_mode(self, kernel, bucket_tokens, query, bound):
        entries = [make_entry(token) for token in bucket_tokens]
        compiled = CompiledBucket(entries)
        assert compiled.match(query.lower(), bound, kernel=kernel) == linear_scan(
            query.lower(), entries, bound
        )

    @kernels
    @settings(max_examples=120, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=25), queries, bounds)
    def test_osa_mode(self, kernel, bucket_tokens, query, bound):
        # Myers degrades to banded under transpositions; the point is that
        # the *request* never changes the result, only the code path.
        entries = [make_entry(token) for token in bucket_tokens]
        compiled = CompiledBucket(entries)
        assert compiled.match(
            query.lower(), bound, transpositions=True, kernel=kernel
        ) == osa_scan(query.lower(), entries, bound)


class TestEnglishOnlyMode:
    """``english_only`` must equal matching everything then filtering."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(tokens, st.booleans()), min_size=0, max_size=30),
        queries,
        bounds,
        st.booleans(),
    )
    def test_equals_filtered_full_match(self, flagged, query, bound, transpositions):
        entries = [make_entry(token, is_word=is_word) for token, is_word in flagged]
        compiled = CompiledBucket(entries)
        full = compiled.match(query.lower(), bound, transpositions=transpositions)
        expected = {
            index: distance
            for index, distance in full.items()
            if entries[index].is_word
        }
        assert (
            compiled.match(
                query.lower(), bound, transpositions=transpositions, english_only=True
            )
            == expected
        )

    def test_word_sparse_bucket(self):
        # The normalizer's shape: a few lexicon words among many variants.
        entries = [make_entry("vaccine", is_word=True)] + [
            make_entry(f"vacc{digit}ne") for digit in range(10)
        ]
        compiled = CompiledBucket(entries)
        assert compiled.match("vaccine", 1, english_only=True) == {0: 0}
        assert len(compiled.match("vaccine", 1)) == 11

    def test_no_english_entries(self):
        compiled = CompiledBucket([make_entry("vacc1ne")])
        assert compiled.match("vaccine", 3, english_only=True) == {}


class TestEdgeCases:
    def test_empty_bucket(self):
        assert CompiledBucket(()).match("anything", 3) == {}

    def test_empty_query_matches_short_tokens_only(self):
        entries = [make_entry(t) for t in ["", "a", "ab", "abc", "abcd"]]
        compiled = CompiledBucket(entries)
        assert compiled.match("", 2) == {0: 0, 1: 1, 2: 2}

    def test_empty_and_one_char_tokens(self):
        entries = [make_entry(t) for t in ["", "a", "b"]]
        compiled = CompiledBucket(entries)
        assert compiled.match("a", 1) == {0: 1, 1: 0, 2: 1}
        assert compiled.match("a", 0) == {1: 0}

    def test_duplicate_lowered_spellings_share_a_terminal(self):
        entries = [make_entry(t) for t in ["Vaccine", "vaccine", "VACCINE"]]
        compiled = CompiledBucket(entries)
        assert compiled.match("vaccine", 3) == {0: 0, 1: 0, 2: 0}

    def test_negative_bound_matches_nothing(self):
        compiled = CompiledBucket([make_entry("word")])
        assert compiled.match("word", -1) == {}

    def test_length_partition_prunes_out_of_band_entries(self):
        entries = [make_entry(t) for t in ["ab", "abcdefghij"]]
        compiled = CompiledBucket(entries)
        assert compiled.match("abcde", 2) == {}
        assert compiled.match("abcd", 2) == {0: 2}

    def test_sequence_protocol_is_a_drop_in_bucket(self):
        entries = [make_entry("one"), make_entry("two")]
        compiled = CompiledBucket(entries)
        assert len(compiled) == 2
        assert list(compiled) == entries
        assert compiled[1] is entries[1]

    def test_frozen_nodes_keep_no_children_dict(self):
        compiled = CompiledBucket([make_entry(t) for t in ["cab", "cat", "cart", ""]])
        compiled.match("cat", 1)
        stack = [compiled._trie(canonical=False)]
        nodes = 0
        while stack:
            node = stack.pop()
            nodes += 1
            assert not hasattr(node, "children")
            stack.extend(child for _, child in node.items)
        assert nodes == 7  # the root, "c", "ca", "cab", "cat", "car", "cart"

    def test_match_tokens_preserves_bucket_order(self):
        entries = [make_entry(t) for t in ["cab", "cat", "car", "cart"]]
        compiled = CompiledBucket(entries)
        assert compiled.match_tokens("cat", 1) == (
            ("cab", 1), ("cat", 0), ("car", 1), ("cart", 1)
        )


class TestCompiledLookupEquality:
    """Flag on and flag off must produce identical LookupResults."""

    CORPUS = [
        "the dirrty republicans",
        "thee dirty repubLIEcans",
        "the dirty republic@@ns",
        "the demokrats hate the vacc1ne",
        "the dem0cr@ts and the repubLIEcans argue online",
        "stop the vac-cine mandate now",
    ]
    QUERIES = ["republicans", "democrats", "vaccine", "dirty", "the", "unseenword"]

    @pytest.mark.parametrize("case_sensitive", [True, False])
    @pytest.mark.parametrize("canonical_distance", [True, False])
    def test_identical_results_both_paths(self, case_sensitive, canonical_distance):
        compiled = CrypText.from_corpus(
            self.CORPUS, config=CrypTextConfig(compiled_buckets=True, cache_enabled=False)
        )
        linear = CrypText.from_corpus(
            self.CORPUS, config=CrypTextConfig(compiled_buckets=False, cache_enabled=False)
        )
        for query in self.QUERIES:
            for distance in (0, 1, 3):
                fast = compiled.lookup_engine.look_up(
                    query,
                    max_edit_distance=distance,
                    case_sensitive=case_sensitive,
                    canonical_distance=canonical_distance,
                )
                slow = linear.lookup_engine.look_up(
                    query,
                    max_edit_distance=distance,
                    case_sensitive=case_sensitive,
                    canonical_distance=canonical_distance,
                )
                assert fast == slow


class TestInvalidation:
    def test_add_token_is_visible_to_next_look_up(self):
        config = CrypTextConfig(compiled_buckets=True, cache_enabled=False)
        dictionary = PerturbationDictionary.from_corpus(
            ["the dirty republicans"], config=config
        )
        engine = LookupEngine(dictionary, config=config)
        before = engine.look_up("republicans")
        assert "republ1cans" not in before.tokens
        # A write that lands in an already-compiled bucket must drop the
        # cached trie so the very next query sees the new spelling.
        assert dictionary.add_token("republ1cans", source="stream")
        after = engine.look_up("republicans")
        assert "republ1cans" in after.tokens

    def test_add_token_is_visible_through_batch_engine(self):
        config = CrypTextConfig(compiled_buckets=True)
        system = CrypText.from_corpus(
            ["the dirty republicans"], config=config, seed_lexicon=False,
            train_scorer=False,
        )
        engine = system.batch
        (before,) = engine.look_up_batch(["republicans"])
        assert "repubLIEcans" not in before.tokens
        system.learn_from(["the repubLIEcans are at it again"])
        (after,) = engine.look_up_batch(["republicans"])
        assert "repubLIEcans" in after.tokens

    def test_compiled_cache_skips_store_when_write_lands_mid_compile(self):
        dictionary = PerturbationDictionary.from_corpus(["the dirty republicans"])
        key = dictionary.encoder(1).encode("republicans")
        first = dictionary.compiled_bucket(key)
        # A write anywhere in the dictionary moves the version; the pair
        # it touched must recompile, and the recompile must be cached again.
        dictionary.add_token("republ1cans")
        second = dictionary.compiled_bucket(key)
        assert second is not first
        assert dictionary.compiled_bucket(key) is second

    def test_disabled_flag_uses_linear_path(self):
        config = CrypTextConfig(compiled_buckets=False, cache_enabled=False)
        dictionary = PerturbationDictionary.from_corpus(
            ["the dirty republicans"], config=config
        )
        engine = LookupEngine(dictionary, config=config)
        assert "republicans" in engine.look_up("republicans").tokens
        assert dictionary._compiled == {}


class TestTrieFamilies:
    """Level-shared trie families and their snapshot serialization."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=25), queries, bounds)
    def test_payload_round_trip_matches_identically(self, bucket_tokens, query, bound):
        entries = [
            make_entry(token, is_word=index % 2 == 0)
            for index, token in enumerate(bucket_tokens)
        ]
        original = CompiledBucket(entries)
        # Materialize every variant, then rebuild the family from its payload.
        for canonical in (False, True):
            for english_only in (False, True):
                original.match(
                    query.lower(), bound, canonical=canonical, english_only=english_only
                )
        rebuilt = TrieFamily.from_payload(original.family.to_payload())
        hydrated = CompiledBucket(entries, family=rebuilt)
        assert rebuilt.tries_built == 0  # nothing recompiled
        for canonical in (False, True):
            for english_only in (False, True):
                for transpositions in (False, True):
                    assert hydrated.match(
                        query.lower(),
                        bound,
                        canonical=canonical,
                        english_only=english_only,
                        transpositions=transpositions,
                    ) == original.match(
                        query.lower(),
                        bound,
                        canonical=canonical,
                        english_only=english_only,
                        transpositions=transpositions,
                    )

    def test_registry_shares_one_family_across_views(self):
        registry = TrieFamilyRegistry()
        entries = [make_entry(token) for token in ("cat", "cart", "card")]
        first = CompiledBucket(entries, family=registry.family_for(entries))
        second = CompiledBucket(entries, family=registry.family_for(entries))
        assert first.family is second.family
        first.match("cat", 1)
        assert second.family.tries_built == 1  # compiled once, shared
        stats = registry.stats()
        assert stats["views"] == 2
        assert stats["families_created"] == 1
        assert stats["families_shared"] == 1

    def test_registry_is_weak(self):
        import gc

        registry = TrieFamilyRegistry()
        entries = [make_entry("cat")]
        bucket = CompiledBucket(entries, family=registry.family_for(entries))
        assert registry.stats()["live_families"] == 1
        del bucket
        gc.collect()
        assert registry.stats()["live_families"] == 0

    def test_dictionary_levels_share_families(self):
        dictionary = PerturbationDictionary.from_corpus(
            ["the vaccine mandate divides the neighborhood"]
        )
        for level in dictionary.phonetic_levels:
            for entry in dictionary.iter_entries():
                key = entry.key_at(level)
                if key is not None:
                    dictionary.compiled_bucket(key, phonetic_level=level)
        stats = dictionary.trie_families.stats()
        # Three levels viewed every bucket; singleton buckets never split,
        # so strictly fewer families exist than bucket views.
        assert stats["families_created"] < stats["views"]
        assert stats["families_shared"] > 0

    def test_adopt_prefers_existing_live_family(self):
        registry = TrieFamilyRegistry()
        entries = [make_entry("cat")]
        live = registry.family_for(entries)
        incoming = TrieFamily(("cat",))
        assert registry.adopt(incoming) is live
        other = TrieFamily(("dog",))
        assert registry.adopt(other) is other
