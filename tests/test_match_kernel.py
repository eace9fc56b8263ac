"""Property and policy tests for the paper-scale match kernels.

Three kernels can serve a compiled bucket's ``match``: the bit-parallel
Myers/Hyyrö traversal (patterns <= 64 chars, plain Levenshtein), the
SymSpell delete-neighborhood index (d <= 2, either metric), and the banded
DP rows that served every PR before this one.  The contract under test is
the one the golden guards enforce end to end: **kernel choice is a
performance knob, never a behavior knob** — every kernel reports exactly
the per-entry distances of a brute-force bounded scan, and ineligible
selections degrade deterministically instead of erroring.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MATCH_KERNEL_POLICIES
from repro.core.deletes import DELETE_DEPTH, DeleteIndex, delete_variants
from repro.core.dictionary import DictionaryEntry
from repro.core.edit_distance import bounded_levenshtein, bounded_osa
from repro.core.kernels import (
    AUTO_HUGE_BUCKET,
    AUTO_SYMSPELL_MIN_BUCKET,
    KERNEL_NAMES,
    MATCH_KERNELS,
    MYERS_MAX_PATTERN,
    KernelCounters,
    build_peq,
    myers_trie_match,
    resolve_kernel,
)
from repro.core.matcher import CompiledBucket

# The same adversarial alphabet the matcher suite uses: letters, leetspeak
# symbols, separators, and multi-byte Unicode (so the bitmask tables and
# delete variants are exercised beyond ASCII).
token_alphabet = string.ascii_letters + "013457@$!|-._" + "éàüñçœß"
tokens = st.text(alphabet=token_alphabet, min_size=0, max_size=14)
queries = st.text(alphabet=token_alphabet, min_size=0, max_size=14)
bounds = st.integers(min_value=0, max_value=3)

CONCRETE_KERNELS = ("myers", "banded", "symspell")


def make_entry(token: str, canonical: str | None = None) -> DictionaryEntry:
    return DictionaryEntry(
        token=token,
        canonical=canonical if canonical is not None else token.lower(),
        keys={},
        count=1,
        is_word=False,
        sources=(),
    )


def brute_force(
    query: str, entries: list[DictionaryEntry], bound: int, canonical: bool = False
) -> dict[int, int]:
    """Reference semantics: one bounded Levenshtein DP per entry."""
    distances = {}
    for index, entry in enumerate(entries):
        target = entry.canonical if canonical else entry.token_lower
        distance = bounded_levenshtein(query, target, bound)
        if distance is not None:
            distances[index] = distance
    return distances


class TestPolicyRegistry:
    def test_config_policy_tuple_mirrors_the_kernel_module(self):
        # config declares its own copy so it stays importable without the
        # core package; this assertion is the drift guard the comment in
        # repro/config.py promises.
        assert MATCH_KERNEL_POLICIES == MATCH_KERNELS

    def test_counter_names_cover_every_concrete_kernel_plus_linear(self):
        assert set(CONCRETE_KERNELS) < set(KERNEL_NAMES)
        assert "linear" in KERNEL_NAMES


class TestResolveKernel:
    def test_banded_is_always_honored(self):
        for length in (0, 1, 64, 65, 500):
            for distance in (0, 1, 2, 5):
                assert resolve_kernel("banded", length, distance, 10) == "banded"

    def test_myers_requires_short_nonempty_plain_patterns(self):
        assert resolve_kernel("myers", 10, 2, 10) == "myers"
        assert resolve_kernel("myers", MYERS_MAX_PATTERN, 2, 10) == "myers"
        # Degradations: empty pattern, long pattern, transpositions.
        assert resolve_kernel("myers", 0, 2, 10) == "banded"
        assert resolve_kernel("myers", MYERS_MAX_PATTERN + 1, 2, 10) == "banded"
        assert resolve_kernel("myers", 10, 2, 10, transpositions=True) == "banded"

    def test_symspell_requires_small_distances(self):
        assert resolve_kernel("symspell", 10, 2, 10) == "symspell"
        assert resolve_kernel("symspell", 10, 0, 10) == "symspell"
        # d > 2 falls to Myers when it can, banded when it cannot.
        assert resolve_kernel("symspell", 10, 3, 10) == "myers"
        assert resolve_kernel("symspell", 10, 3, 10, transpositions=True) == "banded"
        # Transpositions stay supported (OSA verification), unlike Myers.
        assert resolve_kernel("symspell", 10, 2, 10, transpositions=True) == "symspell"

    def test_auto_prefers_symspell_only_on_big_buckets(self):
        big = AUTO_SYMSPELL_MIN_BUCKET
        assert resolve_kernel("auto", 10, 2, big) == "symspell"
        assert resolve_kernel("auto", 10, 2, big - 1) == "myers"
        assert resolve_kernel("auto", 10, 3, big) == "myers"
        assert resolve_kernel("auto", 10, 2, big, transpositions=True) == "symspell"
        assert resolve_kernel("auto", 10, 3, big, transpositions=True) == "banded"

    def test_auto_falls_back_to_banded_on_huge_buckets(self):
        # Measured at 2M entries: the token space saturates, delete
        # candidate sets balloon, and the banded traversal wins outright
        # (benchmarks/bench_match_kernel.py enforces this stays true).
        huge = AUTO_HUGE_BUCKET + 1
        for distance in (1, 2, 3):
            for transpositions in (False, True):
                assert (
                    resolve_kernel("auto", 10, distance, huge, transpositions)
                    == "banded"
                )
        assert resolve_kernel("auto", 10, 2, AUTO_HUGE_BUCKET) == "symspell"
        # Explicit policies ignore the huge-bucket heuristic: forcing
        # symspell/myers on a huge bucket still honors the request.
        assert resolve_kernel("symspell", 10, 2, huge) == "symspell"
        assert resolve_kernel("myers", 10, 2, huge) == "myers"

    def test_resolution_is_idempotent(self):
        for policy in MATCH_KERNELS:
            for transpositions in (False, True):
                resolved = resolve_kernel(policy, 10, 2, 100, transpositions)
                assert (
                    resolve_kernel(resolved, 10, 2, 100, transpositions) == resolved
                )

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            resolve_kernel("simd", 10, 2, 10)


class TestKernelsEqualBruteForce:
    """Myers == banded == SymSpell == per-entry bounded DP, raw and canonical."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=30), queries, bounds)
    def test_raw_mode_every_kernel(self, bucket_tokens, query, bound):
        entries = [make_entry(token) for token in bucket_tokens]
        compiled = CompiledBucket(entries)
        expected = brute_force(query.lower(), entries, bound)
        for kernel in CONCRETE_KERNELS:
            assert (
                compiled.match(query.lower(), bound, kernel=kernel) == expected
            ), f"kernel {kernel} diverged"

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.tuples(tokens, tokens), min_size=0, max_size=20), queries, bounds
    )
    def test_canonical_mode_every_kernel(self, pairs, query, bound):
        entries = [make_entry(token, canonical=canon) for token, canon in pairs]
        compiled = CompiledBucket(entries)
        expected = brute_force(query, entries, bound, canonical=True)
        for kernel in CONCRETE_KERNELS:
            assert (
                compiled.match(query, bound, canonical=True, kernel=kernel)
                == expected
            ), f"kernel {kernel} diverged (canonical)"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=25), queries, st.integers(0, 2))
    def test_symspell_osa_mode_equals_bounded_osa_scan(
        self, bucket_tokens, query, bound
    ):
        entries = [make_entry(token) for token in bucket_tokens]
        compiled = CompiledBucket(entries)
        expected = {}
        for index, entry in enumerate(entries):
            distance = bounded_osa(query.lower(), entry.token_lower, bound)
            if distance is not None:
                expected[index] = distance
        assert (
            compiled.match(
                query.lower(), bound, transpositions=True, kernel="symspell"
            )
            == expected
        )

    def test_long_patterns_degrade_without_changing_results(self):
        long_query = "x" * (MYERS_MAX_PATTERN + 7)
        entries = [make_entry("x" * (MYERS_MAX_PATTERN + 7)), make_entry("short")]
        compiled = CompiledBucket(entries)
        expected = brute_force(long_query, entries, 2)
        assert compiled.match(long_query, 2, kernel="myers") == expected
        assert compiled.kernel_for("myers", len(long_query), 2) == "banded"


class TestMyersKernelDirect:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=25), queries, bounds)
    def test_trie_traversal_equals_per_string_dp(self, bucket_tokens, query, bound):
        query = query.lower()
        if not 1 <= len(query) <= MYERS_MAX_PATTERN:
            query = (query + "q")[:MYERS_MAX_PATTERN]
        entries = [make_entry(token) for token in bucket_tokens]
        compiled = CompiledBucket(entries)
        got = myers_trie_match(compiled._trie(False, False), query, bound)
        assert got == brute_force(query, entries, bound)

    def test_peq_masks_index_pattern_positions(self):
        peq = build_peq("abca")
        assert peq["a"] == 0b1001
        assert peq["b"] == 0b0010
        assert peq["c"] == 0b0100
        assert peq.get("z", 0) == 0


class TestSymSpellDeleteIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=25), queries, st.integers(0, 2))
    def test_candidates_superset_of_levenshtein_matches(
        self, bucket_tokens, query, bound
    ):
        # The symmetric-delete guarantee: any string within Levenshtein (or
        # OSA) distance d <= 2 shares a deletion variant to depth d, so the
        # candidate set must cover every true match.  Exactness on top of
        # the cover is what the equality suite above pins down.
        query = query.lower()
        lowered = [token.lower() for token in bucket_tokens]
        index = DeleteIndex.build(enumerate(lowered))
        candidates = set(index.candidates(query, bound))
        for position, text in enumerate(lowered):
            if bounded_levenshtein(query, text, bound) is not None:
                assert position in candidates
            if bounded_osa(query, text, bound) is not None:
                assert position in candidates

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tokens, min_size=0, max_size=20))
    def test_rows_round_trip_preserves_candidates(self, bucket_tokens):
        lowered = [token.lower() for token in bucket_tokens]
        index = DeleteIndex.build(enumerate(lowered))
        restored = DeleteIndex.from_rows(
            index.to_rows(), depth=index.depth, index_bound=len(lowered)
        )
        for probe in lowered + ["vaccine", ""]:
            for bound in (0, 1, 2):
                assert index.candidates(probe, bound) == restored.candidates(
                    probe, bound
                )

    def test_from_rows_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            DeleteIndex.from_rows([[123, [0]]], index_bound=1)
        with pytest.raises(ValueError):
            DeleteIndex.from_rows([["abc", [True]]], index_bound=1)
        with pytest.raises(ValueError):
            DeleteIndex.from_rows([["abc", [5]]], index_bound=1)

    def test_delete_variants_depth_zero_is_identity(self):
        assert delete_variants("abc", 0) == {"abc"}
        assert delete_variants("ab", DELETE_DEPTH) == {"ab", "a", "b", ""}


class TestKernelCounters:
    def test_note_and_merge(self):
        counters = KernelCounters()
        counters.note("myers")
        counters.note("myers", 2)
        counters.note("linear")
        other = KernelCounters()
        other.note("symspell", 4)
        other.merge(counters)
        assert other.to_dict() == {
            "myers": 3,
            "banded": 0,
            "symspell": 4,
            "linear": 1,
        }

