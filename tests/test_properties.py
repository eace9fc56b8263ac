"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro.core.edit_distance import (
    bounded_levenshtein,
    damerau_levenshtein_distance,
    levenshtein_distance,
    similarity_ratio,
)
from repro.core.soundex import CustomSoundex
from repro.core.sms import SMSCheck
from repro.datasets.builders import SyntheticPost
from repro.social import SocialPlatform
from repro.storage import TTLCache
from repro.text.charmap import fold_visual_characters, visual_equivalence_class
from repro.text.tokenizer import Tokenizer, detokenize
from repro.text.unicode_fold import fold_accents, fold_text

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

words = st.text(alphabet=string.ascii_letters, min_size=1, max_size=12)
leet_words = st.text(
    alphabet=string.ascii_letters + "013457@$!|-._", min_size=1, max_size=12
)
sentences = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8), min_size=0, max_size=10
).map(" ".join)


# ---------------------------------------------------------------------------
# edit distance metric axioms
# ---------------------------------------------------------------------------


class TestLevenshteinProperties:
    @given(words)
    def test_identity(self, word):
        assert levenshtein_distance(word, word) == 0

    @given(words, words)
    def test_symmetry(self, first, second):
        assert levenshtein_distance(first, second) == levenshtein_distance(second, first)

    @given(words, words)
    def test_positivity_and_upper_bound(self, first, second):
        distance = levenshtein_distance(first, second)
        assert 0 <= distance <= max(len(first), len(second))
        if first != second:
            assert distance >= 1

    @given(words, words, words)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(
            a, b
        ) + levenshtein_distance(b, c)

    @given(words, words, st.integers(min_value=0, max_value=15))
    def test_bounded_agrees_with_full(self, first, second, bound):
        full = levenshtein_distance(first, second)
        bounded = bounded_levenshtein(first, second, bound)
        if full <= bound:
            assert bounded == full
        else:
            assert bounded is None

    @given(words, words)
    def test_damerau_never_exceeds_levenshtein(self, first, second):
        assert damerau_levenshtein_distance(first, second) <= levenshtein_distance(
            first, second
        )

    @given(words, words)
    def test_similarity_ratio_bounds(self, first, second):
        assert 0.0 <= similarity_ratio(first, second) <= 1.0


# ---------------------------------------------------------------------------
# Soundex invariants
# ---------------------------------------------------------------------------


class TestSoundexProperties:
    @given(words)
    def test_deterministic(self, word):
        encoder = CustomSoundex(phonetic_level=1)
        assert encoder.encode(word) == encoder.encode(word)

    @given(words)
    def test_case_insensitive(self, word):
        encoder = CustomSoundex(phonetic_level=1)
        assert encoder.encode(word.upper()) == encoder.encode(word.lower())

    @given(leet_words)
    def test_visual_folding_invariance(self, token):
        # Encoding a token equals encoding its visually folded form.
        encoder = CustomSoundex(phonetic_level=1)
        folded = fold_visual_characters(token)
        code = encoder.encode_or_none(token)
        folded_code = encoder.encode_or_none(folded)
        assert code == folded_code

    @given(words, st.integers(min_value=0, max_value=2))
    def test_prefix_length_matches_level(self, word, level):
        encoder = CustomSoundex(phonetic_level=level)
        code = encoder.encode(word)
        prefix = code[: level + 1]
        assert len(prefix) == level + 1

    @given(words)
    def test_repetition_invariance(self, word):
        # Stretching characters after the fixed k+1 prefix never changes the
        # encoding (the "porrrrn" -> "porn" behaviour).
        encoder = CustomSoundex(phonetic_level=1)
        stretched = word[:2] + "".join(char * 2 for char in word[2:])
        assert encoder.encode(word) == encoder.encode(stretched)

    @given(words)
    def test_canonicalize_idempotent(self, word):
        encoder = CustomSoundex()
        canonical = encoder.canonicalize(word)
        assert encoder.canonicalize(canonical) == canonical


class TestCharmapProperties:
    @given(st.characters())
    def test_visual_class_total_and_idempotent(self, char):
        once = visual_equivalence_class(char)
        assert visual_equivalence_class(once) == once

    @given(st.text(alphabet=string.ascii_letters + string.digits + "@$!|-._ ", max_size=30))
    def test_fold_visual_preserves_length(self, text):
        assert len(fold_visual_characters(text)) == len(text)

    @given(st.text(max_size=30))
    def test_fold_text_never_raises(self, text):
        fold_text(text)

    @given(st.one_of(st.text(max_size=30), st.text(st.characters(max_codepoint=127))))
    def test_folds_equal_their_per_character_definitions(self, text):
        # ASCII text takes a fast path in both folds; other text does not.
        assert fold_text(text) == "".join(fold_accents(char) for char in text)
        assert fold_visual_characters(text) == "".join(
            visual_equivalence_class(char) for char in text
        )


# ---------------------------------------------------------------------------
# SMS property invariants
# ---------------------------------------------------------------------------


class TestSMSProperties:
    @given(words)
    def test_never_a_perturbation_of_itself(self, word):
        assert not SMSCheck().is_perturbation(word, word)

    @given(words, words)
    @settings(max_examples=100)
    def test_verdict_requires_all_three_conditions(self, original, candidate):
        result = SMSCheck().evaluate(original, candidate)
        assert result.is_perturbation == (
            result.same_sound
            and result.different_spelling
            and result.edit_distance is not None
        )


# ---------------------------------------------------------------------------
# tokenizer round trips
# ---------------------------------------------------------------------------


class TestTokenizerProperties:
    @given(sentences)
    def test_spans_match_source(self, text):
        for token in Tokenizer().tokenize(text):
            assert text[token.start:token.end] == token.text

    @given(sentences)
    def test_identity_detokenization(self, text):
        tokens = Tokenizer().tokenize(text)
        replacements = [(token, token.text) for token in tokens]
        assert detokenize(text, replacements) == text

    @given(sentences, st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_single_replacement_splices_correctly(self, text, replacement):
        tokens = Tokenizer().word_tokens(text)
        if not tokens:
            return
        target = tokens[0]
        rebuilt = detokenize(text, [(target, replacement)])
        assert rebuilt[: target.start] == text[: target.start]
        assert rebuilt[target.start : target.start + len(replacement)] == replacement


# ---------------------------------------------------------------------------
# social platform invariants
# ---------------------------------------------------------------------------

post_days = st.sampled_from(["2021-11-01", "2021-11-02", "2021-11-03"])
post_words = st.sampled_from(["vaccine", "VACCINE", "dem0crats", "mask", "the", "garden"])
post_texts = st.lists(post_words, min_size=1, max_size=5).map(" ".join)
# Crawled posts carry their own (unique, unordered) post ids; live posts
# ingested after them are numbered by the platform.
crawled_posts = st.lists(
    st.tuples(st.integers(min_value=1, max_value=40), post_days, post_texts),
    max_size=15,
    unique_by=lambda post: post[0],
)
live_posts = st.lists(st.tuples(post_days, post_texts), max_size=5)
date_bounds = st.one_of(st.none(), post_days)


def _platform(crawled, live) -> SocialPlatform:
    platform = SocialPlatform("twitter")
    platform.ingest_posts(
        SyntheticPost(
            post_id=post_id,
            platform="twitter",
            author="a",
            created_at=day,
            topic="t",
            sentiment="neutral",
            toxic=False,
            clean_text=text,
            text=text,
        )
        for post_id, day, text in crawled
    )
    for day, text in live:
        platform.ingest_raw(text, day)
    return platform


class TestSocialPlatformProperties:
    @given(
        crawled_posts,
        live_posts,
        st.lists(post_words, min_size=1, max_size=3),
        date_bounds,
        date_bounds,
        st.one_of(st.none(), st.integers(min_value=0, max_value=25)),
    )
    def test_search_is_a_filter_over_all_posts(
        self, crawled, live, queries, since, until, limit
    ):
        platform = _platform(crawled, live)
        wanted = {query.lower() for query in queries}
        matches = [
            post
            for post in platform.all_posts()
            if wanted & set(str(post["text"]).lower().split())
            and (since is None or post["created_at"] >= since)
            and (until is None or post["created_at"] <= until)
        ]
        # Most recent first; one day's posts in ingest (``_id``) order.
        matches.sort(key=lambda post: (post["created_at"], -post["_id"]), reverse=True)
        result = platform.search(queries, since=since, until=until, limit=limit)
        assert list(result.posts) == matches[:limit]

    @given(
        crawled_posts,
        live_posts,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=50),
    )
    def test_stream_batches_concatenate_to_all_posts_past_the_cursor(
        self, crawled, live, batch_size, cursor
    ):
        platform = _platform(crawled, live)
        everything = platform.all_posts()
        # Live posts continue after the largest crawled id, so ids stay unique.
        post_ids = [post["post_id"] for post in everything]
        assert post_ids == sorted(set(post_ids))
        batches = list(platform.stream(batch_size=batch_size, after_post_id=cursor))
        assert all(len(batch) == batch_size for batch in batches[:-1])
        assert [post for batch in batches for post in batch] == [
            post for post in everything if post["post_id"] > cursor
        ]


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.integers(min_value=0, max_value=100)),
            max_size=50,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_capacity_never_exceeded_and_values_current(self, operations, capacity):
        cache = TTLCache(max_entries=capacity, default_ttl=1000)
        latest: dict[str, int] = {}
        for key, value in operations:
            cache.set(key, value)
            latest[key] = value
        assert len(cache) <= capacity
        for key in latest:
            value = cache.get(key)
            if value is not None:
                assert value == latest[key]
