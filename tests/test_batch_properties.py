"""Property-based tests for the batch engine and the perturb/normalize loop.

Two families of properties, checked with Hypothesis over random corpora:

* **round-trip** — for texts built from a pool of phonetically-distinct
  English words whose observed perturbations all satisfy the SMS property at
  the paper defaults (k=1, d=3), ``perturb`` followed by ``normalize``
  recovers the original text (and hence the original token set);
* **batch ≡ sequential** — ``look_up_batch`` / ``normalize_batch`` are
  order-preserving and identical to N sequential single calls, for any mix
  of known, perturbed, duplicate and unencodable inputs, and the streaming
  variants agree with the batch ones under any chunking.

The word pool is constructed so the properties are *exact*: every pool word
is a lexicon word, pool words have pairwise-distinct Soundex keys at k=1
(so each sound bucket holds exactly one English candidate and normalization
cannot pick a different word), and every generated perturbation shares its
word's key within edit distance 3 (so Look Up always finds it).  The test
itself verifies those invariants before relying on them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrypText
from repro.core.edit_distance import bounded_levenshtein
from repro.core.perturber import Perturber
from repro.core.soundex import CustomSoundex
from repro.text.tokenizer import Tokenizer
from repro.text.wordlist import default_lexicon

#: Lexicon words with pairwise-distinct customized-Soundex keys at k=1.
WORD_POOL = (
    "democrats", "republicans", "vaccine", "muslim", "amazon", "depression",
    "suicide", "movie", "mandate", "agenda", "freedom", "hospital",
    "science", "government", "protest", "election",
)

_ENCODER = CustomSoundex(phonetic_level=1)
_LEXICON = default_lexicon()
_TOKENIZER = Tokenizer(lowercase=False)


def _is_single_word_token(variant: str) -> bool:
    """Whether the tokenizer keeps ``variant`` intact as one word token.

    A variant like ``@mazon`` reads as a platform mention and would neither
    enter the dictionary nor be offered for normalization, so it cannot take
    part in the round-trip properties.
    """
    tokens = _TOKENIZER.word_tokens(variant)
    return len(tokens) == 1 and tokens[0].text == variant

#: Leet substitutions folded by the customized Soundex (charmap subset).
_VISUAL_SUBS = {"a": "@", "e": "3", "i": "1", "o": "0", "s": "$"}


def _raw_variants(word: str) -> list[str]:
    variants = []
    for letter, substitute in _VISUAL_SUBS.items():
        if letter in word:
            variants.append(word.replace(letter, substitute, 1))
    for position in (1, len(word) // 2):
        variants.append(word[:position] + word[position] * 2 + word[position:])
    for vowel in "aeiou":
        index = word.find(vowel, 1)
        if index != -1:
            variants.append(word[:index] + vowel * 3 + word[index + 1 :])
            break
    return list(dict.fromkeys(variants))


def sms_perturbations(word: str) -> list[str]:
    """Variants of ``word`` satisfying the SMS property at k=1, d=3."""
    key = _ENCODER.encode(word)
    return [
        variant
        for variant in _raw_variants(word)
        if variant != word
        and _ENCODER.encode_or_none(variant) == key
        and bounded_levenshtein(word, variant, 3) is not None
        and not _LEXICON.is_word(variant)
        and _is_single_word_token(variant)
    ]


PERTURBATIONS = {word: sms_perturbations(word) for word in WORD_POOL}


def test_word_pool_invariants():
    """The guarantees every property below relies on."""
    keys = [_ENCODER.encode(word) for word in WORD_POOL]
    assert len(set(keys)) == len(WORD_POOL), "pool keys must be pairwise distinct"
    for word in WORD_POOL:
        assert _LEXICON.is_word(word)
        assert len(PERTURBATIONS[word]) >= 2


@pytest.fixture(scope="module")
def system() -> CrypText:
    corpus = []
    for word in WORD_POOL:
        corpus.append(f"people discuss {word} online")
        for variant in PERTURBATIONS[word]:
            corpus.append(f"people discuss {variant} online")
    return CrypText.from_corpus(corpus, seed_lexicon=False)


# --------------------------------------------------------------------------- #
# round-trip: perturb -> normalize
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=8),
    ratio=st.sampled_from([0.15, 0.25, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_perturb_normalize_round_trip(system, words, ratio, seed):
    text = " ".join(words)
    perturber = Perturber(
        system.lookup_engine, config=system.config, rng=random.Random(seed)
    )
    outcome = perturber.perturb(text, ratio=ratio, fill_target=True)
    normalized = system.normalize(outcome.perturbed_text)
    assert normalized.normalized_text == text
    # Token-set recovery, stated explicitly:
    assert normalized.normalized_text.split() == text.split()


@settings(max_examples=40, deadline=None)
@given(
    choices=st.lists(
        st.tuples(st.sampled_from(WORD_POOL), st.integers(min_value=0, max_value=7)),
        min_size=1,
        max_size=8,
    )
)
def test_normalize_recovers_manual_perturbations(system, choices):
    """Any hand-mixed perturbed text normalizes back to its clean form."""
    clean_tokens, noisy_tokens = [], []
    for word, pick in choices:
        variants = PERTURBATIONS[word]
        clean_tokens.append(word)
        # pick == 0 keeps the clean word; otherwise pick a variant.
        if pick == 0:
            noisy_tokens.append(word)
        else:
            noisy_tokens.append(variants[(pick - 1) % len(variants)])
    result = system.normalize(" ".join(noisy_tokens))
    assert result.normalized_text == " ".join(clean_tokens)


# --------------------------------------------------------------------------- #
# batch == N sequential calls, order preserved
# --------------------------------------------------------------------------- #
_QUERY_STRATEGY = st.lists(
    st.one_of(
        st.sampled_from(WORD_POOL),
        st.sampled_from([v for vs in PERTURBATIONS.values() for v in vs]),
        st.sampled_from(["unseenword", "zzzzzz", "...", "###"]),
    ),
    min_size=0,
    max_size=24,
)


@settings(max_examples=30, deadline=None)
@given(queries=_QUERY_STRATEGY, case_sensitive=st.booleans())
def test_look_up_batch_equals_sequential(system, queries, case_sensitive):
    batch = system.batch.look_up_batch(queries, case_sensitive=case_sensitive)
    sequential = [
        system.lookup_engine.look_up(query, case_sensitive=case_sensitive)
        for query in queries
    ]
    assert batch == sequential
    assert [result.query for result in batch] == list(queries)


@settings(max_examples=20, deadline=None)
@given(
    texts=st.lists(
        st.lists(
            st.sampled_from(
                list(WORD_POOL) + [v for vs in PERTURBATIONS.values() for v in vs]
            ),
            min_size=1,
            max_size=6,
        ).map(" ".join),
        min_size=0,
        max_size=10,
    )
)
def test_normalize_batch_equals_sequential(system, texts):
    batch = system.batch.normalize_batch(texts)
    sequential = [system.normalize(text) for text in texts]
    assert batch == sequential
    assert [result.original_text for result in batch] == list(texts)


@settings(max_examples=20, deadline=None)
@given(
    queries=_QUERY_STRATEGY,
    chunk_size=st.integers(min_value=1, max_value=7),
)
def test_stream_equals_batch_under_any_chunking(system, queries, chunk_size):
    streamed = list(system.batch.stream_look_up(iter(queries), chunk_size=chunk_size))
    assert streamed == system.batch.look_up_batch(queries)
