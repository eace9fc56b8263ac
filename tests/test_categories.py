"""Tests for repro.core.categories (perturbation taxonomy)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.categories import (
    HUMAN_DISTINCTIVE_CATEGORIES,
    PerturbationCategory,
    categorize_perturbation,
    category_counts,
)
from repro.core.edit_distance import bounded_levenshtein, bounded_osa

#: Letters in both cases, leet digits and symbols, word-internal separators,
#: accented letters (precomposed and combining), emoticon characters, a
#: zero-width space, and a capital whose lowercase form is two characters.
ALPHABET = "abeilorsABEILORS0134@$!|-_.éëñḋ\u0301:;()<^\u200bİ"

words = st.text(alphabet=ALPHABET, max_size=9)


@st.composite
def near_pairs(draw):
    """A word and a copy of it one adjacent swap or one substitution away."""
    word = draw(st.text(alphabet=ALPHABET, min_size=2, max_size=9))
    index = draw(st.integers(0, len(word) - 2))
    if draw(st.booleans()):
        other = word[:index] + word[index + 1] + word[index] + word[index + 2 :]
    else:
        other = word[:index] + draw(st.sampled_from(ALPHABET)) + word[index + 1 :]
    return (word, other) if draw(st.booleans()) else (other, word)


class TestPaperStrategyExamples:
    @pytest.mark.parametrize(
        ("original", "perturbed", "expected"),
        [
            ("democrats", "democRATs", PerturbationCategory.EMPHASIS_CAPITALIZATION),
            ("muslim", "mus-lim", PerturbationCategory.SEPARATOR_INSERTION),
            ("vaccine", "vac-cine", PerturbationCategory.SEPARATOR_INSERTION),
            ("chinese", "chi-nese", PerturbationCategory.SEPARATOR_INSERTION),
            ("suicide", "suic1de", PerturbationCategory.LEET_SUBSTITUTION),
            ("democrats", "dem0cr@ts", PerturbationCategory.LEET_SUBSTITUTION),
            ("porn", "porrrrn", PerturbationCategory.CHARACTER_REPETITION),
            ("dirty", "dirrrty", PerturbationCategory.CHARACTER_REPETITION),
            ("depression", "depresxion", PerturbationCategory.PHONETIC_RESPELLING),
            ("democrats", "demcrats", PerturbationCategory.CHARACTER_DELETION),
            ("democrats", "demoacrats", PerturbationCategory.CHARACTER_INSERTION),
            ("democrats", "demorcats", PerturbationCategory.ADJACENT_SWAP),
            ("democrats", "ḋemocrats", PerturbationCategory.ACCENT_SUBSTITUTION),
        ],
    )
    def test_category(self, original, perturbed, expected):
        assert categorize_perturbation(original, perturbed) == expected
        # Look Up hands over the kernel's OSA distance; the label holds.
        distance = bounded_osa(original.lower(), perturbed.lower(), 3)
        assert categorize_perturbation(original, perturbed, distance=distance) == expected

    def test_identical_pair(self):
        assert (
            categorize_perturbation("vaccine", "vaccine")
            == PerturbationCategory.IDENTICAL
        )

    def test_heavily_mixed_perturbation(self):
        assert (
            categorize_perturbation("republicans", "republic@@ns")
            == PerturbationCategory.MIXED
        )


class TestEmphasisDetection:
    def test_all_caps_is_not_emphasis(self):
        # Plain shouting is ordinary styling, not embedded-word emphasis.
        result = categorize_perturbation("democrats", "DEMOCRATS")
        assert result != PerturbationCategory.EMPHASIS_CAPITALIZATION

    def test_capitalized_first_letter_is_not_emphasis(self):
        result = categorize_perturbation("democrats", "Democrats")
        assert result != PerturbationCategory.EMPHASIS_CAPITALIZATION

    def test_embedded_uppercase_is_emphasis(self):
        assert (
            categorize_perturbation("republicans", "repubLIcans")
            == PerturbationCategory.EMPHASIS_CAPITALIZATION
        )


class TestHumanDistinctiveSet:
    def test_human_set_contents(self):
        assert PerturbationCategory.EMPHASIS_CAPITALIZATION in HUMAN_DISTINCTIVE_CATEGORIES
        assert PerturbationCategory.SEPARATOR_INSERTION in HUMAN_DISTINCTIVE_CATEGORIES
        assert PerturbationCategory.CHARACTER_DELETION not in HUMAN_DISTINCTIVE_CATEGORIES
        assert PerturbationCategory.ADJACENT_SWAP not in HUMAN_DISTINCTIVE_CATEGORIES

    def test_category_values_are_strings(self):
        for category in PerturbationCategory:
            assert isinstance(category.value, str)
            assert str(category) == category.value


class TestCategoryCounts:
    def test_counts_aggregate(self):
        pairs = [
            ("democrats", "democRATs"),
            ("republicans", "repubLIcans"),
            ("muslim", "mus-lim"),
            ("vaccine", "vaccine"),
        ]
        counts = category_counts(pairs)
        assert counts[PerturbationCategory.EMPHASIS_CAPITALIZATION] == 2
        assert counts[PerturbationCategory.SEPARATOR_INSERTION] == 1
        assert counts[PerturbationCategory.IDENTICAL] == 1

    def test_counts_empty_input(self):
        assert category_counts([]) == {}


class TestGivenDistance:
    """A caller-supplied policy distance only skips work, never relabels."""

    @settings(max_examples=600, deadline=None)
    @given(
        pair=st.one_of(st.tuples(words, words), near_pairs()),
        transpositions=st.booleans(),
        bound=st.integers(0, 3),
    )
    def test_passing_the_distance_never_changes_a_label(self, pair, transpositions, bound):
        original, perturbed = pair
        bounded = bounded_osa if transpositions else bounded_levenshtein
        distance = bounded(original.lower(), perturbed.lower(), bound)
        if distance is None or original == perturbed:
            return
        assert categorize_perturbation(
            original, perturbed, transpositions, distance=distance
        ) == categorize_perturbation(original, perturbed, transpositions)
