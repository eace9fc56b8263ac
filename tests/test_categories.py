"""Tests for repro.core.categories (perturbation taxonomy)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.categories import (
    HUMAN_DISTINCTIVE_CATEGORIES,
    PerturbationCategory,
    categorize_perturbation,
    category_counts,
    token_features,
)
from repro.core.edit_distance import (
    bounded_levenshtein,
    bounded_osa,
    damerau_levenshtein_distance,
    levenshtein_distance,
)
from repro.text.charmap import (
    LEET_SUBSTITUTIONS,
    VISUAL_EQUIVALENTS,
    is_word_internal_separator,
    strip_word_internal_separators,
)
from repro.text.unicode_fold import fold_text

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


# ---------------------------------------------------------------------------
# The per-pair classifier as it was before the feature records, kept as the
# reference the record-based classifier must agree with on every pair.
# ---------------------------------------------------------------------------


def _reference_collapse_repeats(text):
    collapsed = []
    for char in text:
        if not collapsed or collapsed[-1] != char:
            collapsed.append(char)
    return "".join(collapsed)


def _reference_has_emphasis_capitalization(original, perturbed):
    if perturbed.lower() != original.lower():
        return False
    if perturbed == original:
        return False
    if perturbed.isupper() or perturbed == original.capitalize():
        return False
    return any(ch.isupper() for ch in perturbed[1:])


def _reference_has_leet(perturbed):
    return any(ch.lower() in VISUAL_EQUIVALENTS or ch in VISUAL_EQUIVALENTS for ch in perturbed)


def _reference_is_leet_substitution(original_lower, perturbed_lower):
    if len(original_lower) != len(perturbed_lower):
        return False
    saw_substitution = False
    for orig_ch, pert_ch in zip(original_lower, perturbed_lower):
        if orig_ch == pert_ch:
            continue
        allowed = LEET_SUBSTITUTIONS.get(orig_ch, ())
        if pert_ch not in allowed and VISUAL_EQUIVALENTS.get(pert_ch) != orig_ch:
            return False
        saw_substitution = True
    return saw_substitution


def _reference_has_separator(perturbed):
    if len(perturbed) <= 2:
        return False
    return any(is_word_internal_separator(ch) for ch in perturbed[1:-1])


def _reference_has_repetition(original, perturbed):
    if len(perturbed) <= len(original):
        return False
    return _reference_collapse_repeats(perturbed.lower()) == _reference_collapse_repeats(
        original.lower()
    )


def _reference_has_accent(perturbed):
    if perturbed.isascii():
        return False
    return fold_text(perturbed) != perturbed


def _reference_is_adjacent_swap(original_lower, perturbed_lower):
    return len(original_lower) == len(perturbed_lower) and (
        sum(map(str.__ne__, original_lower, perturbed_lower)) == 2
    )


def reference_categorize(original, perturbed, use_transpositions=True, *, distance=None):
    if original == perturbed:
        return PerturbationCategory.IDENTICAL
    original_lower = original.lower()
    perturbed_lower = perturbed.lower()
    if _reference_has_emphasis_capitalization(original, perturbed):
        return PerturbationCategory.EMPHASIS_CAPITALIZATION
    if _reference_has_separator(perturbed) and not _reference_has_separator(original):
        if strip_word_internal_separators(perturbed_lower) == strip_word_internal_separators(
            original_lower
        ):
            return PerturbationCategory.SEPARATOR_INSERTION
    if _reference_has_leet(perturbed) and not _reference_has_leet(original):
        if _reference_is_leet_substitution(original_lower, perturbed_lower):
            return PerturbationCategory.LEET_SUBSTITUTION
    if _reference_has_repetition(original, perturbed):
        return PerturbationCategory.CHARACTER_REPETITION
    if _reference_has_accent(perturbed) and not _reference_has_accent(original):
        if fold_text(perturbed_lower) == original_lower:
            return PerturbationCategory.ACCENT_SUBSTITUTION
    if any(perturbed_lower.endswith(core) for core in (":)", ":(", "<3", ";)")):
        if perturbed_lower.rstrip(":;()<3-^_ ") == original_lower:
            return PerturbationCategory.EMOTICON_DECORATION
    if distance is None:
        distance = levenshtein_distance(original_lower, perturbed_lower)
        if use_transpositions:
            osa_distance = damerau_levenshtein_distance(original_lower, perturbed_lower)
            if osa_distance == 1 and distance == 2:
                return PerturbationCategory.ADJACENT_SWAP
    elif use_transpositions and distance == 1:
        if _reference_is_adjacent_swap(original_lower, perturbed_lower):
            return PerturbationCategory.ADJACENT_SWAP
    if distance == 1:
        if len(perturbed_lower) == len(original_lower) - 1:
            return PerturbationCategory.CHARACTER_DELETION
        if len(perturbed_lower) == len(original_lower) + 1:
            return PerturbationCategory.CHARACTER_INSERTION
        substituted = [
            (orig_ch, pert_ch)
            for orig_ch, pert_ch in zip(original_lower, perturbed_lower)
            if orig_ch != pert_ch
        ]
        if substituted and all(
            orig_ch.isalpha() and pert_ch.isalpha() for orig_ch, pert_ch in substituted
        ):
            return PerturbationCategory.PHONETIC_RESPELLING
        return PerturbationCategory.CHARACTER_SUBSTITUTION
    return PerturbationCategory.MIXED


#: Pieces of adversarial tokens: letters in both cases, leet characters
#: (ASCII, Cyrillic and Greek homoglyphs and their capitals), separators,
#: emoticons, precomposed and combining accents, the Kelvin sign (which
#: folds to "k"), ``İ`` and its lowercase (two characters), ``ß``, a
#: titlecase digraph, an uppercase letter with no lowercase and a
#: zero-width space.
PIECES = (
    *"aeiloscdtAEILOSCDT",
    *"0134@$!|+(<)",
    *"аеоАЕОαΑτΤ",
    *"-._*'·’",
    ":)", ":(", "<3", ";)", ":-)", "^_^", " ",
    *"éÉëñḋā", "\u0301", "\u0307", "\u212a",
    "İ", "i\u0307", "ß", "ǅ", "ϒ", "\u200b",
)

adversarial = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=8).map("".join),
    st.text(alphabet="aeilnoscdtAEILOSCDT", max_size=9),
)
ACCENTED = {"a": "ā", "e": "é", "d": "ḋ", "n": "ñ", "E": "É"}


@st.composite
def adversarial_pairs(draw):
    """A token and a perturbation of it, or two unrelated tokens.

    Perturbations are the strategies the classifier tells apart, alone or
    stacked: case changes, leet swaps, separators, repeats, accents,
    emoticons, single edits and adjacent swaps.
    """
    original = draw(adversarial)
    if draw(st.integers(0, 4)) == 0:
        return original, draw(adversarial)
    perturbed = original
    for _ in range(draw(st.integers(1, 2))):
        move = draw(st.integers(0, 7))
        index = draw(st.integers(0, max(len(perturbed) - 1, 0)))
        if move == 0:
            perturbed = perturbed[:index] + perturbed[index:].upper()[:2] + perturbed[index + 2 :]
        elif move == 1 and perturbed:
            char = perturbed[index].lower()
            perturbed = (
                perturbed[:index]
                + draw(st.sampled_from(LEET_SUBSTITUTIONS.get(char, ("0",))))
                + perturbed[index + 1 :]
            )
        elif move == 2:
            perturbed = perturbed[:index] + draw(st.sampled_from("-._*")) + perturbed[index:]
        elif move == 3 and perturbed:
            perturbed = perturbed[:index] + perturbed[index] * 3 + perturbed[index + 1 :]
        elif move == 4 and perturbed:
            accented = ACCENTED.get(perturbed[index], perturbed[index] + "\u0301")
            perturbed = perturbed[:index] + accented + perturbed[index + 1 :]
        elif move == 5:
            perturbed += draw(st.sampled_from((":)", ":-(", "<3", ";)", " :)")))
        elif move == 6 and len(perturbed) > index + 1:
            perturbed = (
                perturbed[:index] + perturbed[index + 1] + perturbed[index] + perturbed[index + 2 :]
            )
        else:
            perturbed = perturbed[:index] + draw(st.sampled_from(PIECES)) + perturbed[index + 1 :]
    return (original, perturbed) if draw(st.booleans()) else (perturbed, original)


class TestFeatureRecordsKeepEveryLabel:
    """The record-based classifier labels every pair as the reference does."""

    @settings(max_examples=1500, deadline=None)
    @given(pair=adversarial_pairs(), transpositions=st.booleans())
    def test_labels_equal_the_reference(self, pair, transpositions):
        original, perturbed = pair
        expected = reference_categorize(original, perturbed, transpositions)
        assert categorize_perturbation(original, perturbed, transpositions) == expected
        # Look Up's call: the exact distance between the lowered spellings
        # under the same policy, and records built from lowercases it holds.
        bounded = bounded_osa if transpositions else bounded_levenshtein
        distance = bounded(original.lower(), perturbed.lower(), 3)
        if distance is None:
            return
        assert reference_categorize(
            original, perturbed, transpositions, distance=distance
        ) == expected
        features = (
            token_features(original, original.lower()),
            token_features(perturbed, perturbed.lower()),
        )
        assert categorize_perturbation(
            original, perturbed, transpositions, distance=distance, features=features
        ) == expected

    @pytest.mark.parametrize(
        ("original", "perturbed"),
        [
            ("democrats", "democRATs"),
            ("democrats", "Democrats"),
            ("democrats", "DEMOCRATS"),
            ("istanbul", "İstanbul"),
            ("strasse", "straße"),
            ("cafe", "café"),
            ("cafe", "cafe\u0301"),
            ("love", "love <3"),
            ("love", "love:-)"),
            ("muslim", "mus-lim"),
            ("-muslim", "-muslim-"),
            ("porn", "porrrrn"),
            ("vaccine", "vaccinne"),
            ("the", "teh"),
            ("suicide", "suic1de"),
            ("democrats", "dеmocrats"),  # Cyrillic ie
            ("DEMOCRATS", "DΕMOCRATS"),  # Greek capital epsilon
            ("apple", "4pple"),
            # Raw lengths differ where the lowercases do not.
            ("İstanbul", "i\u0307stanbul"),
            # A titlecase letter is not uppercase.
            ("aǆ", "aǅ"),
            # The Kelvin sign folds to "k": the original has an accent.
            ("\u212aate", "ḱate"),
            # "ϒ" is uppercase with no lowercase, so capitalizing keeps it.
            ("aϒb", "Aϒb"),
        ],
    )
    @pytest.mark.parametrize("transpositions", [True, False])
    def test_hand_picked_pairs(self, original, perturbed, transpositions):
        for first, second in ((original, perturbed), (perturbed, original)):
            assert categorize_perturbation(
                first, second, transpositions
            ) == reference_categorize(first, second, transpositions)

    @settings(max_examples=500, deadline=None)
    @given(text=st.one_of(adversarial, st.text(max_size=12)))
    def test_record_fields_match_their_definitions(self, text):
        record = token_features(text)
        lower = text.lower()
        assert record.lower == lower
        assert record.has_separator == _reference_has_separator(text)
        assert record.has_leet == _reference_has_leet(text)
        assert record.has_accent == _reference_has_accent(text)
        assert record.stripped == strip_word_internal_separators(lower)
        assert record.collapsed == _reference_collapse_repeats(lower)
        assert record.is_upper == text.isupper()
        assert record.inner_upper == any(ch.isupper() for ch in text[1:])
        assert record.folded == (fold_text(lower) if record.has_accent else None)

    def test_unchanged_transforms_share_the_lowercase(self):
        record = token_features("Democrats", "democrats")
        assert record.stripped is record.lower
        assert record.collapsed is record.lower
        assert record.emoticon_stripped is None and record.folded is None
        record = token_features("vac-cine:)")
        assert (record.stripped, record.collapsed) == ("vaccine:)", "vac-cine:)")
        assert record.emoticon_stripped == "vac-cine"
