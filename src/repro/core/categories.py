"""Taxonomy of human-written perturbation strategies.

Paper §II-C observes that humans perturb words in characteristic ways that
differ from machine-generated attacks:

* **emphasis capitalization** — uppercasing an embedded word to add a second
  layer of meaning ("democRATs", "repubLIEcans");
* **leet / visual substitution** — replacing letters with visually similar
  digits or symbols ("suic1de", "dem0cr@ts");
* **hyphenation / separator insertion** — breaking a word with separators to
  dodge keyword filters ("mus-lim", "vac-cine");
* **character repetition** — stretching a word ("porrrrn", "dirrrty");
* **phonetic respelling** — swapping in phonetically similar characters
  ("depresxion");
* **emoticon / symbol insertion** — decorating a word with emoticons;
* plus the classic typo-style edits machines also use: **deletion**,
  **insertion**, **swap** (adjacent transposition), and **substitution**.

:func:`categorize_perturbation` classifies an ``(original, perturbed)`` pair
into these categories.  The classification powers the Social Listening
aggregations, the dataset builders (which generate each category on purpose),
and the baseline-comparison benchmark (which shows machine baselines cover
only a subset of the taxonomy).
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from ..text.charmap import (
    LEET_SUBSTITUTIONS,
    VISUAL_EQUIVALENTS,
    WORD_INTERNAL_SEPARATORS,
    strip_word_internal_separators,
)
from ..text.unicode_fold import fold_text
from .edit_distance import damerau_levenshtein_distance, levenshtein_distance


class PerturbationCategory(str, Enum):
    """Categories of character-level perturbation strategies."""

    EMPHASIS_CAPITALIZATION = "emphasis_capitalization"
    LEET_SUBSTITUTION = "leet_substitution"
    SEPARATOR_INSERTION = "separator_insertion"
    CHARACTER_REPETITION = "character_repetition"
    PHONETIC_RESPELLING = "phonetic_respelling"
    EMOTICON_DECORATION = "emoticon_decoration"
    ACCENT_SUBSTITUTION = "accent_substitution"
    CHARACTER_DELETION = "character_deletion"
    CHARACTER_INSERTION = "character_insertion"
    ADJACENT_SWAP = "adjacent_swap"
    CHARACTER_SUBSTITUTION = "character_substitution"
    MIXED = "mixed"
    IDENTICAL = "identical"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Categories the paper identifies as distinctly *human* strategies.
HUMAN_DISTINCTIVE_CATEGORIES: frozenset[PerturbationCategory] = frozenset(
    {
        PerturbationCategory.EMPHASIS_CAPITALIZATION,
        PerturbationCategory.SEPARATOR_INSERTION,
        PerturbationCategory.CHARACTER_REPETITION,
        PerturbationCategory.PHONETIC_RESPELLING,
        PerturbationCategory.EMOTICON_DECORATION,
    }
)


#: The endings the emoticon rule recognises, and the characters it strips
#: from the end of a decorated token.
_EMOTICON_CORES = (":)", ":(", "<3", ";)")
_EMOTICON_TAIL = ":;()<3-^_ "

#: Two equal characters in a row (``re.DOTALL``: newlines repeat too).
_REPEAT = re.compile(r"(.)\1", re.DOTALL)

#: The ASCII characters that are leet as written or once lowercased.
_ASCII_LEET: frozenset[str] = frozenset(
    char
    for char in map(chr, range(128))
    if char.lower() in VISUAL_EQUIVALENTS or char in VISUAL_EQUIVALENTS
)


def _collapse_repeats(text: str) -> str:
    """Collapse runs of the same character to a single occurrence."""
    collapsed: list[str] = []
    for char in text:
        if not collapsed or collapsed[-1] != char:
            collapsed.append(char)
    return "".join(collapsed)


class TokenFeatures(NamedTuple):
    """The one-sided facts the classifier reads about one string.

    Built by :func:`token_features`.  Look Up keeps one per dictionary
    entry (:attr:`~repro.core.dictionary.DictionaryEntry.features`) and one
    per query, so a pair is classified without scanning either string again.
    A named tuple: immutable, as a record shared by every reader of its
    entry must be, and several times cheaper to build than a frozen
    dataclass, whose ``__init__`` pays an ``object.__setattr__`` per field.
    """

    text: str
    #: ``text.lower()``.
    lower: str
    #: A word-internal separator inside ``text[1:-1]``.
    has_separator: bool
    #: A character of ``text`` that is, or lowercases to, a leet character.
    has_leet: bool
    #: ``text`` changes under :func:`~repro.text.unicode_fold.fold_text`.
    has_accent: bool
    #: ``lower`` without word-internal separators.
    stripped: str
    #: ``lower`` with every run of one character collapsed to one.
    collapsed: str
    #: ``text.isupper()``.
    is_upper: bool
    #: An uppercase character after the first.
    inner_upper: bool
    #: ``lower`` minus a trailing emoticon; ``None`` when it ends in none.
    emoticon_stripped: str | None
    #: ``fold_text(lower)`` when ``has_accent``, else ``None``.
    folded: str | None


def token_features(text: str, lower: str | None = None) -> TokenFeatures:
    """Compute the :class:`TokenFeatures` of ``text``.

    ``lower`` is ``text.lower()`` when the caller holds it already; the
    record keeps that object.  A transform that changes nothing keeps
    ``lower`` itself rather than an equal copy, so a cached record costs
    little beyond its own slots.  The flags read the raw ``text``, not
    ``lower``: ``"İ".lower()`` is two characters.
    """
    if lower is None:
        lower = text.lower()
    if text.isascii():
        # ASCII lowercases character by character, so a changed tail means
        # an uppercase letter in it.
        has_leet = not _ASCII_LEET.isdisjoint(text)
        has_accent = False
        inner_upper = text[1:] != lower[1:]
    else:
        has_leet = any(
            char.lower() in VISUAL_EQUIVALENTS or char in VISUAL_EQUIVALENTS
            for char in text
        )
        has_accent = fold_text(text) != text
        inner_upper = any(map(str.isupper, text[1:]))
    return TokenFeatures(
        text,
        lower,
        len(text) > 2 and not WORD_INTERNAL_SEPARATORS.isdisjoint(text[1:-1]),
        has_leet,
        has_accent,
        (
            strip_word_internal_separators(lower)
            if not WORD_INTERNAL_SEPARATORS.isdisjoint(lower)
            else lower
        ),
        _collapse_repeats(lower) if _REPEAT.search(lower) else lower,
        text.isupper(),
        inner_upper,
        lower.rstrip(_EMOTICON_TAIL) if lower.endswith(_EMOTICON_CORES) else None,
        fold_text(lower) if has_accent else None,
    )


def _is_leet_substitution(original_lower: str, perturbed_lower: str) -> bool:
    """Same length and every differing position is a known leet substitution."""
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


def _is_adjacent_swap(original_lower: str, perturbed_lower: str) -> bool:
    """For a pair at OSA distance 1: whether that one edit is a swap.

    A swap leaves the length alone and mismatches exactly two positions; a
    substitution mismatches one, and an insertion or deletion changes the
    length.
    """
    return len(original_lower) == len(perturbed_lower) and (
        sum(map(str.__ne__, original_lower, perturbed_lower)) == 2
    )


def categorize_perturbation(
    original: str,
    perturbed: str,
    use_transpositions: bool = True,
    *,
    distance: int | None = None,
    features: tuple[TokenFeatures, TokenFeatures] | None = None,
) -> PerturbationCategory:
    """Classify how ``perturbed`` was derived from ``original``.

    The classification is heuristic but deterministic: specifically human
    strategies are tested first (emphasis, separators, leet, repetition,
    accents), then the generic single-edit typo categories, and anything that
    mixes several strategies or needs several edits is labelled
    :attr:`PerturbationCategory.MIXED`.

    ``use_transpositions`` selects the canonical-distance mode the
    single-edit tail is judged under.  With it on (the default, matching the
    historical behavior) distances are optimal-string-alignment: an adjacent
    swap is one edit and classifies as
    :attr:`PerturbationCategory.ADJACENT_SWAP`.  With it off the distance is
    plain Levenshtein — the same pair costs two substitutions, is not a
    single edit, and falls through to ``MIXED`` — so callers that thread
    ``config.use_transpositions`` here label swap perturbations consistently
    with the distance policy Look Up / SMS / Normalization filtered them
    under.

    ``distance`` is for callers that already hold the exact distance between
    ``original.lower()`` and ``perturbed.lower()`` under that same policy
    (OSA with transpositions, Levenshtein without), as Look Up does after
    matching.  It spares the distance tables and never changes the label.

    ``features`` is for callers that already hold the two strings'
    records, ``(token_features(original), token_features(perturbed))``, as
    Look Up does: one per dictionary entry, cached on the entry, and one per
    query.  Like ``distance`` it is precomputed input that spares work; it
    never changes the label.  Without it both records are built here and
    :func:`categorize_features` classifies the pair from them.

    >>> categorize_perturbation("democrats", "democRATs")
    <PerturbationCategory.EMPHASIS_CAPITALIZATION: 'emphasis_capitalization'>
    >>> categorize_perturbation("muslim", "mus-lim")
    <PerturbationCategory.SEPARATOR_INSERTION: 'separator_insertion'>
    >>> categorize_perturbation("suicide", "suic1de")
    <PerturbationCategory.LEET_SUBSTITUTION: 'leet_substitution'>
    >>> categorize_perturbation("the", "teh")
    <PerturbationCategory.ADJACENT_SWAP: 'adjacent_swap'>
    >>> categorize_perturbation("the", "teh", use_transpositions=False)
    <PerturbationCategory.MIXED: 'mixed'>
    """
    if features is None:
        features = (token_features(original), token_features(perturbed))
    return categorize_features(*features, use_transpositions, distance)


def categorize_features(
    original: TokenFeatures,
    perturbed: TokenFeatures,
    use_transpositions: bool,
    distance: int | None,
) -> PerturbationCategory:
    """Classify a pair from the two strings' :class:`TokenFeatures`.

    The one classifier behind :func:`categorize_perturbation`, whose
    docstring gives the rules, their order and the meaning of
    ``use_transpositions`` and ``distance``.
    """
    if original.text == perturbed.text:
        return PerturbationCategory.IDENTICAL

    original_lower = original.lower
    perturbed_lower = perturbed.lower

    # Emphasis means a run of uppercase letters strictly inside the token
    # (all-caps or capitalized-first-letter variants are ordinary styling).
    if (
        perturbed_lower == original_lower
        and perturbed.inner_upper
        and not perturbed.is_upper
        and perturbed.text != original.text.capitalize()
    ):
        return PerturbationCategory.EMPHASIS_CAPITALIZATION

    if (
        perturbed.has_separator
        and not original.has_separator
        and perturbed.stripped == original.stripped
    ):
        return PerturbationCategory.SEPARATOR_INSERTION

    if (
        perturbed.has_leet
        and not original.has_leet
        and _is_leet_substitution(original_lower, perturbed_lower)
    ):
        return PerturbationCategory.LEET_SUBSTITUTION

    if len(perturbed.text) > len(original.text) and perturbed.collapsed == original.collapsed:
        return PerturbationCategory.CHARACTER_REPETITION

    if (
        perturbed.has_accent
        and not original.has_accent
        and perturbed.folded == original_lower
    ):
        return PerturbationCategory.ACCENT_SUBSTITUTION

    if perturbed.emoticon_stripped == original_lower:
        return PerturbationCategory.EMOTICON_DECORATION

    if distance is None:
        distance = levenshtein_distance(original_lower, perturbed_lower)
        if use_transpositions:
            osa_distance = damerau_levenshtein_distance(original_lower, perturbed_lower)
            # osa == 1 with lev == 2 is exactly one adjacent swap; every other
            # osa == 1 pair also has lev == 1 and falls through below.
            if osa_distance == 1 and distance == 2:
                return PerturbationCategory.ADJACENT_SWAP
    elif use_transpositions and distance == 1:
        # ``distance`` is OSA here.  At OSA 1 the one edit is either a swap
        # (Levenshtein 2) or a single-character edit (Levenshtein 1); OSA 0
        # means Levenshtein 0 and OSA >= 2 means Levenshtein >= 2, so the
        # tail below answers as it would on the Levenshtein distance.
        if _is_adjacent_swap(original_lower, perturbed_lower):
            return PerturbationCategory.ADJACENT_SWAP

    if distance == 1:
        if len(perturbed_lower) == len(original_lower) - 1:
            return PerturbationCategory.CHARACTER_DELETION
        if len(perturbed_lower) == len(original_lower) + 1:
            return PerturbationCategory.CHARACTER_INSERTION
        # Same length, one substitution: phonetic respelling when the
        # substituted character is a letter ("depresxion"), plain
        # substitution otherwise.
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


def category_counts(
    pairs: list[tuple[str, str]] | tuple[tuple[str, str], ...],
    use_transpositions: bool = True,
) -> dict[PerturbationCategory, int]:
    """Aggregate :func:`categorize_perturbation` over many pairs."""
    counts: dict[PerturbationCategory, int] = {}
    for original, perturbed in pairs:
        category = categorize_perturbation(
            original, perturbed, use_transpositions=use_transpositions
        )
        counts[category] = counts.get(category, 0) + 1
    return counts
