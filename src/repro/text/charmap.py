"""Visually-similar character maps used by the customized Soundex encoding.

The paper observes that human-written perturbations frequently replace a
letter with a digit or symbol that *looks* the same ("l" -> "1", "a" -> "@",
"S" -> "5") and that the original Soundex algorithm cannot recognize these
manipulations.  CrypText therefore customizes Soundex "to encode
visually-similar characters the same" (paper §III-A).

This module is the single source of truth for those equivalences.  It also
hosts the inventories of leetspeak substitutions (used by the synthetic
corpus builders and by the TextBugger baseline), word-internal separators
(hyphenation perturbations such as "mus-lim"), and emoticons (used as
insertion perturbations in the wild).
"""

from __future__ import annotations

#: Mapping from a visually-similar character to the canonical ASCII letter it
#: imitates.  Keys are matched case-insensitively where that makes sense; the
#: table lists lowercase canonical letters.  This table intentionally covers
#: the substitutions the paper calls out ("l"->"1", "a"->"@", "S"->"5") plus
#: the common leet/homoglyph inventory observed in abusive online text.
VISUAL_EQUIVALENTS: dict[str, str] = {
    # digits that imitate letters
    "0": "o",
    # "1" imitates both "i" and "l"; "i" is by far the more common intent in
    # evasive online text ("suic1de", "vacc1ne", "k1ll"), so that is the
    # canonical fold.  "|" keeps imitating "l".
    "1": "i",
    "3": "e",
    "4": "a",
    "5": "s",
    "6": "g",
    "7": "t",
    "8": "b",
    "9": "g",
    # symbols that imitate letters
    "@": "a",
    "$": "s",
    "!": "i",
    "|": "l",
    "+": "t",
    "(": "c",
    "<": "c",
    "{": "c",
    "[": "c",
    ")": "d",
    "€": "e",
    "£": "l",
    "¢": "c",
    "§": "s",
    # common unicode homoglyphs (cyrillic / greek lookalikes)
    "а": "a",  # CYRILLIC SMALL LETTER A
    "е": "e",  # CYRILLIC SMALL LETTER IE
    "о": "o",  # CYRILLIC SMALL LETTER O
    "р": "p",  # CYRILLIC SMALL LETTER ER
    "с": "c",  # CYRILLIC SMALL LETTER ES
    "х": "x",  # CYRILLIC SMALL LETTER HA
    "у": "y",  # CYRILLIC SMALL LETTER U
    "і": "i",  # CYRILLIC SMALL LETTER BYELORUSSIAN-UKRAINIAN I
    "ѕ": "s",  # CYRILLIC SMALL LETTER DZE
    "ј": "j",  # CYRILLIC SMALL LETTER JE
    "ԁ": "d",  # CYRILLIC SMALL LETTER KOMI DE
    "α": "a",  # GREEK SMALL LETTER ALPHA
    "β": "b",  # GREEK SMALL LETTER BETA
    "ε": "e",  # GREEK SMALL LETTER EPSILON
    "ι": "i",  # GREEK SMALL LETTER IOTA
    "κ": "k",  # GREEK SMALL LETTER KAPPA
    "ν": "v",  # GREEK SMALL LETTER NU
    "ο": "o",  # GREEK SMALL LETTER OMICRON
    "ρ": "p",  # GREEK SMALL LETTER RHO
    "τ": "t",  # GREEK SMALL LETTER TAU
    "υ": "u",  # GREEK SMALL LETTER UPSILON
}

#: The reverse direction: for each ASCII letter, the set of characters a
#: human might substitute for it.  Used by the synthetic perturbation
#: generators and by the machine-generated baselines (TextBugger's
#: "visually similar" operator, DeepWordBug's homoglyph operator).
LEET_SUBSTITUTIONS: dict[str, tuple[str, ...]] = {
    "a": ("@", "4", "а", "α"),
    "b": ("8", "β"),
    "c": ("(", "<", "с", "¢"),
    "d": (")", "ԁ"),
    "e": ("3", "€", "е", "ε"),
    "g": ("6", "9"),
    "i": ("1", "!", "і", "ι"),
    "l": ("1", "|", "£"),
    "o": ("0", "о", "ο"),
    "p": ("р", "ρ"),
    "s": ("5", "$", "ѕ", "§"),
    "t": ("7", "+", "τ"),
    "u": ("υ",),
    "x": ("х",),
    "y": ("у",),
}

#: Characters humans insert *inside* a word to break automatic keyword
#: matching without harming readability ("mus-lim", "vac.cine",
#: "chi_nese").  The customized Soundex strips these before encoding.
WORD_INTERNAL_SEPARATORS: frozenset[str] = frozenset({"-", ".", "_", "*", "’", "'", "·"})

#: A small inventory of emoticons observed as insertion perturbations.
EMOTICONS: tuple[str, ...] = (
    ":)", ":(", ":D", ";)", ":P", ":/", ":o", "xD", "<3", ":-)", ":-(", "^_^",
)


def visual_equivalence_class(char: str) -> str:
    """Return the canonical lowercase letter of ``char``'s visual class.

    Letters map to their own lowercase form.  Characters listed in
    :data:`VISUAL_EQUIVALENTS` map to the letter they imitate.  Any other
    character maps to itself (lowercased when possible), so the function is
    total and idempotent.

    >>> visual_equivalence_class("@")
    'a'
    >>> visual_equivalence_class("L")
    'l'
    >>> visual_equivalence_class("5")
    's'
    """
    if not char:
        return char
    lowered = char.lower()
    if lowered in VISUAL_EQUIVALENTS:
        return VISUAL_EQUIVALENTS[lowered]
    if char in VISUAL_EQUIVALENTS:
        return VISUAL_EQUIVALENTS[char]
    return lowered


#: :func:`visual_equivalence_class` of every ASCII character, as a
#: ``str.translate`` table: ASCII text folds in one C-level pass.
_ASCII_VISUAL_TABLE = str.maketrans(
    {chr(code): visual_equivalence_class(chr(code)) for code in range(128)}
)


def fold_visual_characters(text: str) -> str:
    """Fold every character of ``text`` onto its visual equivalence class.

    The output is lowercase and contains no leet/homoglyph characters, which
    is exactly the preprocessing the customized Soundex applies so that
    "dem0cr@ts" and "democrats" receive the same encoding.  ASCII text goes
    through a 128-entry ``str.translate`` table built from
    :func:`visual_equivalence_class`; other text is folded per character.
    Both give the per-character definition.

    >>> fold_visual_characters("dem0cr@ts")
    'democrats'
    >>> fold_visual_characters("suic1de")
    'suicide'
    """
    if text.isascii():
        return text.translate(_ASCII_VISUAL_TABLE)
    return "".join(visual_equivalence_class(ch) for ch in text)


def is_word_internal_separator(char: str) -> bool:
    """Return ``True`` if ``char`` is a separator humans insert inside words."""
    return char in WORD_INTERNAL_SEPARATORS


def strip_word_internal_separators(token: str) -> str:
    """Remove hyphenation-style separators from ``token``.

    >>> strip_word_internal_separators("mus-lim")
    'muslim'
    >>> strip_word_internal_separators("vac.cine")
    'vaccine'
    """
    return "".join(ch for ch in token if ch not in WORD_INTERNAL_SEPARATORS)
