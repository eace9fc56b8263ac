"""Accent and diacritic folding, and the surrogate check.

The VIPER baseline (Eger et al., NAACL 2019) perturbs text by replacing
characters with accented variants ("democrats" -> "ḋemocrāts").  Human
writers occasionally do the same.  Both the customized Soundex encoder and
the Normalization function therefore need a cheap, dependency-free way to
strip combining marks and map accented code points back to their ASCII base
letters.

:func:`has_surrogate` finds text that UTF-8 cannot encode, which the write
path and the HTTP front refuse.
"""

from __future__ import annotations

import re
import unicodedata

#: A UTF-16 surrogate code point.  A ``str`` can hold one (JSON's
#: ``"\ud800"`` escape decodes to it); UTF-8 cannot encode it.
_SURROGATE = re.compile("[\ud800-\udfff]")


def has_surrogate(text: str) -> bool:
    """Whether ``text`` holds a surrogate code point, which UTF-8 cannot encode.

    A surrogate pair escaped in JSON decodes to one character above U+FFFF,
    so any surrogate left in a decoded string is unpaired.

    >>> has_surrogate("vacc\\ud800ne")
    True
    >>> has_surrogate("vacc\\U0001f600ne")
    False
    """
    return not text.isascii() and _SURROGATE.search(text) is not None


def fold_accents(char: str) -> str:
    """Return ``char`` with diacritics removed, or ``char`` unchanged.

    The folding is performed via NFKD decomposition: combining marks are
    dropped and the base character kept.  Characters that do not decompose
    (including the homoglyphs handled by :mod:`repro.text.charmap`) are
    returned unchanged.

    >>> fold_accents("ā")
    'a'
    >>> fold_accents("ḋ")
    'd'
    >>> fold_accents("x")
    'x'
    """
    if not char:
        return char
    decomposed = unicodedata.normalize("NFKD", char)
    stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
    return stripped if stripped else char


def fold_text(text: str) -> str:
    """Apply :func:`fold_accents` to every character of ``text``.

    NFKD is the identity on ASCII, so ASCII text is returned unchanged (the
    same object) without a per-character pass; every Soundex canonicalize
    and encode folds its token here.

    >>> fold_text("ḋemocrāts")
    'democrats'
    >>> fold_text("vacc1ne")
    'vacc1ne'
    """
    if text.isascii():
        return text
    return "".join(fold_accents(ch) for ch in text)
