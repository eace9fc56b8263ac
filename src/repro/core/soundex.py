"""SOUNDEX phonetic encodings: the original algorithm and CrypText's custom variant.

The paper builds its human-written token database by encoding every token's
*sound* with a customized version of the SOUNDEX algorithm (§III-A):

* the **original** SOUNDEX fixes the first character of a token and maps the
  remaining consonants to digit classes (``{b, f, p, v} -> "1"`` and so on),
  dropping vowels and collapsing adjacent duplicates;
* CrypText's **customized** SOUNDEX additionally

  1. folds *visually similar* characters onto the letters they imitate
     ("l" -> "1", "a" -> "@", "S" -> "5"), so "dem0cr@ts" and "democrats"
     receive the same encoding,
  2. strips word-internal separators ("mus-lim" -> "muslim") and accents,
  3. replaces the fixed-first-character rule with a *phonetic level*
     parameter ``k`` that keeps the first ``k + 1`` characters verbatim as
     the prefix of the encoding (so "losbian" -> "LO..." and
     "lesbian" -> "LE..." no longer collide at ``k = 1``).

The encodings produced here are the keys of the dictionary hash-maps
``H_k`` (:mod:`repro.core.dictionary`).

Note on the paper's literal key strings: Table I prints ``TH000`` for
``{the, thee}`` and ``DI630`` for ``{dirty, dirrrty}``, which this
implementation reproduces exactly.  The paper's third example key
(``RE4425``) is not derivable from the published rule set; this
implementation produces a different literal string for "republicans" while
preserving the property the table illustrates — all three spellings
("republicans", "repubLIEcans", "republic@@ns") share one key.  See
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import EncodingError
from ..text.charmap import fold_visual_characters, strip_word_internal_separators
from ..text.unicode_fold import fold_text

#: The classic SOUNDEX consonant classes.
SOUNDEX_CODES: dict[str, str] = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    **dict.fromkeys("l", "4"),
    **dict.fromkeys("mn", "5"),
    **dict.fromkeys("r", "6"),
}

#: Letters that are dropped (vowels + h/w/y).  Vowels separate consonant
#: groups (preventing collapse); ``h`` and ``w`` do not, per the classic rules.
_VOWELS = set("aeiouy")
_SILENT = set("hw")

#: Minimum number of digits in an encoding; shorter encodings are zero-padded
#: so that short words like "the" still yield a stable key ("TH000").
MIN_DIGITS = 3


def _digit_sequence(letters: str, collapse_across_vowels: bool = False) -> list[str]:
    """Map ``letters`` to SOUNDEX digits with adjacent-duplicate collapsing.

    ``collapse_across_vowels`` selects the simplified behaviour (duplicates
    collapse even when separated by a vowel); the classic algorithm lets a
    vowel break the run.
    """
    digits: list[str] = []
    previous_code: str | None = None
    for char in letters:
        if char in SOUNDEX_CODES:
            code = SOUNDEX_CODES[char]
            if code != previous_code:
                digits.append(code)
            previous_code = code
        elif char in _VOWELS:
            if not collapse_across_vowels:
                previous_code = None
        elif char in _SILENT:
            # h/w neither emit a digit nor break a duplicate run
            continue
        else:
            # any other character (digit, symbol) is ignored at this stage;
            # the custom encoder folds them onto letters *before* calling us
            previous_code = None
    return digits


def _clean_token(token: str) -> str:
    if not isinstance(token, str):
        raise EncodingError(f"expected str, got {type(token).__name__}")
    stripped = token.strip()
    if not stripped:
        raise EncodingError("cannot encode an empty token")
    return stripped


class OriginalSoundex:
    """The classic SOUNDEX algorithm (Stephenson 1980, paper reference [7]).

    Produces the familiar ``L215``-style codes: the first letter kept
    verbatim, followed by exactly three digits (zero padded / truncated).
    Used as the baseline in the Soundex ablation benchmark.
    """

    code_length: int = 4

    def encode(self, token: str) -> str:
        """Encode ``token``; non-alphabetic characters are ignored.

        >>> OriginalSoundex().encode("lesbian")
        'L215'
        >>> OriginalSoundex().encode("losbian")
        'L215'
        """
        cleaned = _clean_token(token)
        letters = [ch for ch in fold_text(cleaned).lower() if ch.isalpha()]
        if not letters:
            raise EncodingError(f"token {token!r} has no alphabetic characters")
        first = letters[0]
        digits = _digit_sequence("".join(letters))
        # The classic algorithm drops the first letter's own digit if it
        # leads the sequence.
        if digits and first in SOUNDEX_CODES and digits[0] == SOUNDEX_CODES[first]:
            digits = digits[1:]
        padded = (digits + ["0"] * self.code_length)[: self.code_length - 1]
        return first.upper() + "".join(padded)


@dataclass(frozen=True)
class CustomSoundex:
    """CrypText's customized SOUNDEX encoder.

    Parameters
    ----------
    phonetic_level:
        The ``k`` parameter: the first ``k + 1`` characters of the (folded)
        token are kept verbatim as the encoding prefix.
    collapse_repeats:
        Collapse adjacent duplicate digit codes (handles character-repetition
        perturbations such as "porrrrn").
    min_digits:
        Zero-pad the digit part to at least this many digits.
    """

    phonetic_level: int = 1
    collapse_repeats: bool = True
    min_digits: int = MIN_DIGITS

    def __post_init__(self) -> None:
        if self.phonetic_level < 0:
            raise EncodingError(
                f"phonetic_level must be >= 0, got {self.phonetic_level}"
            )
        if self.min_digits < 0:
            raise EncodingError(f"min_digits must be >= 0, got {self.min_digits}")

    # ------------------------------------------------------------------ #
    def canonicalize(self, token: str) -> str:
        """Fold a raw token onto its canonical letter form.

        Lowercases, folds accents, folds visually-similar characters onto the
        letters they imitate, strips word-internal separators, and drops any
        remaining non-alphabetic characters.

        >>> CustomSoundex().canonicalize("Dem0cr@ts")
        'democrats'
        >>> CustomSoundex().canonicalize("mus-lim")
        'muslim'
        """
        cleaned = _clean_token(token)
        folded = fold_visual_characters(fold_text(cleaned))
        folded = strip_word_internal_separators(folded)
        return "".join(ch for ch in folded if ch.isalpha())

    def encode(self, token: str) -> str:
        """Encode ``token`` at this encoder's phonetic level.

        The two halves are public: :meth:`canonicalize` folds the raw token,
        and :meth:`encode_canonical` builds the key from that folded form.
        The canonical form does not depend on the phonetic level, so a caller
        needing every level's key (the dictionary's write path) folds once
        and calls :meth:`encode_canonical` per level.  Raises
        :class:`~repro.errors.EncodingError` for a non-string, blank, or
        letterless token.

        >>> CustomSoundex(phonetic_level=1).encode("the")
        'TH000'
        >>> CustomSoundex(phonetic_level=1).encode("dirty")
        'DI630'
        >>> CustomSoundex(phonetic_level=1).encode("dirrrty") == \
            CustomSoundex(phonetic_level=1).encode("dirty")
        True
        """
        canonical = self.canonicalize(token)
        if not canonical:
            raise EncodingError(
                f"token {token!r} has no phonetic content after canonicalization"
            )
        return self.encode_canonical(canonical)

    def encode_canonical(self, canonical: str) -> str:
        """The key of a non-empty :meth:`canonicalize` result at this level.

        >>> CustomSoundex(phonetic_level=1).encode_canonical("dirty")
        'DI630'
        """
        prefix_length = min(self.phonetic_level + 1, len(canonical))
        prefix = canonical[:prefix_length].upper()
        remainder = canonical[prefix_length:]
        digits = _digit_sequence(remainder, collapse_across_vowels=False)
        if self.collapse_repeats:
            collapsed: list[str] = []
            for digit in digits:
                if not collapsed or collapsed[-1] != digit:
                    collapsed.append(digit)
            digits = collapsed
        if len(digits) < self.min_digits:
            digits = digits + ["0"] * (self.min_digits - len(digits))
        # Short tokens whose canonical form is shorter than k+1 still need a
        # full-width prefix so that keys remain comparable; pad with '0'.
        if len(prefix) < self.phonetic_level + 1:
            prefix = prefix + "0" * (self.phonetic_level + 1 - len(prefix))
        return prefix + "".join(digits)

    def encode_or_none(self, token: str) -> str | None:
        """Like :meth:`encode` but returning ``None`` for unencodable tokens."""
        try:
            return self.encode(token)
        except EncodingError:
            return None

    def same_sound(self, first: str, second: str) -> bool:
        """Whether two tokens share an encoding at this phonetic level."""
        first_code = self.encode_or_none(first)
        second_code = self.encode_or_none(second)
        return first_code is not None and first_code == second_code


@lru_cache(maxsize=8)
def _encoder_for_level(phonetic_level: int) -> CustomSoundex:
    return CustomSoundex(phonetic_level=phonetic_level)


def soundex_key(token: str, phonetic_level: int = 1) -> str:
    """Module-level helper: the customized Soundex key of ``token``.

    >>> soundex_key("democrats") == soundex_key("dem0cr@ts")
    True
    >>> soundex_key("losbian") == soundex_key("lesbian")
    False
    """
    return _encoder_for_level(phonetic_level).encode(token)
