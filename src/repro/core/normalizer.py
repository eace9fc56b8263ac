"""The Normalization function: detecting and de-perturbing texts.

Paper §III-C: for each token ``x_i`` of an input ``x``, CrypText retrieves
the English words that share ``x_i``'s customized Soundex encoding at
phonetic level ``k`` within edit-distance bound ``d``.  When several
candidate words match, they are ranked by a *coherency score* computed with
a masked language model over the local context of ``x_i``; the most probable
candidate replaces the perturbed token in the output, and all candidates are
available through the API.

This module implements that flow on top of :class:`PerturbationDictionary`
(candidate retrieval), :class:`SMSCheck` (the ``(k, d)`` filter) and
:class:`~repro.lm.CoherencyScorer` (the masked-LM substitute).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..config import CrypTextConfig, DEFAULT_CONFIG
from ..lm import CoherencyScorer
from ..text.tokenizer import Token, Tokenizer, detokenize
from ..text.wordlist import EnglishLexicon
from .categories import PerturbationCategory, categorize_perturbation
from .dictionary import DictionaryEntry, PerturbationDictionary
from .edit_distance import bounded_levenshtein, bounded_osa
from .soundex import CustomSoundex


@dataclass(frozen=True)
class CandidateWord:
    """One candidate English word for a perturbed token."""

    word: str
    edit_distance: int
    coherency: float

    def to_dict(self) -> dict[str, object]:
        """Serialize for the API layer."""
        return {
            "word": self.word,
            "edit_distance": self.edit_distance,
            "coherency": self.coherency,
        }


@dataclass(frozen=True)
class TokenCorrection:
    """The normalization decision for one input token."""

    original: str
    corrected: str
    start: int
    end: int
    was_perturbed: bool
    category: PerturbationCategory
    candidates: tuple[CandidateWord, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict[str, object]:
        """Serialize for the API layer / GUI popup (Figure 2)."""
        return {
            "original": self.original,
            "corrected": self.corrected,
            "start": self.start,
            "end": self.end,
            "was_perturbed": self.was_perturbed,
            "category": self.category.value,
            "candidates": [candidate.to_dict() for candidate in self.candidates],
        }


@dataclass(frozen=True)
class NormalizationResult:
    """Result of normalizing one input text."""

    original_text: str
    normalized_text: str
    corrections: tuple[TokenCorrection, ...] = field(default_factory=tuple)

    @property
    def perturbed_corrections(self) -> tuple[TokenCorrection, ...]:
        """Only the tokens that were actually changed."""
        return tuple(
            correction for correction in self.corrections if correction.was_perturbed
        )

    @property
    def num_corrected(self) -> int:
        """Number of tokens that were de-perturbed."""
        return len(self.perturbed_corrections)

    def to_dict(self) -> dict[str, object]:
        """Serialize for the API layer."""
        return {
            "original_text": self.original_text,
            "normalized_text": self.normalized_text,
            "corrections": [correction.to_dict() for correction in self.corrections],
        }


class Normalizer:
    """Detects perturbed tokens and restores their most coherent English form.

    Parameters
    ----------
    dictionary:
        Token database used to retrieve candidate English words that share a
        perturbed token's sound.
    scorer:
        Trained :class:`~repro.lm.CoherencyScorer`.  When ``None`` the
        normalizer falls back to ranking candidates by (edit distance,
        observed frequency) only — useful before any corpus is available.
    config:
        Hyper-parameters (``phonetic_level``, ``edit_distance``,
        ``normalizer_max_candidates``).
    lexicon:
        Lexicon used to decide whether a token is already a correctly-spelled
        English word (those are left untouched).
    """

    def __init__(
        self,
        dictionary: PerturbationDictionary,
        scorer: CoherencyScorer | None = None,
        config: CrypTextConfig = DEFAULT_CONFIG,
        lexicon: EnglishLexicon | None = None,
    ) -> None:
        self.dictionary = dictionary
        self.scorer = scorer
        self.config = config
        self.lexicon = lexicon if lexicon is not None else dictionary.lexicon
        self.tokenizer = Tokenizer(lowercase=False)
        self._encoder: CustomSoundex = dictionary.encoder(config.phonetic_level)

    # ------------------------------------------------------------------ #
    def _scored_candidate_entries(
        self, canonical: str, soundex_key: str
    ) -> Iterator[tuple[DictionaryEntry, int]]:
        """``(english entry, edit distance)`` pairs within the ``d`` bound.

        The compiled path matches the bucket's English-only canonical trie
        in one traversal (shared DP rows across common prefixes, and no DP
        spent on the misspelling variants that dominate real buckets); the
        linear fallback scans the pre-filtered English entries with one
        banded DP each.  Both honour the config's distance policy —
        ``use_transpositions`` scores an adjacent swap ("teh" for "the") as
        a single edit, exactly as the SMS filter does — and yield identical
        pairs in identical bucket order.
        """
        bound = self.config.edit_distance
        transpositions = self.config.use_transpositions
        level = self.config.phonetic_level
        if self.config.compiled_buckets:
            bucket = self.dictionary.compiled_bucket(soundex_key, phonetic_level=level)
            kernel = bucket.kernel_for(
                self.config.match_kernel, len(canonical), bound, transpositions
            )
            self.dictionary.note_kernel_hits(kernel)
            distances = bucket.match(
                canonical,
                bound,
                canonical=True,
                transpositions=transpositions,
                english_only=True,
                kernel=kernel,
            )
            entries = bucket.entries
            for index in sorted(distances):
                yield entries[index], distances[index]
            return
        self.dictionary.note_kernel_hits("linear")
        bounded_distance = bounded_osa if transpositions else bounded_levenshtein
        for entry in self.dictionary.english_words_for_key(
            soundex_key, phonetic_level=level
        ):
            distance = bounded_distance(canonical, entry.canonical, bound)
            if distance is not None:
                yield entry, distance

    def _rank_candidate_entries(
        self, scored: Iterable[tuple[DictionaryEntry, int]]
    ) -> list[tuple[str, int, int]]:
        """Rank ``(entry, distance)`` pairs already within the ``d`` bound.

        Shared by the sequential and batch paths — the single definition of
        the (distance, -count, word) candidate ordering.
        """
        candidates: dict[str, tuple[str, int, int]] = {}
        for entry, distance in scored:
            word = entry.canonical
            existing = candidates.get(word)
            if existing is None or existing[1] > distance:
                candidates[word] = (word, distance, entry.count)
        return sorted(candidates.values(), key=lambda item: (item[1], -item[2], item[0]))

    def _retrieve_candidates(self, token_text: str) -> list[tuple[str, int, int]]:
        """Candidate English words: ``(word, edit_distance, observed_count)``.

        Candidates are drawn from the dictionary bucket sharing the token's
        Soundex key, restricted to lexicon words.
        """
        canonical = self._encoder.canonicalize(token_text)
        if not canonical:
            return []
        key = self._encoder.encode_or_none(token_text)
        if key is None:
            return []
        return self._rank_candidate_entries(
            self._scored_candidate_entries(canonical, key)
        )

    def _score_candidates(
        self,
        candidates: list[tuple[str, int, int]],
        left_context: Sequence[str],
        right_context: Sequence[str],
    ) -> list[CandidateWord]:
        limited = candidates[: self.config.normalizer_max_candidates]
        scored: list[CandidateWord] = []
        for word, distance, count in limited:
            if self.scorer is not None and self.scorer.is_trained:
                coherency = self.scorer.score(word, left_context, right_context)
            else:
                # Fallback ranking: prefer small edit distance, then frequency.
                coherency = -float(distance) + min(count, 1000) * 1e-6
            scored.append(CandidateWord(word=word, edit_distance=distance, coherency=coherency))
        scored.sort(key=lambda candidate: (-candidate.coherency, candidate.edit_distance, candidate.word))
        return scored

    def _match_case(self, original: str, corrected: str) -> str:
        """Give the corrected word the same casing style as the original."""
        if original.isupper() and len(original) > 1:
            return corrected.upper()
        if original[:1].isupper() and original[1:].islower():
            return corrected.capitalize()
        return corrected

    def normalize(self, text: str) -> NormalizationResult:
        """Normalize (de-perturb) ``text``.

        Tokens that are already correctly-spelled English words (or URLs,
        mentions, hashtags) are left untouched.  Every other word token is
        looked up; when candidates exist the most coherent one replaces it.
        """
        tokens = self.tokenizer.tokenize(text)
        word_tokens = [token for token in tokens if token.is_word]
        lowered_words = [token.text.lower() for token in word_tokens]
        corrections: list[TokenCorrection] = []
        replacements: list[tuple[Token, str]] = []
        for position, token in enumerate(word_tokens):
            correction = self._normalize_token(token, position, lowered_words)
            corrections.append(correction)
            if correction.was_perturbed:
                replacements.append((token, correction.corrected))
        normalized_text = detokenize(text, replacements) if replacements else text
        return NormalizationResult(
            original_text=text,
            normalized_text=normalized_text,
            corrections=tuple(corrections),
        )

    def _normalize_token(
        self, token: Token, position: int, lowered_words: Sequence[str]
    ) -> TokenCorrection:
        original = token.text
        if self.lexicon.is_word(original):
            # Correctly-spelled word: the only perturbation left to undo is
            # emphasis capitalization ("democRATs" -> "democrats").  Tokens
            # whose exact casing *is* a lexicon form ("McDonald", "iPhone")
            # are not emphasis — rewriting them would destroy the word.
            is_emphasis = (
                original != original.lower()
                and original != original.capitalize()
                and not original.isupper()
                and not self.lexicon.is_lexicon_casing(original)
            )
            if not is_emphasis:
                return TokenCorrection(
                    original=original,
                    corrected=original,
                    start=token.start,
                    end=token.end,
                    was_perturbed=False,
                    category=PerturbationCategory.IDENTICAL,
                    candidates=(),
                )
            corrected = original.lower()
            return TokenCorrection(
                original=original,
                corrected=corrected,
                start=token.start,
                end=token.end,
                was_perturbed=True,
                category=PerturbationCategory.EMPHASIS_CAPITALIZATION,
                candidates=(CandidateWord(word=corrected, edit_distance=0, coherency=0.0),),
            )
        candidates = self._retrieve_candidates(original)
        left_context = list(lowered_words[max(0, position - 3) : position])
        right_context = list(lowered_words[position + 1 : position + 4])
        scored = self._score_candidates(candidates, left_context, right_context)
        if not scored:
            return TokenCorrection(
                original=original,
                corrected=original,
                start=token.start,
                end=token.end,
                was_perturbed=False,
                category=PerturbationCategory.IDENTICAL,
                candidates=(),
            )
        best = scored[0]
        corrected = self._match_case(original, best.word)
        changed = corrected.lower() != original.lower()
        # Categorize under the same distance policy that admitted the
        # candidate, so a swap recovered as one OSA edit reports
        # ``adjacent_swap`` while a plain-Levenshtein config labels the
        # same two-edit pair ``mixed``.
        category = (
            categorize_perturbation(
                best.word, original,
                use_transpositions=self.config.use_transpositions,
            )
            if changed or original != corrected
            else PerturbationCategory.IDENTICAL
        )
        return TokenCorrection(
            original=original,
            corrected=corrected,
            start=token.start,
            end=token.end,
            was_perturbed=changed or original != corrected,
            category=category,
            candidates=tuple(scored),
        )

    def normalize_many(self, texts: Sequence[str]) -> list[NormalizationResult]:
        """Bulk normalization (the API layer's batch endpoint)."""
        return [self.normalize(text) for text in texts]

    def detect_perturbations(self, text: str) -> tuple[TokenCorrection, ...]:
        """Return only the detected perturbations of ``text`` (no rewriting).

        This supports the paper's second Normalization use case: the mere
        *presence* of perturbations is a predictive signal for ML pipelines.
        """
        return self.normalize(text).perturbed_corrections
