"""Interpolated n-gram language model.

This is the trainable substrate behind the coherency score of the
Normalization function.  It is intentionally classic: maximum-likelihood
n-gram estimates with Lidstone (add-``alpha``) smoothing, linearly
interpolated across orders so that unseen higher-order contexts back off
gracefully to lower orders.

The model works on *word tokens*; the normalizer lowercases and canonicalizes
its inputs before scoring so that the coherency signal reflects meaning, not
surface perturbation.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Iterable, Sequence

from ..errors import LanguageModelError
from .vocab import SENTENCE_END, SENTENCE_START, UNK_TOKEN, Vocabulary


class NgramLanguageModel:
    """Interpolated n-gram model with Lidstone smoothing.

    Parameters
    ----------
    order:
        Maximum n-gram order (3 = trigram model, the library default).
    alpha:
        Lidstone smoothing constant added to every count.
    interpolation_weights:
        Optional per-order interpolation weights, highest order first; they
        are normalized to sum to one.  The default weights decay by a factor
        of two per order (e.g. trigram ``0.57, 0.29, 0.14``).
    vocabulary:
        Optional pre-built vocabulary; one is fitted from the training corpus
        when omitted.
    """

    def __init__(
        self,
        order: int = 3,
        alpha: float = 0.1,
        interpolation_weights: Sequence[float] | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> None:
        if order < 1:
            raise LanguageModelError(f"order must be >= 1, got {order}")
        if alpha <= 0:
            raise LanguageModelError(f"alpha must be positive, got {alpha}")
        self.order = order
        self.alpha = alpha
        if interpolation_weights is None:
            raw = [2.0 ** (order - rank) for rank in range(order, 0, -1)]
            raw.reverse()
        else:
            if len(interpolation_weights) != order:
                raise LanguageModelError(
                    f"expected {order} interpolation weights, "
                    f"got {len(interpolation_weights)}"
                )
            if any(weight < 0 for weight in interpolation_weights):
                raise LanguageModelError("interpolation weights must be non-negative")
            raw = list(interpolation_weights)
        total = sum(raw)
        if total <= 0:
            raise LanguageModelError("interpolation weights must not all be zero")
        #: weights[i] corresponds to n-gram order i+1
        self.weights: tuple[float, ...] = tuple(weight / total for weight in raw)
        self.vocabulary = vocabulary
        self._ngram_counts: dict[int, Counter[tuple[str, ...]]] = defaultdict(Counter)
        self._context_counts: dict[int, Counter[tuple[str, ...]]] = defaultdict(Counter)
        self._trained = False

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def _prepare(self, sentence: Iterable[str]) -> list[str]:
        assert self.vocabulary is not None
        padded = (
            [SENTENCE_START] * (self.order - 1)
            + [token for token in sentence]
            + [SENTENCE_END]
        )
        return [
            token
            if token in (SENTENCE_START, SENTENCE_END) or token in self.vocabulary
            else UNK_TOKEN
            for token in (t.lower() if t not in (SENTENCE_START, SENTENCE_END) else t for t in padded)
        ]

    def fit(self, sentences: Iterable[Iterable[str]]) -> "NgramLanguageModel":
        """Train on an iterable of tokenized sentences.

        Counts every n-gram of each padded sentence except those made of
        padding alone: an order-``n`` gram starting before position
        ``order - n`` lies inside the ``order - 1`` leading
        :data:`SENTENCE_START` symbols, so counting starts there.
        """
        corpus = [list(sentence) for sentence in sentences]
        if self.vocabulary is None:
            self.vocabulary = Vocabulary().fit(corpus)
        for sentence in corpus:
            tokens = self._prepare(sentence)
            for ngram_order in range(1, self.order + 1):
                first = self.order - ngram_order
                grams = list(
                    zip(*(tokens[first + shift :] for shift in range(ngram_order)))
                )
                self._ngram_counts[ngram_order].update(grams)
                self._context_counts[ngram_order].update([gram[:-1] for gram in grams])
        self._trained = True
        return self

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._trained

    def _require_trained(self) -> None:
        if not self._trained or self.vocabulary is None:
            raise LanguageModelError("the language model has not been trained yet")

    # ------------------------------------------------------------------ #
    # probabilities
    # ------------------------------------------------------------------ #
    def _order_probability(self, gram: tuple[str, ...]) -> float:
        """Lidstone-smoothed P(w | context) for a single order."""
        assert self.vocabulary is not None
        ngram_order = len(gram)
        numerator = self._ngram_counts[ngram_order][gram] + self.alpha
        denominator = (
            self._context_counts[ngram_order][gram[:-1]]
            + self.alpha * max(len(self.vocabulary), 1)
        )
        return numerator / denominator

    def _map_token(self, token: str) -> str:
        assert self.vocabulary is not None
        if token in (SENTENCE_START, SENTENCE_END):
            return token
        lowered = token.lower()
        return lowered if lowered in self.vocabulary else UNK_TOKEN

    def probability(self, token: str, context: Sequence[str] = ()) -> float:
        """Interpolated ``P(token | context)``.

        ``context`` is the sequence of tokens immediately preceding
        ``token``; only the last ``order - 1`` items are used.
        """
        self._require_trained()
        mapped_token = self._map_token(token)
        mapped_context = [self._map_token(item) for item in context][-(self.order - 1) :] if self.order > 1 else []
        probability = 0.0
        for ngram_order in range(1, self.order + 1):
            weight = self.weights[ngram_order - 1]
            if weight == 0.0:
                continue
            if ngram_order == 1:
                gram: tuple[str, ...] = (mapped_token,)
            else:
                needed = ngram_order - 1
                tail = mapped_context[-needed:] if needed <= len(mapped_context) else None
                if tail is None or len(tail) < needed:
                    # Not enough context for this order; give its mass to the
                    # orders that do have context by skipping (weights are
                    # re-normalized implicitly via the final division).
                    continue
                gram = tuple(tail) + (mapped_token,)
            probability += weight * self._order_probability(gram)
        used_weight = sum(
            self.weights[ngram_order - 1]
            for ngram_order in range(1, self.order + 1)
            if ngram_order == 1 or ngram_order - 1 <= len(mapped_context)
        )
        return probability / used_weight if used_weight > 0 else probability

    def log_probability(self, token: str, context: Sequence[str] = ()) -> float:
        """Natural log of :meth:`probability` (floored to avoid ``-inf``)."""
        return math.log(max(self.probability(token, context), 1e-12))

    def sentence_log_probability(self, tokens: Sequence[str]) -> float:
        """Sum of per-token log probabilities with sentence padding."""
        self._require_trained()
        padded = [SENTENCE_START] * (self.order - 1) + [t for t in tokens] + [SENTENCE_END]
        total = 0.0
        for position in range(self.order - 1, len(padded)):
            context = padded[max(0, position - self.order + 1) : position]
            total += self.log_probability(padded[position], context)
        return total

    def perplexity(self, tokens: Sequence[str]) -> float:
        """Perplexity of a token sequence under the model."""
        if not tokens:
            raise LanguageModelError("cannot compute perplexity of an empty sequence")
        log_probability = self.sentence_log_probability(tokens)
        return math.exp(-log_probability / (len(tokens) + 1))

    def score_in_context(
        self,
        candidate: str,
        left_context: Sequence[str],
        right_context: Sequence[str] = (),
    ) -> float:
        """Log-likelihood of ``candidate`` at a masked position.

        Combines ``P(candidate | left_context)`` with the probability the
        candidate assigns to the following token ``P(next | ..., candidate)``,
        which is how an n-gram model can exploit right context.
        """
        self._require_trained()
        score = self.log_probability(candidate, left_context)
        if right_context:
            following_context = list(left_context[-(self.order - 2):] if self.order > 2 else [])
            following_context.append(candidate)
            score += self.log_probability(right_context[0], following_context)
        return score
