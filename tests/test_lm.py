"""Tests for repro.lm (vocabulary, n-gram LM, coherency scorer)."""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import pytest

from repro.errors import LanguageModelError
from repro.lm import (
    CoherencyScorer,
    NgramLanguageModel,
    SENTENCE_END,
    SENTENCE_START,
    UNK_TOKEN,
    Vocabulary,
)
from repro.text.tokenizer import Tokenizer
from tests.test_golden_regression import GOLDEN_BUILD_CORPUS

CORPUS = [
    "the democrats support the vaccine mandate".split(),
    "the republicans oppose the vaccine mandate".split(),
    "the democrats debate the republicans".split(),
    "people discuss the vaccine every day".split(),
    "the senate passed the bill".split(),
]


class TestVocabulary:
    def test_fit_and_membership(self):
        vocabulary = Vocabulary().fit(CORPUS)
        assert "democrats" in vocabulary
        assert "zebra" not in vocabulary

    def test_case_folding(self):
        vocabulary = Vocabulary().fit([["Democrats", "WIN"]])
        assert "democrats" in vocabulary
        assert "win" in vocabulary

    def test_special_tokens_present(self):
        vocabulary = Vocabulary().fit(CORPUS)
        for token in (UNK_TOKEN, SENTENCE_START, SENTENCE_END):
            assert token in vocabulary

    def test_unknown_maps_to_unk_id(self):
        vocabulary = Vocabulary().fit(CORPUS)
        assert vocabulary.id_of("zebra") == vocabulary.id_of(UNK_TOKEN)

    def test_encode_and_token_of_round_trip(self):
        vocabulary = Vocabulary().fit(CORPUS)
        ids = vocabulary.encode(["the", "democrats"])
        assert [vocabulary.token_of(token_id) for token_id in ids] == ["the", "democrats"]

    def test_min_count_prunes_rare_words(self):
        vocabulary = Vocabulary(min_count=2).fit(CORPUS)
        assert "the" in vocabulary
        assert "senate" not in vocabulary  # appears once

    def test_counts(self):
        vocabulary = Vocabulary().fit(CORPUS)
        assert vocabulary.count_of("the") >= 5
        assert vocabulary.count_of("zebra") == 0

    def test_invalid_min_count(self):
        with pytest.raises(LanguageModelError):
            Vocabulary(min_count=0)

    def test_token_of_invalid_id(self):
        vocabulary = Vocabulary().fit(CORPUS)
        with pytest.raises(LanguageModelError):
            vocabulary.token_of(10_000)


class TestNgramLanguageModel:
    def test_probabilities_form_reasonable_distribution(self):
        model = NgramLanguageModel(order=2).fit(CORPUS)
        vocabulary = model.vocabulary
        total = sum(
            model.probability(token, ["the"])
            for token in vocabulary.tokens
            if token != SENTENCE_START
        )
        assert total == pytest.approx(1.0, abs=0.05)

    def test_seen_bigram_more_likely_than_unseen(self):
        model = NgramLanguageModel(order=2).fit(CORPUS)
        assert model.probability("vaccine", ["the"]) > model.probability("zebra", ["the"])

    def test_context_changes_probability(self):
        model = NgramLanguageModel(order=3).fit(CORPUS)
        in_context = model.probability("mandate", ["the", "vaccine"])
        out_of_context = model.probability("mandate", ["the", "senate"])
        assert in_context > out_of_context

    def test_log_probability_is_log_of_probability(self):
        model = NgramLanguageModel(order=2).fit(CORPUS)
        probability = model.probability("democrats", ["the"])
        assert model.log_probability("democrats", ["the"]) == pytest.approx(
            math.log(probability)
        )

    def test_sentence_log_probability_orders_sentences(self):
        model = NgramLanguageModel(order=3).fit(CORPUS)
        likely = model.sentence_log_probability("the democrats support the vaccine".split())
        unlikely = model.sentence_log_probability("vaccine the the support zebra".split())
        assert likely > unlikely

    def test_perplexity_positive_and_finite(self):
        model = NgramLanguageModel(order=2).fit(CORPUS)
        perplexity = model.perplexity("the democrats debate".split())
        assert perplexity > 1.0
        assert math.isfinite(perplexity)

    def test_perplexity_empty_sequence_rejected(self):
        model = NgramLanguageModel(order=2).fit(CORPUS)
        with pytest.raises(LanguageModelError):
            model.perplexity([])

    def test_untrained_model_rejects_queries(self):
        with pytest.raises(LanguageModelError):
            NgramLanguageModel().probability("the")

    def test_unigram_model_ignores_context(self):
        model = NgramLanguageModel(order=1).fit(CORPUS)
        assert model.probability("vaccine", ["the"]) == pytest.approx(
            model.probability("vaccine", [])
        )

    def test_invalid_hyperparameters(self):
        with pytest.raises(LanguageModelError):
            NgramLanguageModel(order=0)
        with pytest.raises(LanguageModelError):
            NgramLanguageModel(alpha=0)
        with pytest.raises(LanguageModelError):
            NgramLanguageModel(order=2, interpolation_weights=[1.0])
        with pytest.raises(LanguageModelError):
            NgramLanguageModel(order=2, interpolation_weights=[0.0, 0.0])

    def test_custom_interpolation_weights_normalized(self):
        model = NgramLanguageModel(order=2, interpolation_weights=[2.0, 6.0])
        assert sum(model.weights) == pytest.approx(1.0)

    def test_score_in_context_uses_right_context(self):
        model = NgramLanguageModel(order=3).fit(CORPUS)
        with_right = model.score_in_context("vaccine", ["the"], ["mandate"])
        without_right = model.score_in_context("zebra", ["the"], ["mandate"])
        assert with_right > without_right

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_fit_counts_equal_the_per_gram_loop_on_the_golden_corpus(self, order):
        tokenizer = Tokenizer(lowercase=True)
        sentences = [
            [token.text for token in tokenizer.word_tokens(text)]
            for text in GOLDEN_BUILD_CORPUS
        ]
        for corpus in (sentences, [list(reversed(sentence)) for sentence in sentences]):
            model = NgramLanguageModel(order=order).fit(corpus)
            ngram_counts: dict[int, Counter] = defaultdict(Counter)
            context_counts: dict[int, Counter] = defaultdict(Counter)
            for sentence in corpus:
                tokens = model._prepare(sentence)
                for n in range(1, order + 1):
                    for start in range(len(tokens) - n + 1):
                        gram = tuple(tokens[start : start + n])
                        if all(token == SENTENCE_START for token in gram):
                            continue
                        ngram_counts[n][gram] += 1
                        context_counts[n][gram[:-1]] += 1
            for n in range(1, order + 1):
                assert model._ngram_counts[n] == ngram_counts[n]
                assert model._context_counts[n] == context_counts[n]


class TestCoherencyScorer:
    def test_ranks_contextual_word_first(self):
        scorer = CoherencyScorer(order=3).fit(CORPUS)
        ranked = scorer.rank_candidates(
            ["vaccine", "senate", "zebra"], ["the"], ["mandate"]
        )
        assert ranked[0][0] == "vaccine"

    def test_scores_sorted_descending(self):
        scorer = CoherencyScorer(order=3).fit(CORPUS)
        ranked = scorer.rank_candidates(["vaccine", "senate", "bill"], ["the"], [])
        scores = [score for _word, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_right_context_contributes(self):
        scorer = CoherencyScorer(order=3, backward_weight=0.5).fit(CORPUS)
        with_right = scorer.score("vaccine", ["the"], ["mandate"])
        without_right = scorer.score("vaccine", ["the"], ["zebra"])
        assert with_right > without_right

    def test_backward_weight_validation(self):
        with pytest.raises(LanguageModelError):
            CoherencyScorer(backward_weight=1.5)

    def test_untrained_scorer_rejects_queries(self):
        with pytest.raises(LanguageModelError):
            CoherencyScorer().score("vaccine", ["the"])

    def test_is_trained_flag(self):
        scorer = CoherencyScorer()
        assert not scorer.is_trained
        scorer.fit(CORPUS)
        assert scorer.is_trained

    def test_sentence_log_probability_available(self):
        scorer = CoherencyScorer().fit(CORPUS)
        assert math.isfinite(scorer.sentence_log_probability("the democrats debate".split()))
