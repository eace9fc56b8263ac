"""Tests for repro.core.pipeline (the CrypText facade)."""

from __future__ import annotations

import pytest

from repro import CrypText, CrypTextConfig
from repro.social import SocialPlatform
from repro.social.listening import SocialListener


class TestFactories:
    def test_from_corpus_builds_all_components(self, small_corpus):
        system = CrypText.from_corpus(small_corpus)
        assert len(system.dictionary) > 0
        assert system.scorer is not None and system.scorer.is_trained
        assert system.cache is not None

    def test_from_corpus_without_scorer(self, small_corpus):
        system = CrypText.from_corpus(small_corpus, train_scorer=False)
        assert system.scorer is None

    def test_from_corpus_without_lexicon_seed(self, small_corpus):
        seeded = CrypText.from_corpus(small_corpus, seed_lexicon=True)
        bare = CrypText.from_corpus(small_corpus, seed_lexicon=False)
        assert len(seeded.dictionary) > len(bare.dictionary)

    def test_from_corpus_accepts_a_dotted_capital_i(self):
        # "İ".lower() is two characters; the scorer's tokens must still build.
        system = CrypText.from_corpus(["the İstanbul vaccine", "the vaccine works"])
        assert system.scorer is not None and system.scorer.is_trained
        assert "İstanbul" in system.dictionary
        assert system.normalize("the İstanbul vaccine").normalized_text == (
            "the İstanbul vaccine"
        )

    def test_empty_factory_is_lexicon_only(self):
        system = CrypText.empty()
        stats = system.stats()
        assert stats.total_tokens == stats.lexicon_tokens
        assert stats.perturbation_tokens == 0

    def test_cache_disabled_config(self, small_corpus):
        system = CrypText.from_corpus(
            small_corpus, config=CrypTextConfig(cache_enabled=False)
        )
        assert system.cache is None


class TestFourFunctions:
    def test_look_up(self, cryptext_small):
        assert "repubLIEcans" in cryptext_small.look_up("republicans").tokens

    def test_normalize(self, cryptext_small):
        assert (
            "suicide"
            in cryptext_small.normalize("thinking about suic1de again").normalized_text
        )

    def test_perturb(self, cryptext_small):
        outcome = cryptext_small.perturb("the democrats support the vaccine", ratio=1.0)
        assert outcome.requested_replacements >= 1

    def test_social_listener_constructed(self, cryptext_small):
        platform = SocialPlatform("twitter")
        listener = cryptext_small.social_listener(platform)
        assert isinstance(listener, SocialListener)
        assert listener.lookup is cryptext_small.lookup_engine


class TestLearning:
    def test_learn_from_adds_tokens(self, small_corpus):
        system = CrypText.from_corpus(small_corpus)
        before = system.stats().total_tokens
        added = system.learn_from(["a brand new toxword appears: vacc!ne"], source="stream")
        assert added > 0
        assert system.stats().total_tokens > before

    def test_learn_from_invalidates_cache(self, small_corpus):
        system = CrypText.from_corpus(small_corpus)
        system.look_up("vaccine")
        assert system.cache is not None and len(system.cache) > 0
        system.learn_from(["the vaxxcine debate"], source="stream")
        assert len(system.cache) == 0

    def test_new_perturbation_found_after_learning(self, small_corpus):
        system = CrypText.from_corpus(small_corpus)
        before = system.look_up("mandate").perturbation_tokens()
        system.learn_from(["they fight the mand4te every day"])
        after = system.look_up("mandate").perturbation_tokens()
        assert "mand4te" not in before
        assert "mand4te" in after


class TestStats:
    def test_stats_shape(self, cryptext_small):
        stats = cryptext_small.stats()
        assert stats.total_tokens > 0
        assert set(stats.unique_keys) == {0, 1, 2}
        # tokens outnumber phonetic sounds (paper: 2M tokens vs 400K sounds)
        assert stats.total_tokens >= stats.unique_keys[1]

    def test_stats_to_dict(self, cryptext_small):
        payload = cryptext_small.stats().to_dict()
        assert set(payload["unique_keys"]) == {"0", "1", "2"}
