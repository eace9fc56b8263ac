"""End-to-end integration tests across subsystems.

These tests exercise the full pipelines the paper describes: corpus ->
dictionary -> Look Up / Normalization / Perturbation, the crawler loop, the
keyword-enrichment study, the Figure-4 robustness sweep, and the service
layer on top of everything.
"""

from __future__ import annotations

import pytest

from repro import CrypText
from repro.api import CrypTextService
from repro.classifiers import RobustnessEvaluator, SimulatedToxicityAPI
from repro.datasets import build_classification_dataset, build_perturbation_pairs
from repro.social import SocialListener, SocialPlatform, StreamCrawler
from repro.storage import iter_jsonl, write_jsonl
from repro.viz import build_benchmark_page, build_timeline_chart, build_word_cloud


class TestCorpusToLookupPipeline:
    def test_wild_perturbations_are_discoverable(self, cryptext_synthetic, synthetic_posts):
        # Every perturbation injected into the synthetic corpus was "observed
        # in the wild"; Look Up must rediscover a large share of them from
        # their original keyword.
        pairs = [
            (original, perturbed)
            for post in synthetic_posts
            for original, perturbed in post.perturbed_pairs
        ]
        sampled = pairs[:200]
        assert sampled
        found = 0
        for original, perturbed in sampled:
            tokens = cryptext_synthetic.look_up(original.lower()).tokens
            if perturbed in tokens:
                found += 1
        assert found / len(sampled) >= 0.5

    def test_lookup_perturbations_normalize_back(self, cryptext_synthetic):
        result = cryptext_synthetic.look_up("vaccine")
        for match in result.perturbations[:10]:
            normalized = cryptext_synthetic.normalize(f"stop the {match.token} mandate")
            assert "vaccine" in normalized.normalized_text.lower()


class TestCrawlerLoop:
    def test_crawl_then_lookup_then_listen(self, synthetic_posts):
        platform = SocialPlatform("twitter")
        platform.ingest_posts(synthetic_posts)
        system = CrypText.empty()
        crawler = StreamCrawler(platform, system.dictionary, batch_size=150)
        reports = crawler.crawl_all()
        assert len(reports) >= 2
        if system.cache is not None:
            system.cache.clear()
        perturbations = system.look_up("vaccine").perturbation_tokens()
        assert perturbations
        listener = system.social_listener(platform)
        usage = listener.monitor_keyword("vaccine")
        assert usage.total_posts > 0
        chart = build_timeline_chart(usage)
        assert chart["labels"]


class TestKeywordEnrichmentStudy:
    def test_enrichment_direction_matches_paper(self, cryptext_synthetic, twitter_platform):
        # §III-B: for every controversial keyword the enriched query set
        # surfaces at least as much content and a more negative slice of it.
        listener = SocialListener(twitter_platform, cryptext_synthetic.lookup_engine)
        gains = []
        for keyword in ("democrats", "republicans", "vaccine"):
            comparison = listener.keyword_enrichment_comparison(keyword)
            assert comparison["enriched_matches"] >= comparison["plain_matches"]
            gains.append(comparison["negative_share_gain"])
        # the aggregate effect is positive even if a single keyword ties
        assert sum(gains) > 0


class TestRobustnessSweep:
    def test_figure4_shape(self, cryptext_synthetic):
        texts, labels = build_classification_dataset("toxicity", num_samples=360, seed=23)
        api = SimulatedToxicityAPI().train(texts[:260], labels[:260])
        evaluator = RobustnessEvaluator(
            lambda text, ratio: cryptext_synthetic.perturb(text, ratio=ratio).perturbed_text,
            ratios=(0.0, 0.25, 0.5),
        )
        points = evaluator.evaluate(api, texts[260:], labels[260:])
        by_ratio = {point.ratio: point.accuracy for point in points}
        assert by_ratio[0.0] >= by_ratio[0.25] >= by_ratio[0.5] - 1e-9
        page = build_benchmark_page({"perspective_toxicity": points})
        assert len(page["rows"]) == 3


class TestPersistenceRoundTrip:
    def test_dictionary_survives_dump_and_reload(self, cryptext_small, tmp_path):
        path = tmp_path / "tokens.jsonl"
        write_jsonl(path, cryptext_small.dictionary.documents())
        rebuilt = CrypText.empty(seed_lexicon=False)
        rebuilt.dictionary.replace_documents(iter_jsonl(path))
        original = cryptext_small.look_up("republicans").tokens
        restored = rebuilt.look_up("republicans").tokens
        assert set(original) == set(restored)


class TestServiceLayerEndToEnd:
    def test_full_api_session(self, cryptext_synthetic, twitter_platform):
        service = CrypTextService(cryptext_synthetic, platform=twitter_platform)
        token = service.issue_token("integration").token
        lookup = service.lookup(token, ["democrats", "vaccine"])
        normalize = service.normalize(token, ["the demokrats push the vacc1ne"])
        perturb = service.perturb(token, ["the democrats support the vaccine"], ratio=0.5)
        listen = service.listen(token, ["vaccine"])
        stats = service.stats(token)
        assert all(response.ok for response in (lookup, normalize, perturb, listen, stats))
        assert stats.body["stats"]["total_tokens"] > 0

    def test_word_cloud_from_service_results(self, cryptext_synthetic):
        result = cryptext_synthetic.look_up("democrats")
        cloud = build_word_cloud(result)
        assert cloud


class TestNormalizationRecoversInjectedPerturbations:
    def test_ground_truth_pairs_recall(self):
        # A lexicon-only system (no observed corpus, no trained scorer) must
        # still de-perturb a solid share of ground-truth human perturbations:
        # candidates come from the seeded English lexicon alone.
        system = CrypText.empty()
        pairs = build_perturbation_pairs(num_pairs=60, seed=17)
        recovered = 0
        for original, perturbed, _strategy in pairs:
            normalized = system.normalize(f"they talk about {perturbed} online")
            if original.lower() in normalized.normalized_text.lower():
                recovered += 1
        assert recovered / len(pairs) >= 0.5
