"""Tests for repro.social.crawler (dictionary enrichment from the stream)."""

from __future__ import annotations

import pytest

from repro import CrypText
from repro.core.dictionary import PerturbationDictionary
from repro.datasets import build_social_corpus
from repro.errors import CrawlerError
from repro.social import SocialPlatform, StreamCrawler


@pytest.fixture()
def small_platform() -> SocialPlatform:
    platform = SocialPlatform("twitter")
    platform.ingest_raw("the demokrats push their agenda", "2021-11-01")
    platform.ingest_raw("stop the vacc1ne mandate", "2021-11-02")
    platform.ingest_raw("the dem0cr@ts and repubLIEcans argue", "2021-11-03")
    platform.ingest_raw("i love my quiet garden", "2021-11-04")
    return platform


class TestCrawlRounds:
    def test_crawl_once_ingests_one_batch(self, small_platform):
        dictionary = PerturbationDictionary()
        crawler = StreamCrawler(small_platform, dictionary, batch_size=2)
        report = crawler.crawl_once()
        assert report is not None
        assert report.posts_processed == 2
        assert report.round_index == 1
        assert crawler.cursor == 2
        assert "demokrats" in dictionary

    def test_crawl_all_consumes_stream(self, small_platform):
        dictionary = PerturbationDictionary()
        crawler = StreamCrawler(small_platform, dictionary, batch_size=2)
        reports = crawler.crawl_all()
        assert len(reports) == 2
        assert crawler.crawl_once() is None  # exhausted
        assert "vacc1ne" in dictionary
        assert "repubLIEcans" in dictionary

    def test_max_rounds_limit(self, small_platform):
        crawler = StreamCrawler(small_platform, PerturbationDictionary(), batch_size=1)
        reports = crawler.crawl_all(max_rounds=2)
        assert len(reports) == 2
        assert crawler.rounds_completed == 2

    def test_dictionary_grows_monotonically(self, small_platform):
        crawler = StreamCrawler(small_platform, PerturbationDictionary(), batch_size=1)
        sizes = [report.dictionary_size for report in crawler.crawl_all()]
        assert sizes == sorted(sizes)

    def test_live_post_after_a_crawled_corpus_is_crawled(self):
        # The corpus's twitter posts are numbered with gaps (the reddit
        # posts take the rest), so the cursor ends past len(platform).
        platform = SocialPlatform("twitter")
        platform.ingest_posts(build_social_corpus(200, seed=7))
        dictionary = PerturbationDictionary()
        crawler = StreamCrawler(platform, dictionary, batch_size=50)
        crawler.crawl_all()
        assert crawler.cursor > len(platform)
        platform.ingest_raw("the vaxxine m4ndate is back", "2021-12-01")
        report = crawler.crawl_once()
        assert report is not None
        assert report.posts_processed == 1
        assert "m4ndate" in dictionary

    def test_new_tokens_reported(self, small_platform):
        crawler = StreamCrawler(small_platform, PerturbationDictionary(), batch_size=4)
        report = crawler.crawl_once()
        assert report.new_tokens == report.dictionary_size
        assert report.new_keys == report.unique_keys
        assert report.tokens_seen >= report.new_tokens

    def test_source_label_recorded(self, small_platform):
        dictionary = PerturbationDictionary()
        StreamCrawler(small_platform, dictionary, batch_size=4).crawl_once()
        assert "twitter_stream" in dictionary.entry("demokrats").sources

    def test_history_accumulates(self, small_platform):
        crawler = StreamCrawler(small_platform, PerturbationDictionary(), batch_size=2)
        crawler.crawl_all()
        assert len(crawler.history) == 2
        assert crawler.history[0].to_dict()["round_index"] == 1

    def test_invalid_batch_size(self, small_platform):
        with pytest.raises(CrawlerError):
            StreamCrawler(small_platform, PerturbationDictionary(), batch_size=0)


class TestCrawlerWithCrypText:
    def test_crawled_tokens_become_lookupable(self, small_platform):
        system = CrypText.empty()
        crawler = StreamCrawler(small_platform, system.dictionary, batch_size=10)
        assert "demokrats" not in system.look_up("democrats").perturbation_tokens()
        crawler.crawl_all()
        if system.cache is not None:
            system.cache.clear()
        assert "demokrats" in system.look_up("democrats").perturbation_tokens()

    def test_crawler_on_synthetic_corpus_scale(self, twitter_platform):
        dictionary = PerturbationDictionary()
        crawler = StreamCrawler(twitter_platform, dictionary, batch_size=100)
        reports = crawler.crawl_all()
        assert reports
        stats = dictionary.stats()
        # tokens always outnumber distinct phonetic keys (paper: 2M vs 400K)
        assert stats.total_tokens >= stats.unique_keys[1]
        assert stats.perturbation_tokens > 0
