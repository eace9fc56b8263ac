"""Tests for repro.social.listening (Social Listening, §III-E)."""

from __future__ import annotations

import pytest

from repro.errors import PlatformError
from repro.sentiment import SentimentAnalyzer
from repro.social import SocialListener, SocialPlatform


@pytest.fixture(scope="module")
def listener(cryptext_synthetic, twitter_platform) -> SocialListener:
    return SocialListener(
        platform=twitter_platform, lookup=cryptext_synthetic.lookup_engine
    )


class TestKeywordExpansion:
    def test_expansion_returns_perturbations(self, listener):
        expanded = listener.expand_keyword("vaccine")
        assert expanded
        assert "vaccine" not in expanded

    def test_expansion_respects_cap(self, cryptext_synthetic, twitter_platform):
        capped = SocialListener(
            platform=twitter_platform,
            lookup=cryptext_synthetic.lookup_engine,
            max_perturbations=2,
        )
        assert len(capped.expand_keyword("vaccine")) <= 2

    def test_negative_cap_rejected(self, cryptext_synthetic, twitter_platform):
        with pytest.raises(PlatformError):
            SocialListener(
                platform=twitter_platform,
                lookup=cryptext_synthetic.lookup_engine,
                max_perturbations=-1,
            )


class TestMonitorKeyword:
    def test_usage_report_fields(self, listener):
        usage = listener.monitor_keyword("vaccine")
        assert usage.keyword == "vaccine"
        assert usage.total_posts > 0
        assert 0 <= usage.perturbed_posts <= usage.total_posts
        assert 0.0 <= usage.perturbed_share <= 1.0
        assert usage.timeline

    def test_timeline_is_sorted_and_aggregates_frequency(self, listener):
        usage = listener.monitor_keyword("vaccine")
        dates = [point.date for point in usage.timeline]
        assert dates == sorted(dates)
        assert sum(point.frequency for point in usage.timeline) == usage.total_posts

    def test_timeline_sentiment_bounds(self, listener):
        usage = listener.monitor_keyword("democrats")
        for point in usage.timeline:
            assert -1.0 <= point.average_sentiment <= 1.0
            assert 0.0 <= point.negative_share <= 1.0

    def test_per_perturbation_counts_exclude_case_variants(self, listener):
        usage = listener.monitor_keyword("vaccine")
        assert all(token.lower() != "vaccine" for token in usage.per_perturbation_counts)
        assert sum(usage.per_perturbation_counts.values()) >= usage.perturbed_posts * 0

    def test_date_window_restricts_results(self, listener):
        full = listener.monitor_keyword("vaccine")
        windowed = listener.monitor_keyword("vaccine", since="2021-11-10", until="2021-11-20")
        assert windowed.total_posts <= full.total_posts

    def test_unknown_keyword(self, listener):
        usage = listener.monitor_keyword("zebra")
        assert usage.total_posts == 0
        assert usage.timeline == ()

    def test_monitor_many(self, listener):
        usage = listener.monitor_keywords(["vaccine", "democrats"])
        assert set(usage) == {"vaccine", "democrats"}

    def test_to_dict(self, listener):
        payload = listener.monitor_keyword("vaccine").to_dict()
        assert payload["keyword"] == "vaccine"
        assert isinstance(payload["timeline"], list)
        assert "perturbed_share" in payload


class TestKeywordEnrichment:
    """The §III-B use case: perturbation-enriched search finds more negative content."""

    @pytest.mark.parametrize("keyword", ["democrats", "republicans", "vaccine"])
    def test_enriched_search_finds_more_posts(self, listener, keyword):
        comparison = listener.keyword_enrichment_comparison(keyword)
        assert comparison["enriched_matches"] >= comparison["plain_matches"]

    @pytest.mark.parametrize("keyword", ["democrats", "republicans", "vaccine"])
    def test_enriched_search_skews_more_negative(self, listener, keyword):
        comparison = listener.keyword_enrichment_comparison(keyword)
        assert (
            comparison["enriched_negative_share"]
            >= comparison["plain_negative_share"]
        )

    def test_comparison_fields(self, listener):
        comparison = listener.keyword_enrichment_comparison("vaccine")
        assert set(comparison) >= {
            "keyword",
            "num_perturbations",
            "plain_matches",
            "enriched_matches",
            "plain_negative_share",
            "enriched_negative_share",
            "negative_share_gain",
        }
        assert comparison["negative_share_gain"] == pytest.approx(
            comparison["enriched_negative_share"] - comparison["plain_negative_share"]
        )


class TestCustomSentimentAnalyzer:
    def test_injected_analyzer_used(self, cryptext_synthetic, twitter_platform):
        everything_negative = SentimentAnalyzer(lexicon={"the": -3.0, "a": -3.0})
        listener = SocialListener(
            platform=twitter_platform,
            lookup=cryptext_synthetic.lookup_engine,
            sentiment=everything_negative,
        )
        usage = listener.monitor_keyword("vaccine")
        # Function words are near-universal, so with this lexicon the overall
        # sentiment of the monitored posts must skew clearly negative.
        assert usage.timeline
        total = sum(point.average_sentiment for point in usage.timeline)
        assert total < 0


class TestTimelineOrder:
    def test_a_days_timeline_does_not_depend_on_post_order(self, cryptext_small):
        # Summed left to right, 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ
        # in the last bit.
        scores = {"vaccine one": 0.1, "vaccine two": 0.2, "vaccine three": 0.3}

        class TableSentiment:
            def compound(self, text: str) -> float:
                return scores[text]

        timelines = []
        for texts in (list(scores), list(reversed(scores))):
            platform = SocialPlatform("twitter")
            for text in texts:
                platform.ingest_raw(text, "2021-11-04")
            listener = SocialListener(
                platform=platform,
                lookup=cryptext_small.lookup_engine,
                sentiment=TableSentiment(),
                max_perturbations=0,
            )
            timelines.append(listener.monitor_keyword("vaccine").timeline)
        assert timelines[0] == timelines[1]
        assert timelines[0][0].frequency == 3
