"""Tests for repro.social.platform (the simulated social platform)."""

from __future__ import annotations

import pytest

from repro.datasets import build_social_corpus
from repro.errors import PlatformError
from repro.social import SocialPlatform


@pytest.fixture()
def platform() -> SocialPlatform:
    instance = SocialPlatform("twitter")
    instance.ingest_raw("the democrats push the vaccine mandate", "2021-11-02", author="a")
    instance.ingest_raw("the dem0crats lie about everything", "2021-11-03", author="b")
    instance.ingest_raw("i love my garden in november", "2021-11-03", author="c")
    instance.ingest_raw("republicans block the bill again", "2021-11-05", author="a")
    return instance


class TestIngestion:
    def test_ingest_posts_filters_by_platform(self, synthetic_posts):
        twitter = SocialPlatform("twitter")
        reddit = SocialPlatform("reddit")
        twitter_count = twitter.ingest_posts(synthetic_posts)
        reddit_count = reddit.ingest_posts(synthetic_posts)
        assert twitter_count + reddit_count == len(synthetic_posts)
        assert len(twitter) == twitter_count
        assert len(reddit) == reddit_count

    def test_ingest_all_platforms_when_not_filtering(self, synthetic_posts):
        mixed = SocialPlatform("twitter")
        count = mixed.ingest_posts(synthetic_posts, only_matching_platform=False)
        assert count == len(synthetic_posts)

    def test_ingest_raw_assigns_sequential_ids(self, platform):
        new_id = platform.ingest_raw("another vaccine post", "2021-11-06")
        assert new_id == len(platform)

    def test_ingest_empty_text_rejected(self, platform):
        with pytest.raises(PlatformError):
            platform.ingest_raw("   ", "2021-11-06")

    def test_ingest_raw_metadata_stored(self):
        platform = SocialPlatform("reddit")
        platform.ingest_raw("hello world", "2021-11-01", subreddit="politics")
        assert platform.all_posts()[0]["subreddit"] == "politics"

    def test_ingest_raw_continues_after_the_largest_post_id(self):
        platform = SocialPlatform("twitter")
        platform.ingest_posts(build_social_corpus(200, seed=7))
        largest = max(post["post_id"] for post in platform.all_posts())
        assert largest > len(platform)
        platform.ingest_raw("a fresh vaccine post", "2021-12-01")
        assert platform.all_posts()[-1]["post_id"] == largest + 1

    def test_non_string_created_at_rejected(self, platform):
        with pytest.raises(PlatformError, match="created_at"):
            platform.ingest_raw("another vaccine post", None)
        assert len(platform) == 4

    def test_posts_are_copied_in_and_out(self):
        platform = SocialPlatform("twitter")
        tags = ["news"]
        platform.ingest_raw("the vaccine rollout", "2021-11-01", tags=tags)
        tags.append("changed by the caller")
        platform.search("vaccine").posts[0]["tags"].append("changed by a reader")
        platform.all_posts()[0]["tokens"].clear()
        stored = platform.all_posts()[0]
        assert stored["tags"] == ["news"]
        assert stored["tokens"] == ["the", "vaccine", "rollout"]


class TestSearch:
    def test_single_keyword(self, platform):
        result = platform.search("democrats")
        assert len(result) == 1
        assert "democrats" in result.texts[0]

    def test_search_finds_a_post_with_a_dotted_capital_i(self, platform):
        # "İ".lower() is two characters, longer than the token's span.
        post_id = platform.ingest_raw("İstanbul vaccine rally", "2021-11-06")
        assert [post["_id"] for post in platform.search("İstanbul").posts] == [post_id]

    def test_search_is_case_insensitive(self, platform):
        assert len(platform.search("DEMOCRATS")) == 1

    def test_multi_keyword_union(self, platform):
        result = platform.search(["democrats", "dem0crats"])
        assert len(result) == 2

    def test_perturbed_keyword_only_matches_perturbed_post(self, platform):
        result = platform.search("dem0crats")
        assert len(result) == 1
        assert "dem0crats" in result.texts[0]

    def test_no_match(self, platform):
        assert len(platform.search("zebra")) == 0

    def test_date_range_filters(self, platform):
        assert len(platform.search("democrats", since="2021-11-03")) == 0
        assert len(platform.search(["democrats", "republicans"], since="2021-11-04")) == 1
        assert len(platform.search(["democrats", "republicans"], until="2021-11-02")) == 1

    def test_limit(self, platform):
        result = platform.search(["democrats", "dem0crats", "republicans"], limit=2)
        assert len(result) == 2

    def test_results_sorted_most_recent_first(self, platform):
        result = platform.search(["democrats", "dem0crats", "republicans"])
        dates = [str(post["created_at"]) for post in result.posts]
        assert dates == sorted(dates, reverse=True)

    def test_empty_query_rejected(self, platform):
        with pytest.raises(PlatformError):
            platform.search([])

    @pytest.mark.parametrize("bound", [5, ["2021-11-01"], {"a": 1}])
    def test_non_string_date_bound_rejected(self, platform, bound):
        with pytest.raises(PlatformError, match="since"):
            platform.search("democrats", since=bound)
        with pytest.raises(PlatformError, match="until"):
            platform.search("democrats", until=bound)

    def test_count_matching(self, platform):
        assert platform.count_matching("republicans") == 1

    @pytest.mark.parametrize(
        "queries",
        [
            ["Democrats", "DEM0CRATS", "democrats"],
            ["REPUBLICANS", "The", "zebra"],
            ("Vaccine", "GARDEN"),
            "The",
        ],
    )
    def test_count_matching_equals_search_length(self, platform, queries):
        assert platform.count_matching(queries) == len(platform.search(queries))

    def test_count_matching_reads_the_index_without_copying(
        self, twitter_platform, monkeypatch
    ):
        import repro.social.platform as platform_module

        queries = ["The", "VACCINE", "democrats", "Dem0crats"]
        expected = len(twitter_platform.search(queries))
        assert expected > 0

        def no_copies(posts):
            raise AssertionError("count_matching copied posts")

        monkeypatch.setattr(platform_module, "_copies", no_copies)
        assert twitter_platform.count_matching(queries) == expected

    def test_count_matching_rejects_an_empty_query(self, platform):
        with pytest.raises(PlatformError):
            platform.count_matching([])


class TestStream:
    def test_stream_batches_in_order(self, platform):
        batches = list(platform.stream(batch_size=3))
        assert [len(batch) for batch in batches] == [3, 1]
        ids = [post["post_id"] for batch in batches for post in batch]
        assert ids == sorted(ids)

    def test_stream_resumes_after_cursor(self, platform):
        batches = list(platform.stream(batch_size=10, after_post_id=2))
        assert len(batches) == 1
        assert [post["post_id"] for post in batches[0]] == [3, 4]

    def test_stream_empty_when_exhausted(self, platform):
        assert list(platform.stream(batch_size=10, after_post_id=99)) == []

    def test_stream_batch_size_validation(self, platform):
        with pytest.raises(PlatformError):
            list(platform.stream(batch_size=0))

    def test_posts_between(self, platform):
        posts = platform.posts_between("2021-11-02", "2021-11-03")
        assert len(posts) == 3

    def test_corpus_scale_search(self, twitter_platform):
        # The ingested synthetic corpus is searchable end to end.
        result = twitter_platform.search("vaccine")
        assert len(result) > 0
        assert all("vaccine" in text.lower() for text in result.texts)
