"""Social Listening: monitoring human-written perturbations online.

Paper §III-E: "given a list of English words, CrypText first searches on the
social platforms all the contents using their perturbations as queries.
Then, it aggregates and displays the usage patterns of each individual
perturbation in both frequency and sentiment through interactive timeline
charts."

:class:`SocialListener` reproduces exactly that pipeline against a simulated
platform: expand each keyword into its perturbations via Look Up, search the
platform with the expanded query set, and aggregate matches into per-day
timelines of frequency and average sentiment.  The timeline data feeds the
chart export in :mod:`repro.viz.timeline`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from ..core.lookup import LookupEngine
from ..errors import PlatformError
from ..sentiment import SentimentAnalyzer
from .platform import SocialPlatform


@dataclass(frozen=True)
class TimelinePoint:
    """Aggregated usage of a keyword (or one perturbation) on one day."""

    date: str
    frequency: int
    average_sentiment: float
    negative_share: float

    def to_dict(self) -> dict[str, object]:
        """Serialize for the timeline chart export."""
        return {
            "date": self.date,
            "frequency": self.frequency,
            "average_sentiment": self.average_sentiment,
            "negative_share": self.negative_share,
        }


@dataclass(frozen=True)
class KeywordUsage:
    """Everything Social Listening reports about one monitored keyword."""

    keyword: str
    perturbations: tuple[str, ...]
    total_posts: int
    perturbed_posts: int
    timeline: tuple[TimelinePoint, ...] = field(default_factory=tuple)
    per_perturbation_counts: dict[str, int] = field(default_factory=dict)

    @property
    def perturbed_share(self) -> float:
        """Fraction of matched posts that matched via a perturbation."""
        return self.perturbed_posts / self.total_posts if self.total_posts else 0.0

    def to_dict(self) -> dict[str, object]:
        """Serialize for the API layer / chart exports."""
        return {
            "keyword": self.keyword,
            "perturbations": list(self.perturbations),
            "total_posts": self.total_posts,
            "perturbed_posts": self.perturbed_posts,
            "perturbed_share": self.perturbed_share,
            "timeline": [point.to_dict() for point in self.timeline],
            "per_perturbation_counts": dict(self.per_perturbation_counts),
        }


class SocialListener:
    """Monitors keyword perturbation usage on a platform.

    Parameters
    ----------
    platform:
        The platform to search.
    lookup:
        Look Up engine used to expand keywords into their perturbations.
    sentiment:
        Sentiment analyzer for the per-day sentiment series (a default
        lexicon analyzer is created when omitted).
    max_perturbations:
        Cap on how many perturbations per keyword are used as extra queries.
    """

    def __init__(
        self,
        platform: SocialPlatform,
        lookup: LookupEngine,
        sentiment: SentimentAnalyzer | None = None,
        max_perturbations: int = 25,
    ) -> None:
        if max_perturbations < 0:
            raise PlatformError(
                f"max_perturbations must be >= 0, got {max_perturbations}"
            )
        self.platform = platform
        self.lookup = lookup
        self.sentiment = sentiment if sentiment is not None else SentimentAnalyzer()
        self.max_perturbations = max_perturbations

    # ------------------------------------------------------------------ #
    def expand_keyword(self, keyword: str) -> tuple[str, ...]:
        """The keyword's perturbations, most frequent first."""
        result = self.lookup.look_up(keyword, case_sensitive=True)
        return result.perturbation_tokens()[: self.max_perturbations]

    def expand_keywords(self, keywords: Sequence[str]) -> dict[str, tuple[str, ...]]:
        """Expand a watch-list: one :meth:`expand_keyword` per distinct keyword."""
        return {
            keyword: self.expand_keyword(keyword) for keyword in dict.fromkeys(keywords)
        }

    def _timeline_from_posts(
        self, posts: Sequence[dict[str, object]]
    ) -> tuple[TimelinePoint, ...]:
        by_day: dict[str, list[dict[str, object]]] = defaultdict(list)
        for post in posts:
            by_day[str(post["created_at"])].append(post)
        points: list[TimelinePoint] = []
        for day in sorted(by_day):
            day_posts = by_day[day]
            scores = [self.sentiment.compound(str(post["text"])) for post in day_posts]
            negatives = sum(1 for score in scores if score <= -0.05)
            # fsum rounds only once, so the average depends on the day's set
            # of posts, not on the order search returned them in.
            average = math.fsum(scores) / len(scores) if scores else 0.0
            points.append(
                TimelinePoint(
                    date=day,
                    frequency=len(day_posts),
                    average_sentiment=average,
                    negative_share=(negatives / len(day_posts)) if day_posts else 0.0,
                )
            )
        return tuple(points)

    def monitor_keyword(
        self,
        keyword: str,
        since: str | None = None,
        until: str | None = None,
        include_original: bool = True,
        perturbations: tuple[str, ...] | None = None,
    ) -> KeywordUsage:
        """Build the full Social Listening report for one keyword.

        ``perturbations`` lets :meth:`monitor_keywords` pass in the
        expansion it already computed for the whole watch-list.
        """
        if perturbations is None:
            perturbations = self.expand_keyword(keyword)
        queries = ((keyword,) if include_original else ()) + perturbations
        if not queries:
            queries = (keyword,)
        result = self.platform.search(queries, since=since, until=until)
        # The platform tokenizes posts case-insensitively, so case-only
        # variants of the keyword cannot be distinguished there; count only
        # perturbations whose lowercase form differs from the keyword.
        keyword_lower = keyword.lower()
        perturbation_set = {
            token.lower() for token in perturbations if token.lower() != keyword_lower
        }
        per_perturbation: dict[str, int] = {
            token: 0 for token in perturbations if token.lower() != keyword_lower
        }
        perturbed_posts = 0
        for post in result.posts:
            tokens = {str(token) for token in post.get("tokens", [])}
            matched = {token for token in perturbation_set if token in tokens}
            if matched:
                perturbed_posts += 1
                for perturbation in per_perturbation:
                    if perturbation.lower() in matched:
                        per_perturbation[perturbation] += 1
        return KeywordUsage(
            keyword=keyword,
            perturbations=perturbations,
            total_posts=len(result),
            perturbed_posts=perturbed_posts,
            timeline=self._timeline_from_posts(result.posts),
            per_perturbation_counts=per_perturbation,
        )

    def monitor_keywords(
        self,
        keywords: Sequence[str],
        since: str | None = None,
        until: str | None = None,
    ) -> dict[str, KeywordUsage]:
        """Monitor several keywords (the GUI's watch-list).

        The whole watch-list is expanded before the per-keyword platform
        searches run.
        """
        expansions = self.expand_keywords(keywords)
        return {
            keyword: self.monitor_keyword(
                keyword, since=since, until=until, perturbations=expansions[keyword]
            )
            for keyword in keywords
        }

    # ------------------------------------------------------------------ #
    def merge_usage(self, usages: Sequence[KeywordUsage]) -> KeywordUsage:
        """Merge usage reports of the *same keyword* from several platforms.

        Supports the paper's stated future work ("the Social Listening
        function is limited to Reddit data and we plan to support other
        platforms"): :class:`MultiPlatformListener` monitors a keyword on
        every platform and merges the per-platform reports into one
        cross-platform view.
        """
        if not usages:
            raise PlatformError("at least one usage report is required")
        keyword = usages[0].keyword
        if any(usage.keyword != keyword for usage in usages):
            raise PlatformError("cannot merge usage reports of different keywords")
        perturbations: list[str] = []
        for usage in usages:
            for token in usage.perturbations:
                if token not in perturbations:
                    perturbations.append(token)
        per_perturbation: dict[str, int] = {}
        for usage in usages:
            for token, count in usage.per_perturbation_counts.items():
                per_perturbation[token] = per_perturbation.get(token, 0) + count
        by_date: dict[str, list[TimelinePoint]] = defaultdict(list)
        for usage in usages:
            for point in usage.timeline:
                by_date[point.date].append(point)
        merged_timeline = []
        for date in sorted(by_date):
            points = by_date[date]
            frequency = sum(point.frequency for point in points)
            weighted_sentiment = (
                sum(point.average_sentiment * point.frequency for point in points) / frequency
                if frequency
                else 0.0
            )
            weighted_negative = (
                sum(point.negative_share * point.frequency for point in points) / frequency
                if frequency
                else 0.0
            )
            merged_timeline.append(
                TimelinePoint(
                    date=date,
                    frequency=frequency,
                    average_sentiment=weighted_sentiment,
                    negative_share=weighted_negative,
                )
            )
        return KeywordUsage(
            keyword=keyword,
            perturbations=tuple(perturbations),
            total_posts=sum(usage.total_posts for usage in usages),
            perturbed_posts=sum(usage.perturbed_posts for usage in usages),
            timeline=tuple(merged_timeline),
            per_perturbation_counts=per_perturbation,
        )

    # ------------------------------------------------------------------ #
    def keyword_enrichment_comparison(
        self, keyword: str, since: str | None = None, until: str | None = None
    ) -> dict[str, object]:
        """The §III-B use-case numbers for one keyword.

        Returns the negative-sentiment share of posts matched by the plain
        keyword versus by the keyword plus its perturbations, together with
        the match counts — the exact comparison behind "67% ... vs 87%".
        """
        plain = self.platform.search(keyword, since=since, until=until)
        perturbations = self.expand_keyword(keyword)
        enriched = self.platform.search(
            (keyword, *perturbations), since=since, until=until
        )
        plain_share = self.sentiment.negative_share(list(plain.texts))
        enriched_share = self.sentiment.negative_share(list(enriched.texts))
        return {
            "keyword": keyword,
            "num_perturbations": len(perturbations),
            "plain_matches": len(plain),
            "enriched_matches": len(enriched),
            "plain_negative_share": plain_share,
            "enriched_negative_share": enriched_share,
            "negative_share_gain": enriched_share - plain_share,
        }


class MultiPlatformListener:
    """Social Listening across several platforms at once.

    The deployed system only listens to Reddit and names multi-platform
    support as future work (paper §IV); this listener implements it by
    fanning a keyword out to one :class:`SocialListener` per platform and
    merging the per-platform reports.

    Parameters
    ----------
    platforms:
        Platforms to monitor.
    lookup:
        Shared Look Up engine (one dictionary serves every platform).
    sentiment:
        Shared sentiment analyzer.
    max_perturbations:
        Per-keyword cap forwarded to each underlying listener.
    """

    def __init__(
        self,
        platforms: Sequence[SocialPlatform],
        lookup: LookupEngine,
        sentiment: SentimentAnalyzer | None = None,
        max_perturbations: int = 25,
    ) -> None:
        if not platforms:
            raise PlatformError("at least one platform is required")
        names = [platform.name for platform in platforms]
        if len(set(names)) != len(names):
            raise PlatformError(f"platform names must be unique, got {names}")
        shared_sentiment = sentiment if sentiment is not None else SentimentAnalyzer()
        self.listeners: dict[str, SocialListener] = {
            platform.name: SocialListener(
                platform=platform,
                lookup=lookup,
                sentiment=shared_sentiment,
                max_perturbations=max_perturbations,
            )
            for platform in platforms
        }

    @property
    def platform_names(self) -> tuple[str, ...]:
        """Names of the monitored platforms."""
        return tuple(sorted(self.listeners))

    def monitor_keyword(
        self,
        keyword: str,
        since: str | None = None,
        until: str | None = None,
    ) -> dict[str, KeywordUsage]:
        """Per-platform usage reports plus a merged cross-platform view.

        The returned mapping has one entry per platform plus the key
        ``"all"`` holding the merged report.
        """
        per_platform = {
            name: listener.monitor_keyword(keyword, since=since, until=until)
            for name, listener in sorted(self.listeners.items())
        }
        reference = next(iter(self.listeners.values()))
        merged = reference.merge_usage(list(per_platform.values()))
        return {**per_platform, "all": merged}

    def monitor_keywords(
        self,
        keywords: Sequence[str],
        since: str | None = None,
        until: str | None = None,
    ) -> dict[str, dict[str, KeywordUsage]]:
        """Monitor several keywords across every platform."""
        return {
            keyword: self.monitor_keyword(keyword, since=since, until=until)
            for keyword in keywords
        }
