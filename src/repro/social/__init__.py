"""Simulated social platforms, the stream crawler, and Social Listening.

The original CrypText monitors Reddit through the PushShift API and enriches
its database from Twitter's public stream (paper §III-E/F).  Neither service
is reachable offline, so this subpackage simulates them:

* :class:`repro.social.SocialPlatform` — an in-process platform holding
  posts in a list with a token index and exposing the two operations
  CrypText uses: keyword **search** (PushShift-style, with date filtering)
  and a chronological **stream** (Twitter-style) for the crawler;
* :class:`repro.social.StreamCrawler` — the background crawler that pulls
  batches from a platform stream and feeds newly observed tokens into the
  perturbation dictionary;
* :class:`repro.social.SocialListener` — the Social Listening function:
  expand keywords with their perturbations, search the platform, and
  aggregate per-day frequency and sentiment timelines;
* :class:`repro.social.MultiPlatformListener` — the paper's stated future
  work: the same monitoring fanned out across several platforms and merged;
* :class:`repro.social.ModerationPipeline` — the content-moderation use
  case: catch abusive posts whose perturbations evade a toxicity model.
"""

from .platform import SearchResult, SocialPlatform
from .crawler import CrawlReport, StreamCrawler
from .listening import (
    KeywordUsage,
    MultiPlatformListener,
    SocialListener,
    TimelinePoint,
)
from .moderation import ModerationPipeline, ModerationReport, ModerationVerdict

__all__ = [
    "SocialPlatform",
    "SearchResult",
    "StreamCrawler",
    "CrawlReport",
    "SocialListener",
    "MultiPlatformListener",
    "KeywordUsage",
    "TimelinePoint",
    "ModerationPipeline",
    "ModerationReport",
    "ModerationVerdict",
]
