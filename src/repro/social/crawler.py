"""Stream crawler: continual enrichment of the perturbation dictionary.

Paper §III-F / §IV: "we set up a crawler that regularly collects recent
tweets (via Twitter's public stream API) to continually enrich CrypText's
database with novel perturbed tokens online", so the system is "constantly
learning new perturbations".

:class:`StreamCrawler` reproduces that loop against a simulated platform:
each :meth:`crawl_once` pulls one batch from the platform stream, feeds every
post text into the dictionary, and reports how many new raw tokens and new
phonetic keys appeared — the statistic behind the ``db_stats`` growth
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.dictionary import PerturbationDictionary
from ..errors import CrawlerError
from .platform import SocialPlatform

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..wal.maintenance import MaintenanceScheduler


@dataclass(frozen=True)
class CrawlReport:
    """Summary of one crawl round."""

    round_index: int
    posts_processed: int
    tokens_seen: int
    new_tokens: int
    new_keys: int
    dictionary_size: int
    unique_keys: int

    def to_dict(self) -> dict[str, object]:
        """Serialize for the growth benchmark and monitoring exports."""
        return {
            "round_index": self.round_index,
            "posts_processed": self.posts_processed,
            "tokens_seen": self.tokens_seen,
            "new_tokens": self.new_tokens,
            "new_keys": self.new_keys,
            "dictionary_size": self.dictionary_size,
            "unique_keys": self.unique_keys,
        }


class StreamCrawler:
    """Pulls platform stream batches into the perturbation dictionary.

    Each round is one :meth:`~PerturbationDictionary.add_corpus` write.
    Every cache built on the dictionary observes it, so a round drops
    exactly the cached queries whose sound buckets it changed.

    Parameters
    ----------
    platform:
        The platform to crawl.
    dictionary:
        The dictionary to enrich.
    batch_size:
        Posts per crawl round.
    source_label:
        Source tag recorded on every dictionary entry added by this crawler.
    scheduler:
        Optional :class:`~repro.wal.maintenance.MaintenanceScheduler`.
        When present, every crawl round ends with a cooperative
        :meth:`~repro.wal.maintenance.MaintenanceScheduler.tick`, so a
        long-running enrichment loop periodically persists its warm state
        (incremental snapshot + WAL upkeep) without a background thread —
        the auto-save hook.
    """

    def __init__(
        self,
        platform: SocialPlatform,
        dictionary: PerturbationDictionary,
        batch_size: int = 200,
        source_label: str | None = None,
        scheduler: "MaintenanceScheduler | None" = None,
    ) -> None:
        if batch_size < 1:
            raise CrawlerError(f"batch_size must be >= 1, got {batch_size}")
        self.platform = platform
        self.dictionary = dictionary
        self.batch_size = batch_size
        self.source_label = source_label or f"{platform.name}_stream"
        if scheduler is not None and scheduler.dictionary is not dictionary:
            raise CrawlerError("scheduler must maintain the same dictionary")
        self.scheduler = scheduler
        self._cursor = 0
        self._rounds = 0
        self.history: list[CrawlReport] = []

    @property
    def cursor(self) -> int:
        """Last consumed ``post_id``."""
        return self._cursor

    @property
    def rounds_completed(self) -> int:
        """Number of crawl rounds executed so far."""
        return self._rounds

    # ------------------------------------------------------------------ #
    def crawl_once(self) -> CrawlReport | None:
        """Consume one batch from the stream; ``None`` when it is exhausted."""
        stream = self.platform.stream(
            batch_size=self.batch_size, after_post_id=self._cursor
        )
        try:
            batch = next(stream)
        except StopIteration:
            # An exhausted stream still persists what the previous rounds
            # ingested — a crawl that ends exactly on a batch boundary must
            # not leave its last rounds only in the WAL longer than a
            # snapshot interval.
            if self.scheduler is not None:
                self.scheduler.tick()
            return None
        stats_before = self.dictionary.stats()
        level = self.dictionary.config.phonetic_level
        tokens_seen = self.dictionary.add_corpus(
            (str(post["text"]) for post in batch), source=self.source_label
        )
        stats_after = self.dictionary.stats()
        self._cursor = int(batch[-1]["post_id"])
        self._rounds += 1
        report = CrawlReport(
            round_index=self._rounds,
            posts_processed=len(batch),
            tokens_seen=tokens_seen,
            new_tokens=stats_after.total_tokens - stats_before.total_tokens,
            new_keys=stats_after.unique_keys[level] - stats_before.unique_keys[level],
            dictionary_size=stats_after.total_tokens,
            unique_keys=stats_after.unique_keys[level],
        )
        self.history.append(report)
        if self.scheduler is not None:
            # Cooperative auto-save: a cheap no-op until the configured
            # interval elapses, then an incremental snapshot refresh.
            self.scheduler.tick()
        return report

    def crawl_all(self, max_rounds: int | None = None) -> list[CrawlReport]:
        """Crawl until the stream is exhausted (or ``max_rounds`` reached)."""
        reports: list[CrawlReport] = []
        while max_rounds is None or len(reports) < max_rounds:
            report = self.crawl_once()
            if report is None:
                break
            reports.append(report)
        return reports
