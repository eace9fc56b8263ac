"""Configuration objects for the CrypText reproduction.

The paper exposes two user-facing hyper-parameters:

* the *phonetic level* ``k`` — the number of extra leading characters
  (beyond the first) that the customized Soundex encoding keeps verbatim;
  the paper stores hash-maps ``H_k`` for ``k <= 2`` and defaults the
  interactive functions to ``k = 1``;
* the *edit-distance bound* ``d`` — the maximum Levenshtein distance
  between a perturbation and its original word for the pair to satisfy the
  SMS ("same Sound, same Meaning, different Spelling") property; the paper
  defaults to ``d = 3``.

The perturbation function additionally takes a *manipulation ratio* ``r``
(the paper demonstrates 15%, 25% and 50%).

:class:`CrypTextConfig` gathers these together with the operational knobs of
the architecture (cache TTL/size, crawler batch size, RNG seed) so that every
component of the system can be constructed from a single validated object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .errors import ConfigurationError

#: The phonetic levels for which the paper materializes hash-maps ``H_k``.
SUPPORTED_PHONETIC_LEVELS: tuple[int, ...] = (0, 1, 2)

#: Default phonetic level used by Look Up / Normalization (paper §III-B).
DEFAULT_PHONETIC_LEVEL: int = 1

#: Default Levenshtein bound used by Look Up / Normalization (paper §III-B).
DEFAULT_EDIT_DISTANCE: int = 3

#: Manipulation ratios showcased by the paper's Perturbation function.
DEFAULT_PERTURBATION_RATIOS: tuple[float, ...] = (0.15, 0.25, 0.50)

#: Legal values of :attr:`CrypTextConfig.degraded_read_policy` — what the
#: replica set does when every follower is stale, broken, or circuit-open.
DEGRADED_READ_POLICIES: tuple[str, ...] = ("leader", "stale", "fail_fast")

#: Legal values of :attr:`CrypTextConfig.match_kernel` — mirrors
#: ``repro.core.kernels.MATCH_KERNELS`` (declared here too so config stays
#: importable without the core package; a test asserts they agree).
MATCH_KERNEL_POLICIES: tuple[str, ...] = ("auto", "myers", "banded", "symspell")


@dataclass(frozen=True)
class CrypTextConfig:
    """Validated bundle of every tunable used across the system.

    Parameters
    ----------
    phonetic_level:
        The ``k`` parameter of the customized Soundex encoding.  Must be one
        of :data:`SUPPORTED_PHONETIC_LEVELS`.
    edit_distance:
        The ``d`` parameter bounding the Levenshtein distance of the SMS
        property.  Must be a non-negative integer.
    use_transpositions:
        Count an adjacent transposition ("teh" for "the") as a single edit
        (optimal-string-alignment / Damerau distance) instead of two.  This
        is the one distance-policy switch consumed identically by Look Up,
        the SMS check, and Normalization candidate retrieval — with it off a
        ``d = 1`` Normalization would silently drop exactly the swap
        perturbations an ``SMSCheck(use_transpositions=True)`` certifies.
    max_phonetic_level:
        The largest ``k`` for which the dictionary materializes a hash-map
        ``H_k`` (the paper stores all ``k <= 2``).
    perturbation_ratio:
        Default manipulation ratio ``r`` used by the Perturbation function.
    case_sensitive:
        Whether the Perturbation function samples case-sensitive
        perturbations (the paper supports both modes).
    cache_enabled / cache_ttl_seconds / cache_max_entries:
        Knobs of the Redis-style query cache.
    compiled_buckets:
        Serve Look Up matching from trie-compiled sound buckets
        (:mod:`repro.core.matcher`) instead of a per-entry bounded
        Levenshtein scan.  Results are identical either way; disabling
        falls back to the linear path (debugging / memory-constrained
        deployments).
    match_kernel:
        Which compiled-bucket inner loop serves matches
        (:mod:`repro.core.kernels`): ``"auto"`` (the default) picks the
        benchmark-measured winner per (bucket size, distance bound);
        ``"myers"`` forces the bit-parallel traversal, ``"banded"`` the
        PR 2/3 DP rows, ``"symspell"`` the delete-neighborhood index.
        Results are byte-identical across kernels — ineligible selections
        (transpositions under ``myers``, ``d > 2`` under ``symspell``)
        degrade to an eligible kernel rather than erroring.
    snapshot_shards:
        Number of shard files the v2 snapshot layout splits the dictionary
        across (``dictionary.snapshot.d/shard-NN.bin``).  ``0`` (the
        default) keeps the v1 single-file JSON snapshot; any positive count
        writes the memory-mappable sharded layout, which followers hydrate
        lazily via ``mmap`` and share page-cache-resident.
    snapshot_dir:
        Default directory for warm-start snapshots
        (:mod:`repro.storage.snapshot`): ``save_snapshot()`` /
        ``load_snapshot()`` calls without an explicit path read and write
        ``dictionary.snapshot.json`` here.  ``None`` (the default) means
        snapshot operations require an explicit path.
    snapshot_on_save:
        When persisting a dictionary (the CLI ``build`` command, service
        admin saves), also write the warm-start snapshot alongside the
        JSONL dump so the next process start skips trie recompilation.
    wal_dir:
        Default directory for the segmented change log
        (:mod:`repro.wal.log`).  ``None`` (the default) means no WAL is
        opened implicitly; durability entry points
        (``PerturbationDictionary.recover``, the maintenance scheduler, the
        CLI ``wal`` commands) require an explicit directory instead.
    wal_segment_bytes:
        Size at which the change log rotates to a fresh segment file.
        Smaller segments mean finer-grained truncation after snapshots at
        the cost of more files.
    snapshot_autosave_interval:
        Seconds between automatic snapshot refreshes performed by the
        :class:`~repro.wal.maintenance.MaintenanceScheduler` (the crawler /
        listener auto-save hook).  ``None`` (the default) defers to the
        scheduler's own default interval; to disable interval-driven saves
        entirely, construct the scheduler with an explicit
        ``MaintenancePolicy(autosave_interval=None)``.
    wal_fsync_batch:
        Group-commit width for the change log: ``os.fsync`` once every N
        appends instead of never (``0``, the default) or every append
        (``ChangeLog(fsync=True)``).  A crash between batch syncs loses at
        most the unsynced suffix — the log can never decode with an
        interior gap.
    wal_superseded_retention:
        Seconds a sidelined ``*.seg.superseded`` journal is kept for
        operator salvage before maintenance garbage-collects it.  ``None``
        disables the GC entirely; the default keeps one week.
    replica_poll_interval:
        Seconds between WAL-tail polls of a follower replica
        (:class:`~repro.replication.Follower`).
    max_staleness_seconds:
        Staleness bound for replicated reads: a follower that has not
        caught up to the leader within this many seconds is excluded from
        read routing (the :class:`~repro.replication.ReplicaSet` falls back
        to fresher followers or the leader itself).
    degraded_read_policy:
        What replicated reads do when *no* follower is eligible (all stale,
        erroring, or circuit-open).  ``"leader"`` (the default) falls back
        to the leader; ``"stale"`` serves the least-stale hydrated follower
        and tags the response with an ``X-CrypText-Degraded: stale``
        warning header; ``"fail_fast"`` refuses with a 503 so load
        balancers can shed traffic to another cell.
    request_deadline_seconds:
        Per-request time budget applied by the async front and propagated
        through handler dispatch (:class:`~repro.resilience.Deadline`).
        Requests that outlive it answer 504.  ``None`` (the default)
        disables deadlines.
    retry_attempts / retry_base_delay:
        Transient-IO retry policy (exponential backoff + full jitter) used
        by follower WAL tailing.  ``retry_attempts=1`` disables retries.
    breaker_failure_threshold / breaker_recovery_seconds:
        Per-replica circuit breaker: consecutive failures that trip the
        breaker open, and seconds it stays open before admitting half-open
        probe reads.
    replica_catchup_batch:
        Backpressure bound on follower catch-up: at most this many WAL
        records are decoded and applied per poll, so a follower that is
        many segments behind re-hydrates in bounded slices (yielding its
        lock and the disk between slices) instead of starving the leader.
    obs_enabled:
        Arms the process-global observability registry (``repro.obs.OBS``)
        when the system is constructed: latency histograms, request traces,
        and the slow-query log start recording.  Off by default — the
        disarmed hot-path cost is a single attribute read (the same
        contract as fault injection).  ``CRYPTEXT_OBS=1`` arms it from the
        environment via the CLI / test bootstrap.
    slow_query_ms:
        Threshold (milliseconds) above which a traced request is captured
        in the ring-buffer slow-query log with its per-stage timings.
    crawler_batch_size:
        Number of posts ingested per crawl round when enriching the
        dictionary from the (simulated) social stream.
    normalizer_max_candidates:
        Upper bound on the number of candidate English words ranked by the
        coherency scorer per token during Normalization.
    lm_order:
        Order of the n-gram language model that substitutes the paper's
        masked language model ``G``.
    seed:
        Seed used by every stochastic component (perturbation sampling,
        synthetic data generation) for reproducibility.
    """

    phonetic_level: int = DEFAULT_PHONETIC_LEVEL
    edit_distance: int = DEFAULT_EDIT_DISTANCE
    use_transpositions: bool = False
    max_phonetic_level: int = 2
    perturbation_ratio: float = 0.25
    case_sensitive: bool = True
    cache_enabled: bool = True
    cache_ttl_seconds: float = 300.0
    cache_max_entries: int = 4096
    compiled_buckets: bool = True
    match_kernel: str = "auto"
    snapshot_shards: int = 0
    snapshot_dir: str | None = None
    snapshot_on_save: bool = False
    wal_dir: str | None = None
    wal_segment_bytes: int = 1 << 20
    snapshot_autosave_interval: float | None = None
    wal_fsync_batch: int = 0
    wal_superseded_retention: float | None = 604800.0
    replica_poll_interval: float = 0.5
    max_staleness_seconds: float = 5.0
    degraded_read_policy: str = "leader"
    request_deadline_seconds: float | None = None
    retry_attempts: int = 3
    retry_base_delay: float = 0.05
    breaker_failure_threshold: int = 5
    breaker_recovery_seconds: float = 30.0
    replica_catchup_batch: int = 4096
    obs_enabled: bool = False
    slow_query_ms: float = 250.0
    crawler_batch_size: int = 200
    normalizer_max_candidates: int = 10
    lm_order: int = 3
    seed: int = 20230116
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.phonetic_level not in SUPPORTED_PHONETIC_LEVELS:
            raise ConfigurationError(
                f"phonetic_level must be one of {SUPPORTED_PHONETIC_LEVELS}, "
                f"got {self.phonetic_level!r}"
            )
        if self.max_phonetic_level not in SUPPORTED_PHONETIC_LEVELS:
            raise ConfigurationError(
                f"max_phonetic_level must be one of {SUPPORTED_PHONETIC_LEVELS}, "
                f"got {self.max_phonetic_level!r}"
            )
        if self.phonetic_level > self.max_phonetic_level:
            raise ConfigurationError(
                "phonetic_level cannot exceed max_phonetic_level "
                f"({self.phonetic_level} > {self.max_phonetic_level})"
            )
        if not isinstance(self.edit_distance, int) or self.edit_distance < 0:
            raise ConfigurationError(
                f"edit_distance must be a non-negative integer, got {self.edit_distance!r}"
            )
        if not 0.0 <= self.perturbation_ratio <= 1.0:
            raise ConfigurationError(
                f"perturbation_ratio must lie in [0, 1], got {self.perturbation_ratio!r}"
            )
        if self.cache_ttl_seconds <= 0:
            raise ConfigurationError(
                f"cache_ttl_seconds must be positive, got {self.cache_ttl_seconds!r}"
            )
        if self.cache_max_entries <= 0:
            raise ConfigurationError(
                f"cache_max_entries must be positive, got {self.cache_max_entries!r}"
            )
        if self.match_kernel not in MATCH_KERNEL_POLICIES:
            raise ConfigurationError(
                f"match_kernel must be one of {MATCH_KERNEL_POLICIES}, "
                f"got {self.match_kernel!r}"
            )
        if not isinstance(self.snapshot_shards, int) or isinstance(
            self.snapshot_shards, bool
        ) or self.snapshot_shards < 0:
            raise ConfigurationError(
                f"snapshot_shards must be a non-negative integer, "
                f"got {self.snapshot_shards!r}"
            )
        if self.wal_segment_bytes <= 0:
            raise ConfigurationError(
                f"wal_segment_bytes must be positive, got {self.wal_segment_bytes!r}"
            )
        if (
            self.snapshot_autosave_interval is not None
            and self.snapshot_autosave_interval <= 0
        ):
            raise ConfigurationError(
                "snapshot_autosave_interval must be positive (or None), "
                f"got {self.snapshot_autosave_interval!r}"
            )
        if not isinstance(self.wal_fsync_batch, int) or self.wal_fsync_batch < 0:
            raise ConfigurationError(
                f"wal_fsync_batch must be a non-negative integer, "
                f"got {self.wal_fsync_batch!r}"
            )
        if (
            self.wal_superseded_retention is not None
            and self.wal_superseded_retention < 0
        ):
            raise ConfigurationError(
                "wal_superseded_retention must be >= 0 (or None), "
                f"got {self.wal_superseded_retention!r}"
            )
        if self.replica_poll_interval <= 0:
            raise ConfigurationError(
                f"replica_poll_interval must be positive, "
                f"got {self.replica_poll_interval!r}"
            )
        if self.max_staleness_seconds <= 0:
            raise ConfigurationError(
                f"max_staleness_seconds must be positive, "
                f"got {self.max_staleness_seconds!r}"
            )
        if self.degraded_read_policy not in DEGRADED_READ_POLICIES:
            raise ConfigurationError(
                f"degraded_read_policy must be one of {DEGRADED_READ_POLICIES}, "
                f"got {self.degraded_read_policy!r}"
            )
        if (
            self.request_deadline_seconds is not None
            and self.request_deadline_seconds <= 0
        ):
            raise ConfigurationError(
                "request_deadline_seconds must be positive (or None), "
                f"got {self.request_deadline_seconds!r}"
            )
        if not isinstance(self.retry_attempts, int) or self.retry_attempts < 1:
            raise ConfigurationError(
                f"retry_attempts must be an integer >= 1, got {self.retry_attempts!r}"
            )
        if self.retry_base_delay < 0:
            raise ConfigurationError(
                f"retry_base_delay must be >= 0, got {self.retry_base_delay!r}"
            )
        if (
            not isinstance(self.breaker_failure_threshold, int)
            or self.breaker_failure_threshold < 1
        ):
            raise ConfigurationError(
                "breaker_failure_threshold must be an integer >= 1, "
                f"got {self.breaker_failure_threshold!r}"
            )
        if self.breaker_recovery_seconds <= 0:
            raise ConfigurationError(
                "breaker_recovery_seconds must be positive, "
                f"got {self.breaker_recovery_seconds!r}"
            )
        if (
            not isinstance(self.replica_catchup_batch, int)
            or self.replica_catchup_batch < 1
        ):
            raise ConfigurationError(
                "replica_catchup_batch must be an integer >= 1, "
                f"got {self.replica_catchup_batch!r}"
            )
        if self.slow_query_ms <= 0:
            raise ConfigurationError(
                f"slow_query_ms must be positive, got {self.slow_query_ms!r}"
            )
        if self.crawler_batch_size <= 0:
            raise ConfigurationError(
                f"crawler_batch_size must be positive, got {self.crawler_batch_size!r}"
            )
        if self.normalizer_max_candidates <= 0:
            raise ConfigurationError(
                "normalizer_max_candidates must be positive, "
                f"got {self.normalizer_max_candidates!r}"
            )
        if self.lm_order < 1:
            raise ConfigurationError(f"lm_order must be >= 1, got {self.lm_order!r}")

    def with_overrides(self, **overrides: Any) -> "CrypTextConfig":
        """Return a copy of the configuration with ``overrides`` applied.

        The copy is re-validated, so an invalid override raises
        :class:`~repro.errors.ConfigurationError` immediately.
        """
        return replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        """Serialize the configuration to a plain dictionary."""
        return {
            "phonetic_level": self.phonetic_level,
            "edit_distance": self.edit_distance,
            "use_transpositions": self.use_transpositions,
            "max_phonetic_level": self.max_phonetic_level,
            "perturbation_ratio": self.perturbation_ratio,
            "case_sensitive": self.case_sensitive,
            "cache_enabled": self.cache_enabled,
            "cache_ttl_seconds": self.cache_ttl_seconds,
            "cache_max_entries": self.cache_max_entries,
            "compiled_buckets": self.compiled_buckets,
            "match_kernel": self.match_kernel,
            "snapshot_shards": self.snapshot_shards,
            "snapshot_dir": self.snapshot_dir,
            "snapshot_on_save": self.snapshot_on_save,
            "wal_dir": self.wal_dir,
            "wal_segment_bytes": self.wal_segment_bytes,
            "snapshot_autosave_interval": self.snapshot_autosave_interval,
            "wal_fsync_batch": self.wal_fsync_batch,
            "wal_superseded_retention": self.wal_superseded_retention,
            "replica_poll_interval": self.replica_poll_interval,
            "max_staleness_seconds": self.max_staleness_seconds,
            "degraded_read_policy": self.degraded_read_policy,
            "request_deadline_seconds": self.request_deadline_seconds,
            "retry_attempts": self.retry_attempts,
            "retry_base_delay": self.retry_base_delay,
            "breaker_failure_threshold": self.breaker_failure_threshold,
            "breaker_recovery_seconds": self.breaker_recovery_seconds,
            "replica_catchup_batch": self.replica_catchup_batch,
            "obs_enabled": self.obs_enabled,
            "slow_query_ms": self.slow_query_ms,
            "crawler_batch_size": self.crawler_batch_size,
            "normalizer_max_candidates": self.normalizer_max_candidates,
            "lm_order": self.lm_order,
            "seed": self.seed,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CrypTextConfig":
        """Build a configuration from :meth:`to_dict` output.

        Unknown keys are collected under :attr:`extra` instead of raising, so
        configurations serialized by newer versions remain loadable.
        """
        known = {
            "phonetic_level",
            "edit_distance",
            "use_transpositions",
            "max_phonetic_level",
            "perturbation_ratio",
            "case_sensitive",
            "cache_enabled",
            "cache_ttl_seconds",
            "cache_max_entries",
            "compiled_buckets",
            "match_kernel",
            "snapshot_shards",
            "snapshot_dir",
            "snapshot_on_save",
            "wal_dir",
            "wal_segment_bytes",
            "snapshot_autosave_interval",
            "wal_fsync_batch",
            "wal_superseded_retention",
            "replica_poll_interval",
            "max_staleness_seconds",
            "degraded_read_policy",
            "request_deadline_seconds",
            "retry_attempts",
            "retry_base_delay",
            "breaker_failure_threshold",
            "breaker_recovery_seconds",
            "replica_catchup_batch",
            "obs_enabled",
            "slow_query_ms",
            "crawler_batch_size",
            "normalizer_max_candidates",
            "lm_order",
            "seed",
        }
        kwargs: dict[str, Any] = {}
        extra: dict[str, Any] = {}
        for key, value in payload.items():
            if key == "extra":
                extra.update(dict(value))
            elif key in known:
                kwargs[key] = value
            else:
                extra[key] = value
        return cls(extra=extra, **kwargs)


#: A module-level default configuration mirroring the paper's defaults.
DEFAULT_CONFIG = CrypTextConfig()
