"""Exception hierarchy for the CrypText reproduction.

Every error raised by :mod:`repro` derives from :class:`CrypTextError` so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems, storage problems,
API-layer problems, and data problems.
"""

from __future__ import annotations


class CrypTextError(Exception):
    """Base class for every error raised by the library."""


class ConfigurationError(CrypTextError):
    """Raised when a configuration value is out of its legal range."""


class TokenizationError(CrypTextError):
    """Raised when an input text cannot be tokenized."""


class EncodingError(CrypTextError):
    """Raised when a token cannot be phonetically encoded."""


class DictionaryError(CrypTextError):
    """Raised on invalid operations against the perturbation dictionary."""


class StorageError(CrypTextError):
    """Base class for persistence and cache failures."""


class PersistenceError(StorageError):
    """Raised when reading or writing a file on disk fails."""


class SnapshotError(PersistenceError):
    """Raised when a warm-start snapshot is missing, corrupt, or incompatible.

    Loaders that were asked for a *graceful* load catch this and fall back
    to recompilation; strict loaders let it propagate.
    """


class WalError(PersistenceError):
    """Raised when the segmented change log is misused or unreadable.

    A torn tail (a record cut short by a crash mid-append) is *not* an
    error — replay stops cleanly before it — so this is reserved for real
    misuse: appending to a closed log, an unwritable directory, or a
    segment whose interior (not tail) fails its checksum.
    """


class CacheError(StorageError):
    """Raised on invalid cache configuration or usage."""


class LanguageModelError(CrypTextError):
    """Raised when the language model is asked to score before training."""


class ClassifierError(CrypTextError):
    """Raised when a classifier is used before it has been fitted."""


class PlatformError(CrypTextError):
    """Raised on invalid operations against the simulated social platform."""


class CrawlerError(CrypTextError):
    """Raised when the stream crawler is misconfigured."""


class AuthenticationError(CrypTextError):
    """Raised when an API request carries a missing or invalid token."""


class AuthorizationError(CrypTextError):
    """Raised when an authenticated principal lacks the required scope."""


class RateLimitExceededError(CrypTextError):
    """Raised when a client exceeds its API rate limit."""


class ServiceError(CrypTextError):
    """Raised for malformed requests against the in-process service layer."""


class ResilienceError(CrypTextError):
    """Base class for the resilience subsystem (faults, policies, supervision)."""


class InjectedFault(ResilienceError):
    """A deliberately injected failure from the fault registry.

    Raised by an armed :class:`~repro.resilience.faults.FaultInjector` point;
    never seen in production (the registry ships disarmed).  Chaos tests
    assert the system degrades exactly as it would for the organic failure
    the injection simulates.
    """


class InjectedIOError(InjectedFault, OSError):
    """An injected fault that presents as an I/O error.

    Derives from :class:`OSError` so the *existing* transient-IO handling
    (WAL append rollback, tailer read retries) exercises its real error
    path — the injection is indistinguishable from a failing disk at the
    point of the fault.
    """


class TornWrite(InjectedFault):
    """An injected torn write: persist a partial frame, then die.

    Cooperative fault points (the WAL append, the snapshot envelope writer)
    catch this, write ``keep_bytes`` of the payload they were about to
    persist, and then fail as if the process crashed mid-write — producing
    exactly the on-disk state torn-tail repair and checksum validation
    exist to survive.
    """

    def __init__(self, keep_bytes: "int | None" = None) -> None:
        super().__init__(f"injected torn write (keep_bytes={keep_bytes})")
        self.keep_bytes = keep_bytes


class DeadlineExceededError(CrypTextError):
    """Raised when a request outlives its propagated deadline."""


class CircuitOpenError(ResilienceError):
    """Raised when a call is refused because its circuit breaker is open."""


class ReplicasUnavailableError(CrypTextError):
    """Raised under the fail-fast degradation policy when no replica is healthy.

    The service layer maps this to a 503: every follower is stale, broken,
    or circuit-open, and the configured ``degraded_read_policy`` forbids
    both serving stale data and falling back to the leader.
    """


class DatasetError(CrypTextError):
    """Raised when a synthetic dataset builder receives invalid parameters."""


class VisualizationError(CrypTextError):
    """Raised when a visualization export receives inconsistent data."""
