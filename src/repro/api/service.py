"""In-process service layer: the bulk Look Up / Normalize / Perturb endpoints.

:class:`CrypTextService` is the library equivalent of the Django/FastAPI
back end in Figure 5: every endpoint takes and returns plain dictionaries
(what a JSON HTTP layer would serialize) and enforces token authentication
and per-client rate limits.  The Redis-style cache sits below it: Look Up
answers come from the lookup engine's query cache of the system serving the
read, so this layer keeps no cache of its own.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from ..core.pipeline import CrypText
from ..obs.adapters import service_samples
from ..obs.expose import render_text
from ..obs.registry import OBS
from ..errors import (
    AuthenticationError,
    AuthorizationError,
    CrypTextError,
    DeadlineExceededError,
    RateLimitExceededError,
    ReplicasUnavailableError,
    ServiceError,
)
from ..resilience.policies import check_deadline
from ..social.listening import SocialListener
from ..social.platform import SocialPlatform
from .auth import ApiToken, TokenAuthenticator
from .ratelimit import RateLimiter

T = TypeVar("T")


@dataclass(frozen=True)
class ServiceResponse:
    """Envelope every endpoint returns.

    ``headers`` carries response-level metadata an HTTP front should emit
    verbatim — today the degradation warning (``X-CrypText-Degraded:
    stale``) attached when the stale read policy served an out-of-bound
    replica.  Empty for ordinary responses.
    """

    status: int
    body: dict[str, object]
    headers: dict[str, str] = field(default_factory=dict)
    #: When set, an HTTP front serves this raw text (with the exposition
    #: content type) instead of JSON-encoding ``body`` — the Prometheus
    #: scrape path.  ``body`` still carries a JSON view for sync callers.
    text: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the request succeeded."""
        return 200 <= self.status < 300

    def to_dict(self) -> dict[str, object]:
        """Serialize the full envelope."""
        payload: dict[str, object] = {"status": self.status, "body": dict(self.body)}
        if self.headers:
            payload["headers"] = dict(self.headers)
        return payload


@dataclass(frozen=True)
class CompiledCacheStats:
    """Structured view of the compiled-bucket LRU counters.

    What ``/v1/stats`` dashboards consume instead of the raw dictionary:
    explicit hit/miss/eviction/invalidation fields plus a derived hit rate,
    with the trie-family sharing counters kept as a nested block.
    """

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int
    families: dict[str, object]

    @classmethod
    def from_raw(cls, raw: dict[str, object]) -> "CompiledCacheStats":
        """Build from :meth:`PerturbationDictionary.compiled_cache_stats` output."""
        return cls(
            hits=int(raw.get("hits", 0)),  # type: ignore[arg-type]
            misses=int(raw.get("misses", 0)),  # type: ignore[arg-type]
            evictions=int(raw.get("evictions", 0)),  # type: ignore[arg-type]
            invalidations=int(raw.get("invalidations", 0)),  # type: ignore[arg-type]
            size=int(raw.get("size", 0)),  # type: ignore[arg-type]
            capacity=int(raw.get("capacity", 0)),  # type: ignore[arg-type]
            families=dict(raw.get("families", {})),  # type: ignore[arg-type]
        )

    @property
    def hit_rate(self) -> float:
        """Hits over total probes (0.0 when the cache was never probed)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, object]:
        """Serialize for the stats endpoint."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "size": self.size,
            "capacity": self.capacity,
            "families": dict(self.families),
        }


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer (``bool`` is an ``int`` subclass, not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_optional_bool(name: str, value: object) -> None:
    """Reject an optional flag that is neither a boolean nor ``None``."""
    if value is not None and not isinstance(value, bool):
        raise ServiceError(f"{name} must be a boolean or null, got {value!r}")


def _iso_date_or_none(name: str, value: object) -> str | None:
    """The ``YYYY-MM-DD`` form of an optional date bound.

    The bound must be null or a string :meth:`datetime.date.fromisoformat`
    accepts.
    """
    if value is None:
        return None
    try:
        return datetime.date.fromisoformat(value).isoformat()  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ServiceError(
            f"{name} must be an ISO date string or null, got {value!r}"
        ) from None


def _traced(route: str):
    """Trace an endpoint method under ``OBS.request(route)`` when armed.

    Disarmed requests pay one attribute read.  When the asyncio front
    already opened a trace for this request, ``OBS.request`` yields that
    trace instead of opening a second root, so each request is counted
    exactly once no matter how many fronts it crossed.
    """

    def wrap(method):
        @functools.wraps(method)
        def inner(self, *args, **kwargs):
            if not OBS.armed:
                return method(self, *args, **kwargs)
            with OBS.request(route) as trace:
                response = method(self, *args, **kwargs)
                trace.status = response.status
                return response

        return inner

    return wrap


class CrypTextService:
    """Token-authorized facade over a :class:`~repro.core.pipeline.CrypText`.

    Parameters
    ----------
    cryptext:
        The system instance to expose.
    authenticator:
        Token registry (a private one is created when omitted; use
        :meth:`issue_token` to mint credentials).
    rate_limiter:
        Per-client limiter (default 120 requests / 60 s).
    platform:
        Optional platform bound to the ``listen`` endpoint.
    max_batch_size:
        Upper bound on the classic bulk request sizes.
    max_bulk_batch_size:
        Upper bound on the high-throughput ``/v1/batch/*`` request sizes
        (served by the batch engine, so the limit can be much higher).
    replica_set:
        Optional :class:`~repro.replication.ReplicaSet`; when bound, read
        endpoints (lookup / normalize and their batch variants) are routed
        across the follower replicas inside the staleness bound instead of
        always hitting the leader.  Write and admin endpoints stay pinned
        to the leader regardless.
    """

    def __init__(
        self,
        cryptext: CrypText,
        authenticator: TokenAuthenticator | None = None,
        rate_limiter: RateLimiter | None = None,
        platform: SocialPlatform | None = None,
        max_batch_size: int = 256,
        max_bulk_batch_size: int = 4096,
        scheduler=None,
        replica_set=None,
    ) -> None:
        if max_batch_size < 1:
            raise ServiceError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_bulk_batch_size < max_batch_size:
            raise ServiceError(
                "max_bulk_batch_size must be >= max_batch_size "
                f"({max_bulk_batch_size} < {max_batch_size})"
            )
        self.cryptext = cryptext
        self.authenticator = authenticator if authenticator is not None else TokenAuthenticator()
        self.rate_limiter = rate_limiter if rate_limiter is not None else RateLimiter(
            max_requests=120, window_seconds=60.0
        )
        self.platform = platform
        self.max_batch_size = max_batch_size
        self.max_bulk_batch_size = max_bulk_batch_size
        #: Optional maintenance scheduler behind ``/v1/admin/maintenance``
        #: and the ``maintenance`` section of ``/v1/stats``.
        self.scheduler = scheduler
        #: Optional replica set routing the read endpoints.
        self.replica_set = replica_set
        self._listener: SocialListener | None = None

    # ------------------------------------------------------------------ #
    # administration
    # ------------------------------------------------------------------ #
    def issue_token(
        self, client: str, scopes: frozenset[str] | set[str] | None = None
    ) -> ApiToken:
        """Mint an API token (the paper's "provided upon request")."""
        return self.authenticator.issue(client, scopes)

    def bind_platform(self, platform: SocialPlatform) -> None:
        """Attach (or replace) the platform used by the ``listen`` endpoint."""
        self.platform = platform
        self._listener = None

    def _listener_or_error(self) -> SocialListener:
        if self.platform is None:
            raise ServiceError("no platform is bound; call bind_platform() first")
        if self._listener is None:
            self._listener = self.cryptext.social_listener(self.platform)
        return self._listener

    # ------------------------------------------------------------------ #
    # request plumbing
    # ------------------------------------------------------------------ #
    def _guard(self, token: str | None, scope: str) -> ServiceResponse | str:
        """Authenticate, authorize and rate-limit; returns client or an error response."""
        try:
            check_deadline("request")
        except DeadlineExceededError as exc:
            return ServiceResponse(status=504, body={"error": str(exc)})
        try:
            client = self.authenticator.authorize(token, scope)
        except AuthenticationError as exc:
            return ServiceResponse(status=401, body={"error": str(exc)})
        except AuthorizationError as exc:
            return ServiceResponse(status=403, body={"error": str(exc)})
        try:
            self.rate_limiter.check(client)
        except RateLimitExceededError as exc:
            return ServiceResponse(status=429, body={"error": str(exc)})
        return client

    @staticmethod
    def _validate_batch(items: Sequence[str], maximum: int, what: str) -> None:
        # A JSON string would otherwise pass as a batch of its characters.
        if not isinstance(items, (list, tuple)):
            raise ServiceError(f"{what} must be a list of strings")
        if not items:
            raise ServiceError(f"{what} must not be empty")
        if len(items) > maximum:
            raise ServiceError(
                f"{what} exceeds the maximum batch size of {maximum} "
                f"(got {len(items)})"
            )
        if any(not isinstance(item, str) for item in items):
            raise ServiceError(f"every element of {what} must be a string")

    @staticmethod
    def _validate_lookup_options(
        phonetic_level: int | None,
        max_edit_distance: int | None,
        case_sensitive: bool,
        use_transpositions: bool | None,
    ) -> None:
        """Type-check a Look Up request's overrides.

        JSON ``true`` is not a level or a distance, and a truthy string is
        not a flag.  Each such spelling would also get its own query-cache
        key.  The ``d`` override obeys ``CrypTextConfig.edit_distance``'s
        rule.
        """
        if phonetic_level is not None and not _is_int(phonetic_level):
            raise ServiceError(
                f"phonetic_level must be an integer, got {phonetic_level!r}"
            )
        if max_edit_distance is not None and not (
            _is_int(max_edit_distance) and max_edit_distance >= 0
        ):
            raise ServiceError(
                "max_edit_distance must be a non-negative integer, "
                f"got {max_edit_distance!r}"
            )
        if not isinstance(case_sensitive, bool):
            raise ServiceError(
                f"case_sensitive must be a boolean, got {case_sensitive!r}"
            )
        _validate_optional_bool("use_transpositions", use_transpositions)

    def _replicated(self, compute: Callable[[CrypText], T]) -> tuple[T, dict[str, str]]:
        """Run one read through the replica set (breaker accounting, leader
        failover, degradation policy) and return ``(value, headers)``.

        Raises :class:`ReplicasUnavailableError` (fail-fast policy) or
        :class:`DeadlineExceededError`; endpoints map them via
        :meth:`_degraded_error`.
        """
        if self.replica_set is None:
            check_deadline("read")
            return compute(self.cryptext), {}
        outcome = self.replica_set.execute(compute)
        headers = (
            {"X-CrypText-Degraded": "stale"} if outcome.degraded == "stale" else {}
        )
        return outcome.result, headers  # type: ignore[return-value]

    @staticmethod
    def _degraded_error(exc: CrypTextError) -> ServiceResponse:
        """503 for no-healthy-replica fail-fast, 504 for a blown deadline."""
        status = 503 if isinstance(exc, ReplicasUnavailableError) else 504
        return ServiceResponse(status=status, body={"error": str(exc)})

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    @_traced("/v1/lookup")
    def lookup(
        self,
        token: str | None,
        queries: Sequence[str],
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        use_transpositions: bool | None = None,
    ) -> ServiceResponse:
        """Bulk Look Up endpoint — the ``/v1/lookup`` route.

        ``use_transpositions`` is the request-level distance-policy
        override: ``true`` scores adjacent swaps as one edit for this
        request only, ``false`` forces plain Levenshtein, omitted/``null``
        keeps the server's configured policy.  Each answer comes from the
        query cache of the system serving the read, whose key carries the
        resolved policy, so differently-policied queries never share an
        answer.
        """
        guard = self._guard(token, "lookup")
        if isinstance(guard, ServiceResponse):
            return guard
        try:
            self._validate_batch(queries, self.max_batch_size, "queries")
            self._validate_lookup_options(
                phonetic_level, max_edit_distance, case_sensitive, use_transpositions
            )
        except ServiceError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        try:
            results, headers = self._replicated(
                lambda system: {
                    query: system.look_up(
                        query,
                        phonetic_level=phonetic_level,
                        max_edit_distance=max_edit_distance,
                        case_sensitive=case_sensitive,
                        use_transpositions=use_transpositions,
                    ).to_dict()
                    for query in queries
                }
            )
        except (ReplicasUnavailableError, DeadlineExceededError) as exc:
            return self._degraded_error(exc)
        return ServiceResponse(status=200, body={"results": results}, headers=headers)

    @_traced("/v1/normalize")
    def normalize(self, token: str | None, texts: Sequence[str]) -> ServiceResponse:
        """Bulk Normalization endpoint."""
        guard = self._guard(token, "normalize")
        if isinstance(guard, ServiceResponse):
            return guard
        try:
            self._validate_batch(texts, self.max_batch_size, "texts")
        except ServiceError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        try:
            results, headers = self._replicated(
                lambda system: [system.normalize(text).to_dict() for text in texts]
            )
        except (ReplicasUnavailableError, DeadlineExceededError) as exc:
            return self._degraded_error(exc)
        return ServiceResponse(status=200, body={"results": results}, headers=headers)

    @_traced("/v1/perturb")
    def perturb(
        self,
        token: str | None,
        texts: Sequence[str],
        ratio: float | None = None,
        case_sensitive: bool | None = None,
    ) -> ServiceResponse:
        """Bulk Perturbation endpoint (not cached: sampling is stochastic)."""
        guard = self._guard(token, "perturb")
        if isinstance(guard, ServiceResponse):
            return guard
        try:
            self._validate_batch(texts, self.max_batch_size, "texts")
            if ratio is not None and not (
                isinstance(ratio, (int, float))
                and not isinstance(ratio, bool)
                and 0.0 <= ratio <= 1.0
            ):
                raise ServiceError(f"ratio must be a number in [0, 1], got {ratio!r}")
            _validate_optional_bool("case_sensitive", case_sensitive)
        except ServiceError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        results = [
            self.cryptext.perturb(text, ratio=ratio, case_sensitive=case_sensitive).to_dict()
            for text in texts
        ]
        return ServiceResponse(status=200, body={"results": results})

    @_traced("/v1/batch/lookup")
    def batch_lookup(
        self,
        token: str | None,
        queries: Sequence[str],
        phonetic_level: int | None = None,
        max_edit_distance: int | None = None,
        case_sensitive: bool = True,
        use_transpositions: bool | None = None,
    ) -> ServiceResponse:
        """High-throughput batch Look Up — the ``/v1/batch/lookup`` route.

        Unlike :meth:`lookup`, the response is an order-preserving list (one
        entry per query, duplicates included) served by the batch engine:
        each distinct query is resolved once, through the same Look Up and
        query cache that :meth:`lookup` reads.
        """
        guard = self._guard(token, "lookup")
        if isinstance(guard, ServiceResponse):
            return guard
        try:
            self._validate_batch(queries, self.max_bulk_batch_size, "queries")
            self._validate_lookup_options(
                phonetic_level, max_edit_distance, case_sensitive, use_transpositions
            )
        except ServiceError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        try:
            results, headers = self._replicated(
                lambda system: system.look_up_batch(
                    queries,
                    phonetic_level=phonetic_level,
                    max_edit_distance=max_edit_distance,
                    case_sensitive=case_sensitive,
                    use_transpositions=use_transpositions,
                )
            )
        except (ReplicasUnavailableError, DeadlineExceededError) as exc:
            return self._degraded_error(exc)
        return ServiceResponse(
            status=200,
            body={
                "count": len(results),
                "results": [result.to_dict() for result in results],
            },
            headers=headers,
        )

    @_traced("/v1/batch/normalize")
    def batch_normalize(self, token: str | None, texts: Sequence[str]) -> ServiceResponse:
        """High-throughput batch Normalization — the ``/v1/batch/normalize`` route.

        Order-preserving list response served by the batch engine (duplicate
        documents normalized once, per-token candidate retrieval memoized).
        """
        guard = self._guard(token, "normalize")
        if isinstance(guard, ServiceResponse):
            return guard
        try:
            self._validate_batch(texts, self.max_bulk_batch_size, "texts")
        except ServiceError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        try:
            results, headers = self._replicated(
                lambda system: system.normalize_batch(texts)
            )
        except (ReplicasUnavailableError, DeadlineExceededError) as exc:
            return self._degraded_error(exc)
        return ServiceResponse(
            status=200,
            body={
                "count": len(results),
                "results": [result.to_dict() for result in results],
            },
            headers=headers,
        )

    @_traced("/v1/listen")
    def listen(
        self,
        token: str | None,
        keywords: Sequence[str],
        since: str | None = None,
        until: str | None = None,
    ) -> ServiceResponse:
        """Social Listening endpoint."""
        guard = self._guard(token, "listen")
        if isinstance(guard, ServiceResponse):
            return guard
        try:
            self._validate_batch(keywords, self.max_batch_size, "keywords")
            since = _iso_date_or_none("since", since)
            until = _iso_date_or_none("until", until)
            listener = self._listener_or_error()
        except ServiceError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        usage = listener.monitor_keywords(keywords, since=since, until=until)
        return ServiceResponse(
            status=200,
            body={"results": {keyword: report.to_dict() for keyword, report in usage.items()}},
        )

    @_traced("/v1/stats")
    def stats(self, token: str | None) -> ServiceResponse:
        """Dictionary statistics endpoint — the ``/v1/stats`` route.

        Beyond the raw dictionary aggregates (``stats``), the body carries
        structured operational sections: ``compiled_cache`` (the
        trie-cache LRU counters with a derived hit rate —
        :class:`CompiledCacheStats`), ``recovery`` (the last crash-recovery
        outcome, when the dictionary was reconstructed via
        :meth:`~repro.core.dictionary.PerturbationDictionary.recover`), and
        ``maintenance`` (the scheduler's counters/due times, when one is
        bound).
        """
        guard = self._guard(token, "stats")
        if isinstance(guard, ServiceResponse):
            return guard
        dictionary = self.cryptext.dictionary
        recovery = dictionary.last_recovery
        body: dict[str, object] = {
            "stats": self.cryptext.stats().to_dict(),
            "compiled_cache": CompiledCacheStats.from_raw(
                dictionary.compiled_cache_stats()
            ).to_dict(),
            "recovery": recovery.to_dict() if recovery is not None else None,
            "maintenance": (
                self.scheduler.status() if self.scheduler is not None else None
            ),
            "observability": OBS.status(),
        }
        return ServiceResponse(status=200, body=body)

    def metrics(self, token: str | None) -> ServiceResponse:
        """Prometheus exposition endpoint — the ``/v1/metrics`` route.

        Requires the ``stats`` scope.  The response's :attr:`ServiceResponse.text`
        carries the exposition document (``text/plain; version=0.0.4``):
        the registry's request/stage histograms and counters plus the
        adapter-lifted gauges for this service's system, scheduler, and
        replica set.  ``body`` carries the registry summary for JSON
        callers; one scrape sees the whole system either way.
        """
        guard = self._guard(token, "stats")
        if isinstance(guard, ServiceResponse):
            return guard
        samples = OBS.collect(service_samples(self))
        return ServiceResponse(
            status=200,
            body={"observability": OBS.status()},
            text=render_text(samples),
        )

    # ------------------------------------------------------------------ #
    # replication
    # ------------------------------------------------------------------ #
    def bind_replica_set(self, replica_set) -> None:
        """Attach (or replace) the replica set routing the read endpoints."""
        self.replica_set = replica_set

    def replication_status(self, token: str | None) -> ServiceResponse:
        """Replication topology and lag — the ``/v1/replication`` route.

        Requires the ``stats`` scope.  409 when the service runs
        unreplicated (no replica set bound).
        """
        guard = self._guard(token, "stats")
        if isinstance(guard, ServiceResponse):
            return guard
        if self.replica_set is None:
            return ServiceResponse(
                status=409, body={"error": "no replica set is bound"}
            )
        return ServiceResponse(
            status=200, body={"replication": self.replica_set.status()}
        )

    # ------------------------------------------------------------------ #
    # durability administration
    # ------------------------------------------------------------------ #
    def bind_scheduler(self, scheduler) -> None:
        """Attach (or replace) the maintenance scheduler behind the admin API."""
        self.scheduler = scheduler

    def maintenance_status(self, token: str | None) -> ServiceResponse:
        """Maintenance status — the ``/v1/admin/maintenance`` GET route.

        Requires the ``admin`` scope.  409 when no scheduler is bound.
        """
        guard = self._guard(token, "admin")
        if isinstance(guard, ServiceResponse):
            return guard
        if self.scheduler is None:
            return ServiceResponse(
                status=409, body={"error": "no maintenance scheduler is bound"}
            )
        return ServiceResponse(status=200, body={"maintenance": self.scheduler.status()})

    def maintenance_trigger(
        self, token: str | None, task: str = "save"
    ) -> ServiceResponse:
        """Run one maintenance task now — the ``/v1/admin/maintenance`` POST route.

        Requires the ``admin`` scope.  ``task`` is ``save`` (respects the
        incremental policy), ``full_save``, ``compact``, or
        ``truncate_wal``.
        """
        guard = self._guard(token, "admin")
        if isinstance(guard, ServiceResponse):
            return guard
        if self.scheduler is None:
            return ServiceResponse(
                status=409, body={"error": "no maintenance scheduler is bound"}
            )
        try:
            outcome = self.scheduler.run_now(task)
        except CrypTextError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        return ServiceResponse(status=200, body={"maintenance": outcome})

    def snapshot_save(
        self,
        token: str | None,
        path: str | None = None,
        incremental: bool = False,
    ) -> ServiceResponse:
        """Warm-start snapshot save — the ``/v1/admin/snapshot`` POST route.

        Requires the ``admin`` scope.  Persists the dictionary plus its
        compiled tries to ``path`` (or the configured
        ``config.snapshot_dir``) so the next deploy/restart hydrates instead
        of recompiling.  ``incremental`` writes a delta covering only the
        buckets changed since the last save (:mod:`repro.wal.delta`).
        """
        guard = self._guard(token, "admin")
        if isinstance(guard, ServiceResponse):
            return guard
        try:
            report = self.cryptext.save_snapshot(path, incremental=incremental)
        except CrypTextError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        return ServiceResponse(status=200, body={"snapshot": report.to_dict()})

    def snapshot_load(self, token: str | None, path: str | None = None) -> ServiceResponse:
        """Warm-start snapshot load — the ``/v1/admin/snapshot`` PUT route.

        Requires the ``admin`` scope.  Replaces the live dictionary and
        warms every cache layer from the snapshot; a corrupt or
        incompatible snapshot leaves the service untouched and reports why
        (status 409, ``loaded: false``) rather than failing the process.
        """
        guard = self._guard(token, "admin")
        if isinstance(guard, ServiceResponse):
            return guard
        try:
            report = self.cryptext.load_snapshot(path)
        except CrypTextError as exc:
            return ServiceResponse(status=400, body={"error": str(exc)})
        status = 200 if report.loaded else 409
        return ServiceResponse(status=status, body={"snapshot": report.to_dict()})
