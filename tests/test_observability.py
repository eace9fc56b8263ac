"""Tests for the observability layer (repro.obs).

Covers the four contracts the subsystem makes:

* the shared fixed-bucket histogram's percentile estimates are monotone,
  range-bounded, and exact on identical samples (hypothesis properties);
* the registry's armed guard, request tracing, and slow-query ring buffer;
* the exposition surfaces — ``/v1/metrics`` on both fronts is frozen to a
  known family set and the Prometheus text grammar, and ``/v1/stats``
  keeps its key schema;
* trace contexts cross the asyncio front's worker-thread boundary (and
  cover the small reads it serves on the event loop itself), so a slow
  request's log entry carries per-stage timings; pooled calls record their
  queue wait.
"""

from __future__ import annotations

import asyncio
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CrypText
from repro.analysis import sanitizer as sanitizer_mod
from repro.api import AsyncCrypTextService, CrypTextService, RateLimiter
from repro.api.async_service import INLINE_MAX_ITEMS
from repro.obs import CONTENT_TYPE, DEFAULT_BUCKETS, Histogram, render_text
from repro.obs.adapters import replication_samples, sanitizer_samples, system_samples
from repro.replication import Follower, ReplicaSet
from repro.obs.registry import OBS, QUEUE_WAIT_SECONDS
from repro.wal import ChangeLog, wal_directory_for

CORPUS = [
    "the dirrty republicans",
    "thee dirty repubLIEcans",
    "the dirty republic@@ns",
    "stop the vac-cine mandate now",
    "the demokrats hate the vacc1ne",
]


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Process-global registry: drop state around every test, restore arming."""
    was_armed = OBS.armed
    threshold = OBS.slow_query_ms
    OBS.reset()
    yield
    OBS.reset()
    if was_armed:
        OBS.arm(slow_query_ms=threshold)


@pytest.fixture()
def service() -> CrypTextService:
    # Per-test system: the service shares the system's TTLCache, so a
    # shared fixture would serve later lookups from cache and skip the
    # pipeline spans these tests assert on.
    return CrypTextService(
        CrypText.from_corpus(CORPUS),
        rate_limiter=RateLimiter(max_requests=10000, window_seconds=60),
    )


@pytest.fixture()
def token(service) -> str:
    return service.issue_token("obs").token


# ---------------------------------------------------------------------- #
# histogram properties
# ---------------------------------------------------------------------- #
class TestHistogramProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_percentiles_monotone_and_range_bounded(self, values):
        hist = Histogram()
        for value in values:
            hist.observe(value)
        p50, p95, p99 = hist.percentile(0.5), hist.percentile(0.95), hist.percentile(0.99)
        assert hist.count == len(values)
        assert hist.sum == pytest.approx(math.fsum(values))
        assert p50 <= p95 <= p99 <= hist.max
        assert hist.min <= p50
        assert min(values) <= p50 <= max(values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=20.0, allow_nan=False),
        st.integers(min_value=1, max_value=64),
    )
    def test_identical_samples_estimate_exactly(self, value, repeats):
        hist = Histogram()
        for _ in range(repeats):
            hist.observe(value)
        for fraction in (0.5, 0.95, 0.99, 1.0):
            assert hist.percentile(fraction) == pytest.approx(value, rel=1e-9)

    def test_empty_histogram_reports_zeros(self):
        hist = Histogram()
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["p50"] == snap["p95"] == snap["p99"] == 0.0
        assert snap["min"] == snap["max"] == 0.0
        assert snap["buckets"][-1] == (math.inf, 0)

    def test_snapshot_buckets_are_cumulative(self):
        hist = Histogram(buckets=(1.0, 2.0, 3.0))
        for value in (0.5, 1.5, 1.7, 2.5, 99.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == [(1.0, 1), (2.0, 3), (3.0, 4), (math.inf, 5)]

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_percentile_fraction_validated(self):
        with pytest.raises(ValueError):
            Histogram().percentile(0.0)
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_default_buckets_cover_fake_clock_holds(self):
        # The sanitizer's fake-clock test records exact 1.0s holds; 1.0 is
        # a bucket bound, so the bucket-mean estimate must be exact.
        assert 1.0 in DEFAULT_BUCKETS
        hist = Histogram()
        for _ in range(5):
            hist.observe(1.0)
        assert hist.percentile(0.5) == 1.0


# ---------------------------------------------------------------------- #
# registry: arming, tracing, slow-query log
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_disarmed_by_default_and_scoped_restores(self):
        assert OBS.armed is False
        with OBS.scoped(slow_query_ms=5.0):
            assert OBS.armed is True
            assert OBS.slow_query_ms == 5.0
        assert OBS.armed is False

    def test_counters_gauges_histograms_collect(self):
        OBS.inc("cryptext_demo_total", (("kind", "a"),), 2.0)
        OBS.set_gauge("cryptext_demo_gauge", 7.0)
        with OBS.span("demo"):
            pass
        samples = {name: (kind, value) for name, kind, _h, _l, value in OBS.collect()}
        assert samples["cryptext_demo_total"] == ("counter", 2.0)
        assert samples["cryptext_demo_gauge"] == ("gauge", 7.0)
        assert samples["cryptext_stage_seconds"][0] == "histogram"
        assert samples["cryptext_stage_seconds"][1]["count"] == 1

    def test_request_records_route_and_status(self):
        with OBS.scoped():
            with OBS.request("/v1/demo") as trace:
                trace.status = 201
        samples = OBS.collect()
        counters = {
            tuple(sorted(labels.items())): value
            for name, _k, _h, labels, value in samples
            if name == "cryptext_requests_total"
        }
        assert counters[(("route", "/v1/demo"), ("status", "201"))] == 1.0

    def test_nested_request_counted_once(self):
        with OBS.scoped():
            with OBS.request("/v1/outer"):
                with OBS.request("/v1/inner"):
                    pass
        routes = [
            labels["route"]
            for name, _k, _h, labels, _v in OBS.collect()
            if name == "cryptext_requests_total"
        ]
        assert routes == ["/v1/outer"]

    def test_slow_query_log_threshold(self):
        with OBS.scoped(slow_query_ms=10_000.0):
            with OBS.request("/v1/fast"):
                pass
        assert OBS.slow_queries() == []
        with OBS.scoped(slow_query_ms=0.0):
            with OBS.request("/v1/slow"):
                with OBS.span("stage.one"):
                    pass
        entries = OBS.slow_queries()
        assert [entry["route"] for entry in entries] == ["/v1/slow"]
        assert [stage["stage"] for stage in entries[0]["stages"]] == ["stage.one"]
        assert entries[0]["status"] == 200

    def test_status_summary_keys(self):
        assert set(OBS.status()) == {
            "armed",
            "slow_query_ms",
            "slow_queries",
            "slow_query_capacity",
            "traced_requests",
        }

    def test_snapshot_is_json_safe(self):
        with OBS.scoped():
            with OBS.span("jsonable"):
                pass
        encoded = json.dumps(OBS.snapshot())
        assert '"+Inf"' in encoded


# ---------------------------------------------------------------------- #
# exposition format
# ---------------------------------------------------------------------- #
#: Every metric family a plain armed service (no WAL, no scheduler, no
#: replica set, sanitizer off) exposes after lookup+normalize traffic.
#: Frozen: extending the catalog is fine, but it must be deliberate —
#: update this set and the README table together.
PLAIN_SERVICE_FAMILIES = {
    "cryptext_obs_armed",
    "cryptext_requests_total",
    "cryptext_request_seconds",
    "cryptext_stage_seconds",
    "cryptext_dictionary_tokens",
    "cryptext_dictionary_occurrences",
    "cryptext_compiled_cache_events_total",
    "cryptext_compiled_cache_size",
    "cryptext_compiled_cache_capacity",
    "cryptext_kernel_hits_total",
}

_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[+-]?[0-9][0-9eE.+-]*)$"
)


def _families(text: str) -> set[str]:
    names = {
        line.split("{")[0].split(" ")[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    return {re.sub(r"_(bucket|sum|count)$", "", name) for name in names}


class TestExpositionFormat:
    def test_metrics_endpoint_family_set_is_frozen(self, service, token):
        with OBS.scoped():
            assert service.lookup(token, ["republicans"]).ok
            assert service.normalize(token, ["the dirrty republicans"]).ok
            response = service.metrics(token)
        assert response.status == 200
        assert response.text is not None
        expected = set(PLAIN_SERVICE_FAMILIES)
        if sanitizer_mod.active() is not None:
            # Sanitized runs add the lock held-time bridge by design.
            expected.add("cryptext_lock_held_seconds")
        assert _families(response.text) == expected

    def test_exposition_grammar(self, service, token):
        with OBS.scoped():
            service.lookup(token, ["republicans"])
            text = service.metrics(token).text
        assert text.endswith("\n")
        seen_types: dict[str, str] = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in {"counter", "gauge", "histogram"}
                assert name not in seen_types, "family emitted twice"
                seen_types[name] = kind
            elif line.startswith("# HELP "):
                continue
            else:
                assert _SAMPLE_LINE.match(line), f"bad sample line: {line!r}"

    def test_histogram_families_emit_bucket_sum_count(self, service, token):
        with OBS.scoped():
            service.lookup(token, ["republicans"])
            text = service.metrics(token).text
        assert 'cryptext_request_seconds_bucket{route="/v1/lookup",le="+Inf"}' in text
        assert "cryptext_request_seconds_sum{" in text
        assert "cryptext_request_seconds_count{" in text
        # Cumulative: the +Inf bucket equals the count.
        inf = re.search(
            r'cryptext_request_seconds_bucket\{route="/v1/lookup",le="\+Inf"\} (\d+)',
            text,
        )
        count = re.search(
            r'cryptext_request_seconds_count\{route="/v1/lookup"\} (\d+)', text
        )
        assert inf and count and inf.group(1) == count.group(1)

    def test_label_escaping(self):
        text = render_text(
            [("cryptext_demo", "gauge", 'help "quoted"', {"k": 'a"b\\c\nd'}, 1.0)]
        )
        assert 'cryptext_demo{k="a\\"b\\\\c\\nd"} 1' in text

    def test_metrics_requires_stats_scope(self, service):
        limited = service.issue_token("limited", scopes={"normalize"}).token
        assert service.metrics(None).status == 401
        assert service.metrics(limited).status == 403

    def test_stats_body_schema_is_frozen(self, service, token):
        body = service.stats(token).body
        assert set(body) == {
            "stats",
            "compiled_cache",
            "recovery",
            "maintenance",
            "observability",
        }
        assert set(body["observability"]) == set(OBS.status())


# ---------------------------------------------------------------------- #
# async front: exposition + trace propagation across worker threads
# ---------------------------------------------------------------------- #
def _queue_wait_count() -> float:
    """Observations in every ``cryptext_queue_wait_seconds`` series."""
    return sum(
        value["count"]
        for name, _k, _h, _labels, value in OBS.collect()
        if name == QUEUE_WAIT_SECONDS
    )


class TestAsyncFront:
    def test_metrics_route_serves_exposition_text(self, service, token):
        front = AsyncCrypTextService(service, reader_threads=1)
        with OBS.scoped():
            async def scenario():
                response = await front.dispatch(
                    "POST", "/v1/lookup", token, {"queries": ["republicans"]}
                )
                assert response.status == 200
                return await front.dispatch("GET", "/v1/metrics", token, None)

            response = asyncio.run(scenario())
        assert response.status == 200
        assert response.text is not None
        assert "version=0.0.4" in CONTENT_TYPE
        assert "cryptext_requests_total" in response.text

    @staticmethod
    def _traced_lookup(front, token, queries) -> tuple[dict, float]:
        """One armed Look Up through ``front``: its slow-query log entry and
        the number of queue-wait observations it left."""
        with OBS.scoped(slow_query_ms=0.0):
            async def scenario():
                response = await front.dispatch(
                    "POST", "/v1/lookup", token, {"queries": queries}
                )
                assert response.status == 200

            asyncio.run(scenario())
            entries = [
                entry for entry in OBS.slow_queries() if entry["route"] == "/v1/lookup"
            ]
            waits = _queue_wait_count()
        assert len(entries) == 1  # opened on the loop, finished once
        return entries[0], waits

    def test_trace_crosses_the_worker_thread_pool(self, service, token):
        front = AsyncCrypTextService(service, reader_threads=2)
        # One item over the inline bound: the handler runs on the pool.
        entry, waits = self._traced_lookup(
            front, token, ["republicans"] * (INLINE_MAX_ITEMS + 1)
        )
        assert waits == 1  # it did cross the executor boundary
        stages = [stage["stage"] for stage in entry["stages"]]
        # The lookup span ran inside a worker thread; its timing landed on
        # the trace the event loop opened — the contextvar crossed over.
        assert "lookup" in stages
        assert entry["status"] == 200

    def test_trace_covers_an_inline_request(self, service, token):
        front = AsyncCrypTextService(service, reader_threads=2)
        entry, waits = self._traced_lookup(front, token, ["republicans"])
        assert waits == 0  # served on the loop, in the request task's context
        stages = [stage["stage"] for stage in entry["stages"]]
        assert "lookup" in stages
        assert entry["status"] == 200

    def test_queue_wait_is_recorded_for_pooled_calls_only(self, service, token):
        front = AsyncCrypTextService(service, reader_threads=1)
        with OBS.scoped():
            async def scenario():
                pooled = await front.dispatch("GET", "/v1/stats", token, None)
                inline = await front.dispatch(
                    "POST", "/v1/lookup", token, {"queries": ["republicans"]}
                )
                assert pooled.status == inline.status == 200

            asyncio.run(scenario())
            routes = {
                labels["route"]: value["count"]
                for name, _k, _h, labels, value in OBS.collect()
                if name == QUEUE_WAIT_SECONDS
            }
        assert routes == {"/v1/stats": 1}

    def test_dispatch_counts_each_request_once(self, service, token):
        front = AsyncCrypTextService(service, reader_threads=1)
        with OBS.scoped():
            async def scenario():
                for _ in range(3):
                    await front.dispatch(
                        "POST", "/v1/lookup", token, {"queries": ["republicans"]}
                    )

            asyncio.run(scenario())
            counts = {
                (labels["route"], labels["status"]): value
                for name, _k, _h, labels, value in OBS.collect()
                if name == "cryptext_requests_total"
            }
        assert counts[("/v1/lookup", "200")] == 3.0

    def test_error_routes_finish_the_trace(self, service, token):
        front = AsyncCrypTextService(service, reader_threads=1)
        with OBS.scoped():
            async def scenario():
                return await front.dispatch("GET", "/v1/nowhere", token, None)

            response = asyncio.run(scenario())
            assert response.status == 404
            counts = {
                (labels["route"], labels["status"])
                for name, _k, _h, labels, _v in OBS.collect()
                if name == "cryptext_requests_total"
            }
        assert ("/v1/nowhere", "404") in counts


# ---------------------------------------------------------------------- #
# sanitizer bridge
# ---------------------------------------------------------------------- #
class TestSanitizerBridge:
    def test_sanitizer_samples_absent_when_inactive(self):
        if sanitizer_mod.active() is not None:
            pytest.skip("sanitized run: the bridge is live by construction")
        assert sanitizer_samples() == []

    def test_lock_held_seconds_samples_when_active(self):
        owned = sanitizer_mod.active() is None
        sanitizer = sanitizer_mod.enable()
        try:
            lock = sanitizer_mod.tracked_lock("wal.segment")
            with lock:
                pass
            samples = sanitizer_samples()
        finally:
            if owned:
                sanitizer_mod.disable()
        names = {(name, labels.get("lock")) for name, _k, _h, labels, _v in samples}
        assert ("cryptext_lock_held_seconds", "wal.segment") in names
        held = sanitizer.held_time_percentiles()["wal.segment"]
        assert held["count"] >= 1.0
        assert held["p50"] <= held["p95"] <= held["p99"] <= held["max"]


# ---------------------------------------------------------------------- #
# adapters
# ---------------------------------------------------------------------- #
class TestAdapters:
    def test_system_samples_cover_dictionary_and_cache(self, cryptext_small):
        names = {name for name, _k, _h, _l, _v in system_samples(cryptext_small)}
        assert {
            "cryptext_dictionary_tokens",
            "cryptext_dictionary_occurrences",
            "cryptext_compiled_cache_events_total",
            "cryptext_compiled_cache_size",
            "cryptext_compiled_cache_capacity",
        } <= names

    def test_journaled_system_adds_wal_gauges(self, tmp_path):
        system = CrypText.empty(seed_lexicon=False)
        wal = ChangeLog(wal_directory_for(tmp_path))
        system.dictionary.attach_wal(wal)
        try:
            system.learn_from(CORPUS, source="corpus")
            names = {name for name, _k, _h, _l, _v in system_samples(system)}
        finally:
            wal.close()
        assert {
            "cryptext_wal_last_seq",
            "cryptext_wal_segments",
            "cryptext_wal_bytes",
        } <= names

    def test_replication_samples_cover_lag_and_breakers(self, tmp_path):
        leader = CrypText.empty(seed_lexicon=False)
        wal = ChangeLog(wal_directory_for(tmp_path))
        leader.dictionary.attach_wal(wal)
        follower = Follower(tmp_path, name="scraped")
        try:
            leader.learn_from(CORPUS, source="corpus")
            follower.catch_up()
            replica_set = ReplicaSet(leader, [follower])
            replica_set.look_up("republicans")
            samples = replication_samples(replica_set)
        finally:
            follower.close()
            wal.close()
        by_name = {}
        for name, _kind, _help, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert {
            "cryptext_replication_leader_seq",
            "cryptext_replication_lag_seqs",
            "cryptext_replication_lag_seconds",
            "cryptext_replica_reads_total",
            "cryptext_follower_fresh",
            "cryptext_breaker_state",
        } <= set(by_name)
        # The caught-up follower is level with the leader and closed-breaker.
        assert by_name["cryptext_replication_lag_seqs"][0][1] == 0.0
        states = {
            labels["state"]: value
            for labels, value in by_name["cryptext_breaker_state"]
        }
        assert states == {"closed": 1.0, "open": 0.0, "half_open": 0.0}

    def test_disarmed_service_traffic_records_nothing(self, service, token):
        assert OBS.armed is False
        assert service.lookup(token, ["republicans"]).ok
        samples = [s for s in OBS.collect() if s[0] != "cryptext_obs_armed"]
        assert samples == []
