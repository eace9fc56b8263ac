"""Tests for repro.storage.cache (the Redis-style TTL cache)."""

from __future__ import annotations

import pytest

from repro.errors import CacheError
from repro.storage import TTLCache, cached, make_key


class FakeClock:
    """Controllable clock for deterministic expiry tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBasicOperations:
    def test_set_and_get(self):
        cache = TTLCache()
        cache.set("key", {"value": 1})
        assert cache.get("key") == {"value": 1}

    def test_missing_key_returns_default(self):
        cache = TTLCache()
        assert cache.get("nope") is None
        assert cache.get("nope", default="fallback") == "fallback"

    def test_contains_and_len(self):
        cache = TTLCache()
        cache.set("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_invalidate(self):
        cache = TTLCache()
        cache.set("a", 1)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.get("a") is None

    def test_clear_preserves_stats(self):
        cache = TTLCache()
        cache.set("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_invalid_construction(self):
        with pytest.raises(CacheError):
            TTLCache(max_entries=0)
        with pytest.raises(CacheError):
            TTLCache(default_ttl=0)

    def test_invalid_ttl_on_set(self):
        with pytest.raises(CacheError):
            TTLCache().set("a", 1, ttl=-5)


class TestExpiry:
    def test_entry_expires_after_ttl(self):
        clock = FakeClock()
        cache = TTLCache(default_ttl=10, clock=clock)
        cache.set("a", 1)
        clock.advance(5)
        assert cache.get("a") == 1
        clock.advance(6)
        assert cache.get("a") is None
        assert cache.stats.expirations >= 1

    def test_per_entry_ttl_overrides_default(self):
        clock = FakeClock()
        cache = TTLCache(default_ttl=100, clock=clock)
        cache.set("short", 1, ttl=1)
        cache.set("long", 2)
        clock.advance(2)
        assert cache.get("short") is None
        assert cache.get("long") == 2

    def test_expired_entries_never_returned_even_before_purge(self):
        clock = FakeClock()
        cache = TTLCache(default_ttl=1, clock=clock)
        cache.set("a", 1)
        clock.advance(1)
        assert "a" not in cache

    def test_reinsert_after_expiry(self):
        clock = FakeClock()
        cache = TTLCache(default_ttl=1, clock=clock)
        cache.set("a", 1)
        clock.advance(2)
        cache.set("a", 2)
        assert cache.get("a") == 2


class TestEviction:
    def test_lru_eviction_order(self):
        cache = TTLCache(max_entries=2, default_ttl=100)
        cache.set("a", 1)
        cache.set("b", 2)
        cache.get("a")  # a becomes most recently used
        cache.set("c", 3)  # evicts b
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_capacity_never_exceeded(self):
        cache = TTLCache(max_entries=3, default_ttl=100)
        for index in range(10):
            cache.set(f"key{index}", index)
        assert len(cache) <= 3

    def test_expired_entries_are_evicted_not_scanned(self):
        # Expiry is lazy: a store into a full cache evicts the LRU entry
        # even when every entry has expired, and no expiration is counted
        # until a read finds one.
        clock = FakeClock()
        cache = TTLCache(max_entries=2, default_ttl=1, clock=clock)
        cache.set("a", 1)
        cache.set("b", 2)
        clock.advance(2)
        cache.set("c", 3)
        assert cache.stats.evictions == 1
        assert cache.stats.expirations == 0
        assert cache.get("a") is None
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_updating_existing_key_does_not_evict(self):
        cache = TTLCache(max_entries=2, default_ttl=100)
        cache.set("a", 1)
        cache.set("b", 2)
        cache.set("a", 3)
        assert cache.get("b") == 2
        assert cache.get("a") == 3
        assert cache.stats.evictions == 0


class TestStats:
    def test_hit_and_miss_counting(self):
        cache = TTLCache()
        cache.set("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.requests == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_zero_when_unused(self):
        assert TTLCache().stats.hit_rate == 0.0

    def test_stats_serialization(self):
        cache = TTLCache()
        cache.set("a", 1)
        cache.get("a")
        payload = cache.stats.to_dict()
        assert payload["hits"] == 1
        assert payload["sets"] == 1
        assert 0 <= payload["hit_rate"] <= 1


class TestGetOrComputeAndDecorator:
    def test_get_or_compute_only_computes_once(self):
        cache = TTLCache()
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", compute) == "value"
        assert cache.get_or_compute("k", compute) == "value"
        assert len(calls) == 1

    def test_cached_decorator(self):
        cache = TTLCache()
        calls = []

        @cached(cache)
        def slow_lookup(word: str, limit: int = 3) -> str:
            calls.append(word)
            return word.upper()

        assert slow_lookup("vaccine") == "VACCINE"
        assert slow_lookup("vaccine") == "VACCINE"
        assert slow_lookup("vaccine", limit=5) == "VACCINE"
        assert len(calls) == 2  # different kwargs -> different key
        assert slow_lookup.cache is cache

    def test_make_key_handles_unhashable_arguments(self):
        key_a = make_key(["a", "b"], {"x": 1}, flag={"s", "t"})
        key_b = make_key(["a", "b"], {"x": 1}, flag={"t", "s"})
        assert key_a == key_b
        assert hash(key_a) is not None

    def test_make_key_differs_for_different_arguments(self):
        assert make_key("a", 1) != make_key("a", 2)
