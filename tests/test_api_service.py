"""Tests for repro.api.service (the bulk CrypText service endpoints)."""

from __future__ import annotations

import asyncio

import pytest

from repro.api import AsyncCrypTextService, CrypTextService, RateLimiter, TokenAuthenticator
from repro.errors import ServiceError


@pytest.fixture()
def service(cryptext_small, twitter_platform) -> CrypTextService:
    return CrypTextService(
        cryptext_small,
        authenticator=TokenAuthenticator(secret="unit"),
        rate_limiter=RateLimiter(max_requests=1000, window_seconds=60),
        platform=twitter_platform,
    )


@pytest.fixture()
def token(service) -> str:
    return service.issue_token("tester").token


class TestAuthenticationFlow:
    def test_missing_token_is_401(self, service):
        assert service.lookup(None, ["vaccine"]).status == 401

    def test_unknown_token_is_401(self, service):
        assert service.lookup("forged", ["vaccine"]).status == 401

    def test_insufficient_scope_is_403(self, service):
        limited = service.issue_token("limited", scopes={"normalize"}).token
        assert service.lookup(limited, ["vaccine"]).status == 403

    def test_rate_limit_is_429(self, cryptext_small):
        service = CrypTextService(
            cryptext_small,
            rate_limiter=RateLimiter(max_requests=1, window_seconds=60),
        )
        token = service.issue_token("busy").token
        assert service.lookup(token, ["vaccine"]).ok
        assert service.lookup(token, ["vaccine"]).status == 429

    def test_ok_response_envelope(self, service, token):
        response = service.lookup(token, ["vaccine"])
        assert response.ok
        assert response.to_dict()["status"] == 200


class TestLookupEndpoint:
    def test_bulk_lookup(self, service, token):
        response = service.lookup(token, ["republicans", "democrats"])
        assert response.ok
        results = response.body["results"]
        assert set(results) == {"republicans", "democrats"}
        assert "repubLIEcans" in [m["token"] for m in results["republicans"]["matches"]]

    def test_parameters_forwarded(self, service, token):
        loose = service.lookup(token, ["republicans"], max_edit_distance=3)
        tight = service.lookup(token, ["republicans"], max_edit_distance=0)
        assert len(loose.body["results"]["republicans"]["matches"]) >= len(
            tight.body["results"]["republicans"]["matches"]
        )

    def test_empty_batch_is_400(self, service, token):
        assert service.lookup(token, []).status == 400

    def test_oversized_batch_is_400(self, cryptext_small):
        service = CrypTextService(cryptext_small, max_batch_size=2)
        token = service.issue_token("t").token
        assert service.lookup(token, ["a", "b", "c"]).status == 400

    def test_non_string_batch_is_400(self, service, token):
        assert service.lookup(token, ["ok", 42]).status == 400  # type: ignore[list-item]

    def test_responses_cached(self, cryptext_small):
        # A repeated /v1/lookup is answered by the system's query cache: one
        # hit per query and nothing stored.
        cache = cryptext_small.cache
        service = CrypTextService(cryptext_small)
        token = service.issue_token("t").token
        first = service.lookup(token, ["vaccine"])
        hits, sets = cache.stats.hits, cache.stats.sets
        second = service.lookup(token, ["vaccine"])
        assert second.body == first.body
        assert cache.stats.hits == hits + 1
        assert cache.stats.sets == sets


@pytest.mark.parametrize(
    "path, payload, field",
    [
        ("/v1/lookup", {"queries": "vaccine"}, "queries"),
        ("/v1/lookup", {"queries": {"vaccine": 1}}, "queries"),
        ("/v1/lookup", {"queries": 5}, "queries"),
        ("/v1/lookup", {"queries": ["vaccine"], "max_edit_distance": "3"}, "max_edit_distance"),
        ("/v1/lookup", {"queries": ["vaccine"], "max_edit_distance": -2}, "max_edit_distance"),
        ("/v1/lookup", {"queries": ["vaccine"], "max_edit_distance": 1.5}, "max_edit_distance"),
        ("/v1/batch/lookup", {"queries": "vaccine"}, "queries"),
        ("/v1/batch/lookup", {"queries": ["vaccine"], "max_edit_distance": -2}, "max_edit_distance"),
        ("/v1/normalize", {"texts": "teh vacc1ne"}, "texts"),
        ("/v1/batch/normalize", {"texts": "teh vacc1ne"}, "texts"),
        ("/v1/perturb", {"texts": "the vaccine"}, "texts"),
        ("/v1/lookup", {"queries": ["vaccine"], "max_edit_distance": False}, "max_edit_distance"),
        ("/v1/lookup", {"queries": ["vaccine"], "phonetic_level": True}, "phonetic_level"),
        ("/v1/lookup", {"queries": ["vaccine"], "phonetic_level": "1"}, "phonetic_level"),
        ("/v1/lookup", {"queries": ["vaccine"], "case_sensitive": "no"}, "case_sensitive"),
        ("/v1/lookup", {"queries": ["vaccine"], "case_sensitive": None}, "case_sensitive"),
        ("/v1/lookup", {"queries": ["vaccine"], "use_transpositions": 1}, "use_transpositions"),
        ("/v1/batch/lookup", {"queries": ["vaccine"], "max_edit_distance": False}, "max_edit_distance"),
        ("/v1/batch/lookup", {"queries": ["vaccine"], "phonetic_level": True}, "phonetic_level"),
        ("/v1/batch/lookup", {"queries": ["vaccine"], "case_sensitive": "no"}, "case_sensitive"),
        ("/v1/batch/lookup", {"queries": ["vaccine"], "use_transpositions": 1}, "use_transpositions"),
        ("/v1/perturb", {"texts": ["the vaccine"], "ratio": "0.5"}, "ratio"),
        ("/v1/perturb", {"texts": ["the vaccine"], "ratio": [0.5]}, "ratio"),
        ("/v1/perturb", {"texts": ["the vaccine"], "ratio": True}, "ratio"),
        ("/v1/perturb", {"texts": ["the vaccine"], "case_sensitive": "no"}, "case_sensitive"),
    ],
    ids=[
        "lookup-string", "lookup-object", "lookup-number", "distance-string",
        "distance-negative", "distance-float", "batch-lookup-string",
        "batch-lookup-distance-negative", "normalize-string",
        "batch-normalize-string", "perturb-string", "distance-bool", "level-bool",
        "level-string", "case-string", "case-null", "transpositions-int",
        "batch-lookup-distance-bool", "batch-lookup-level-bool",
        "batch-lookup-case-string", "batch-lookup-transpositions-int",
        "ratio-string", "ratio-list", "ratio-bool", "perturb-case-string",
    ],
)
def test_malformed_read_requests_are_400(service, token, path, payload, field):
    front = AsyncCrypTextService(service, reader_threads=1)

    async def scenario():
        try:
            return await front.dispatch("POST", path, token, payload)
        finally:
            await front.stop()

    response = asyncio.run(scenario())
    assert response.status == 400, response.body
    assert field in response.body["error"]


@pytest.mark.parametrize("field", ["since", "until"])
@pytest.mark.parametrize(
    "bound",
    [5, ["2021-11-01"], {"a": 1}, "garbage", "2021-11-10"],
    ids=["number", "list", "object", "garbage", "iso-date"],
)
def test_listen_date_bounds_are_validated(service, token, twitter_platform, field, bound):
    front = AsyncCrypTextService(service, reader_threads=1)

    async def scenario():
        try:
            return await front.dispatch(
                "POST", "/v1/listen", token, {"keywords": ["vaccine"], field: bound}
            )
        finally:
            await front.stop()

    response = asyncio.run(scenario())
    if bound != "2021-11-10":
        assert response.status == 400, response.body
        assert field in response.body["error"]
        return
    listener = service.cryptext.social_listener(twitter_platform)
    usage = listener.monitor_keywords(["vaccine"], **{field: bound})
    assert response.status == 200, response.body
    assert response.body == {
        "results": {keyword: report.to_dict() for keyword, report in usage.items()}
    }
    assert 0 < response.body["results"]["vaccine"]["total_posts"] < len(twitter_platform)


class TestNormalizeEndpoint:
    def test_bulk_normalize(self, service, token):
        response = service.normalize(token, ["the demokrats hate the vacc1ne"])
        assert response.ok
        normalized = response.body["results"][0]["normalized_text"]
        assert "democrats" in normalized
        assert "vaccine" in normalized

    def test_scope_enforced(self, service):
        lookup_only = service.issue_token("lookup-only", scopes={"lookup"}).token
        assert service.normalize(lookup_only, ["text"]).status == 403

    def test_empty_batch_rejected(self, service, token):
        assert service.normalize(token, []).status == 400


class TestPerturbEndpoint:
    def test_bulk_perturb(self, service, token):
        response = service.perturb(token, ["the democrats support the vaccine"], ratio=1.0)
        assert response.ok
        result = response.body["results"][0]
        assert result["requested_replacements"] >= 1

    def test_invalid_ratio_is_400(self, service, token):
        assert service.perturb(token, ["text"], ratio=2.0).status == 400

    def test_ratio_default_from_config(self, service, token):
        response = service.perturb(token, ["the democrats support the vaccine"])
        assert response.ok
        assert response.body["results"][0]["ratio"] == pytest.approx(
            service.cryptext.config.perturbation_ratio
        )


class TestListenAndStatsEndpoints:
    def test_listen(self, service, token):
        response = service.listen(token, ["vaccine"])
        assert response.ok
        assert "vaccine" in response.body["results"]

    def test_listen_without_platform_is_400(self, cryptext_small):
        service = CrypTextService(cryptext_small)
        token = service.issue_token("t").token
        assert service.listen(token, ["vaccine"]).status == 400

    def test_bind_platform_later(self, cryptext_small, twitter_platform):
        service = CrypTextService(cryptext_small)
        token = service.issue_token("t").token
        service.bind_platform(twitter_platform)
        assert service.listen(token, ["vaccine"]).ok

    def test_stats(self, service, token):
        response = service.stats(token)
        assert response.ok
        assert response.body["stats"]["total_tokens"] > 0

    def test_max_batch_size_validation(self, cryptext_small):
        with pytest.raises(ServiceError):
            CrypTextService(cryptext_small, max_batch_size=0)
