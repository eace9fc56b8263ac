"""Unit and integration tests for the batch throughput layer (repro.batch).

Covers the batch engine's dedup/memoization and streaming semantics, the
facade wiring (including sound-scoped cache invalidation in ``learn_from``),
the ``/v1/batch/*`` service endpoints, the CLI ``batch`` command, the social
listener's and crawler's agreement with the batch paths, and the tagged
cache primitives.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import CrypText
from repro.api import CrypTextService
from repro.batch import BatchEngine
from repro.cli import main as cli_main
from repro.errors import CrypTextError
from repro.social import SocialPlatform, StreamCrawler
from repro.storage import TTLCache


CORPUS = [
    "the dirrty republicans",
    "thee dirty repubLIEcans",
    "the dirty republic@@ns",
    "the democrats support the vaccine mandate",
    "the demokrats hate the vacc1ne",
    "the democRATs push their agenda",
    "the dem0cr@ts and the repubLIEcans argue online",
    "i ordered from amazon yesterday",
    "the amaz0n package never arrived",
]

QUERIES = ["democrats", "republicans", "amazon", "vaccine", "democrats", "vaccine"]
TEXTS = [
    "the demokrats hate the vacc1ne",
    "i ordered from amaz0n",
    "the demokrats hate the vacc1ne",
    "nothing perturbed here",
]


@pytest.fixture()
def system() -> CrypText:
    return CrypText.from_corpus(CORPUS)


@pytest.fixture()
def engine(system: CrypText) -> BatchEngine:
    return system.batch


# --------------------------------------------------------------------------- #
# batch engine
# --------------------------------------------------------------------------- #
class TestBatchEngine:
    def test_look_up_batch_identical_to_sequential(self, system, engine):
        batch = engine.look_up_batch(QUERIES)
        sequential = [system.look_up(query) for query in QUERIES]
        assert batch == sequential

    def test_look_up_batch_preserves_order_and_duplicates(self, engine):
        results = engine.look_up_batch(QUERIES)
        assert [result.query for result in results] == QUERIES
        assert results[0] == results[4]  # duplicate queries: identical results

    def test_look_up_batch_handles_unencodable_queries(self, engine):
        results = engine.look_up_batch(["democrats", "...", "###"])
        assert results[1].soundex_key is None and not results[1].matches
        assert results[2].soundex_key is None

    def test_look_up_batch_empty(self, engine):
        assert engine.look_up_batch([]) == []

    def test_look_up_batch_respects_overrides(self, system, engine):
        batch = engine.look_up_batch(["democrats"], max_edit_distance=1, case_sensitive=False)
        single = system.lookup_engine.look_up(
            "democrats", max_edit_distance=1, case_sensitive=False
        )
        assert batch[0] == single

    def test_duplicates_are_resolved_once(self, system):
        engine = system.batch
        cache = system.lookup_engine.cache
        sets_before = cache.stats.sets
        engine.look_up_batch(["vaccine"] * 50)
        assert cache.stats.sets == sets_before + 1

    def test_normalize_batch_identical_to_sequential(self, system, engine):
        batch = engine.normalize_batch(TEXTS)
        sequential = [system.normalize(text) for text in TEXTS]
        assert batch == sequential

    def test_normalize_batch_memoizes_candidates(self, engine):
        engine.normalize_batch(["the demokrats lie", "the demokrats cheat"])
        # Second document's "demokrats" candidate retrieval must hit the memo.
        assert engine.memo.stats.hits >= 1

    def test_perturb_batch_matches_sequential_with_same_rng(self, system):
        a = CrypText.from_corpus(CORPUS)
        outcome_batch = a.perturb_batch(TEXTS, ratio=0.5)
        b = CrypText.from_corpus(CORPUS)
        outcome_seq = [b.perturb(text, ratio=0.5) for text in TEXTS]
        assert [o.perturbed_text for o in outcome_batch] == [
            o.perturbed_text for o in outcome_seq
        ]

    def test_invalid_stream_knobs_rejected(self, system):
        with pytest.raises(CrypTextError):
            BatchEngine(system.dictionary, chunk_size=0)

    def test_stats_exposes_shards_and_caches(self, engine):
        engine.look_up_batch(["democrats"])
        stats = engine.stats()
        # The batch path reads the dictionary's compiled-bucket cache, so
        # its counters are the ones exported.
        assert stats["compiled_buckets"] == engine.dictionary.compiled_cache_stats()
        assert stats["compiled_buckets"]["misses"] >= 1
        assert "hits" in stats["memo"]


class TestStreaming:
    def test_stream_look_up_matches_batch(self, engine):
        queries = QUERIES * 7
        streamed = list(engine.stream_look_up(iter(queries), chunk_size=4))
        assert streamed == engine.look_up_batch(queries)

    def test_stream_normalize_matches_batch(self, engine):
        texts = TEXTS * 5
        streamed = list(engine.stream_normalize(iter(texts), chunk_size=3))
        assert streamed == engine.normalize_batch(texts)

    def test_stream_applies_backpressure(self, engine):
        pulled = 0

        def producer():
            nonlocal pulled
            for _ in range(1000):
                pulled += 1
                yield "democrats"

        chunk_size = 5
        stream = engine.stream_look_up(producer(), chunk_size=chunk_size)
        next(stream)
        # The first result needs exactly the first chunk: nothing is read
        # ahead of the chunk the consumer is draining.
        assert pulled == chunk_size
        stream.close()

    @pytest.mark.parametrize(
        "method, batch_method, items",
        [
            ("stream_look_up", "look_up_batch", QUERIES * 3),
            ("stream_normalize", "normalize_batch", TEXTS * 3),
        ],
    )
    def test_streams_resolve_chunks_on_the_calling_thread(
        self, engine, monkeypatch, method, batch_method, items
    ):
        threads = []
        resolve = getattr(engine, batch_method)

        def recording(chunk, *args, **kwargs):
            threads.append(threading.get_ident())
            return resolve(chunk, *args, **kwargs)

        monkeypatch.setattr(engine, batch_method, recording)
        streamed = list(getattr(engine, method)(iter(items), chunk_size=4))
        assert len(streamed) == len(items)
        assert len(threads) == -(-len(items) // 4)
        assert set(threads) == {threading.get_ident()}

    def test_stream_handles_empty_iterable(self, engine):
        assert list(engine.stream_look_up(iter(()))) == []


class TestEnrichment:
    def test_enrich_makes_new_perturbations_visible(self, engine):
        engine.look_up_batch(["democrats"])  # warm the caches
        engine.dictionary.add_corpus(["the demmocrats lie"])
        result = engine.look_up_batch(["democrats"])[0]
        assert "demmocrats" in result.tokens

    def test_enrich_refreshes_normalization_candidates(self):
        # Corpus knows the perturbation but not the clean English word, so
        # normalization initially has no candidate; enrichment must both add
        # the word and invalidate the memoized (empty) candidate list.
        system = CrypText.from_corpus(
            ["they fear the vacc1ne shot"], seed_lexicon=False
        )
        engine = system.batch
        assert engine.normalize_batch(["vacc1ne"])[0].normalized_text == "vacc1ne"
        engine.dictionary.add_corpus(["the vaccine works"])
        assert engine.normalize_batch(["vacc1ne"])[0].normalized_text == "vaccine"


# --------------------------------------------------------------------------- #
# facade wiring + sound-scoped invalidation (the learn_from bug fix)
# --------------------------------------------------------------------------- #
class TestFacade:
    def test_facade_batch_methods_delegate(self, system):
        assert system.look_up_batch(QUERIES) == system.batch.look_up_batch(QUERIES)
        assert system.normalize_batch(TEXTS) == system.batch.normalize_batch(TEXTS)

    def test_make_batch_engine_rebinds(self, system):
        engine = system.make_batch_engine(chunk_size=7)
        assert system.batch is engine
        assert engine.chunk_size == 7

    def test_learn_from_invalidation_is_shard_scoped(self, system):
        cache = system.cache
        system.look_up("democrats")
        system.look_up("amazon")
        democrats_key = system.lookup_engine.cache_key("democrats", 1, 3, True, False)
        amazon_key = system.lookup_engine.cache_key("amazon", 1, 3, True, False)
        assert democrats_key in cache.keys() and amazon_key in cache.keys()

        added = system.learn_from(["the demmocrats lie"])
        assert added == 3
        # The unrelated cached query survives the enrichment...
        assert amazon_key in cache.keys()
        # ...while the touched bucket's entry was dropped and re-resolves
        # with the new perturbation.
        assert democrats_key not in cache.keys()
        assert "demmocrats" in system.look_up("democrats").tokens

    def test_learn_from_keeps_batch_engine_in_sync(self, system):
        engine = system.batch
        engine.look_up_batch(["democrats"])
        system.learn_from(["the demmocrats lie"])
        assert "demmocrats" in engine.look_up_batch(["democrats"])[0].tokens

    def test_learn_from_without_batch_engine_still_invalidates(self, system):
        system.look_up("democrats")
        system.learn_from(["the demmocrats lie"])
        assert "demmocrats" in system.look_up("democrats").tokens


# --------------------------------------------------------------------------- #
# service endpoints
# --------------------------------------------------------------------------- #
class TestServiceBatchEndpoints:
    @pytest.fixture()
    def service(self, system):
        return CrypTextService(system, max_batch_size=4, max_bulk_batch_size=8)

    @pytest.fixture()
    def token(self, service):
        return service.issue_token("tester").token

    def test_batch_lookup_is_order_preserving(self, service, token, system):
        response = service.batch_lookup(token, QUERIES)
        assert response.status == 200
        results = response.body["results"]
        assert [result["query"] for result in results] == QUERIES
        assert response.body["count"] == len(QUERIES)
        assert results[0] == system.look_up("democrats").to_dict()

    def test_batch_normalize_is_order_preserving(self, service, token, system):
        response = service.batch_normalize(token, TEXTS)
        assert response.status == 200
        assert [r["original_text"] for r in response.body["results"]] == TEXTS
        assert response.body["results"][0] == system.normalize(TEXTS[0]).to_dict()

    def test_batch_endpoints_enforce_size_limit(self, service, token):
        response = service.batch_lookup(token, ["word"] * 9)
        assert response.status == 400
        response = service.batch_normalize(token, ["text"] * 9)
        assert response.status == 400

    def test_batch_endpoints_allow_more_than_classic_limit(self, service, token):
        # classic limit is 4, bulk limit is 8
        assert service.lookup(token, ["word"] * 6).status == 400
        assert service.batch_lookup(token, ["word"] * 6).status == 200

    def test_batch_endpoints_require_auth(self, service):
        assert service.batch_lookup(None, ["word"]).status == 401
        assert service.batch_normalize("bogus", ["text"]).status == 401

    def test_bulk_limit_must_dominate_classic_limit(self, system):
        with pytest.raises(Exception):
            CrypTextService(system, max_batch_size=64, max_bulk_batch_size=8)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCliBatch:
    def test_batch_normalize_jsonl(self, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            json.dumps({"text": "the demokrats hate the vacc1ne"})
            + "\n"
            + json.dumps("i ordered from amaz0n")
            + "\n"
        )
        out_path = tmp_path / "out.jsonl"
        code = cli_main(
            [
                "batch", "normalize", "--input", str(path), "--output", str(out_path),
                "--posts", "120", "--seed", "3", "--chunk-size", "2",
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 2
        assert records[0]["normalized"] == "the democrats hate the vaccine"

    def test_batch_lookup_jsonl_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "queries.jsonl"
        path.write_text(json.dumps({"query": "democrats"}) + "\n")
        code = cli_main(
            ["batch", "lookup", "--input", str(path), "--posts", "120", "--seed", "3"]
        )
        captured = capsys.readouterr()
        assert code == 0
        record = json.loads(captured.out.splitlines()[0])
        assert record["query"] == "democrats"
        assert record["perturbations"]

    def test_batch_rejects_malformed_jsonl(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"wrong_field": 1}\n')
        code = cli_main(
            ["batch", "lookup", "--input", str(path), "--posts", "120", "--seed", "3"]
        )
        assert code == 2  # CrypTextError -> exit code 2


# --------------------------------------------------------------------------- #
# social layer
# --------------------------------------------------------------------------- #
class TestSocialBatchPaths:
    def test_listener_batch_expansion_matches_sequential(self, system):
        platform = SocialPlatform("twitter")
        for text in CORPUS:
            platform.ingest_raw(text, created_at="2023-01-16")
        listener = system.social_listener(platform)
        keywords = ["democrats", "vaccine", "democrats"]
        expected = {keyword: listener.expand_keyword(keyword) for keyword in keywords}
        assert listener.expand_keywords(keywords) == expected
        batch = system.look_up_batch(keywords)
        assert expected == {
            keyword: result.perturbation_tokens()[: listener.max_perturbations]
            for keyword, result in zip(keywords, batch)
        }
        assert listener.monitor_keywords(keywords) == {
            keyword: listener.monitor_keyword(keyword) for keyword in keywords
        }

    def test_crawler_with_batch_engine_keeps_lookups_fresh(self, system):
        platform = SocialPlatform("twitter")
        for text in ("the demmocrats lie", "the amazzon box"):
            platform.ingest_raw(text, created_at="2023-01-16")
        engine = system.batch
        engine.look_up_batch(["democrats", "amazon"])  # warm
        crawler = StreamCrawler(platform, system.dictionary, batch_size=10)
        report = crawler.crawl_once()
        assert report is not None
        assert report.tokens_seen == 6  # counted by dictionary.add_corpus
        tokens = engine.look_up_batch(["democrats"])[0].tokens
        assert "demmocrats" in tokens


# --------------------------------------------------------------------------- #
# tagged cache invalidation primitives
# --------------------------------------------------------------------------- #
class TestTaggedCache:
    def test_invalidate_tag_drops_only_tagged_entries(self):
        cache = TTLCache(max_entries=16, default_ttl=60.0)
        cache.set("a", 1, tags=[("sound", 1, "AA")])
        cache.set("b", 2, tags=[("sound", 1, "BB")])
        cache.set("c", 3)
        assert cache.invalidate_tag(("sound", 1, "AA")) == 1
        assert cache.get("a") is None
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_invalidate_untagged(self):
        cache = TTLCache(max_entries=16, default_ttl=60.0)
        cache.set("a", 1, tags=["t"])
        cache.set("b", 2)
        assert cache.invalidate_untagged() == 1
        assert cache.get("a") == 1 and cache.get("b") is None

    def test_eviction_cleans_tag_index(self):
        cache = TTLCache(max_entries=2, default_ttl=60.0)
        cache.set("a", 1, tags=["t"])
        cache.set("b", 2, tags=["t"])
        cache.set("c", 3, tags=["t"])  # evicts "a"
        assert cache.invalidate_tag("t") == 2
        assert len(cache) == 0

    def test_expiry_cleans_tag_index(self):
        now = [0.0]
        cache = TTLCache(max_entries=8, default_ttl=10.0, clock=lambda: now[0])
        cache.set("a", 1, tags=["t"])
        now[0] = 11.0
        assert cache.get("a") is None
        assert cache.invalidate_tag("t") == 0

    def test_overwriting_an_untagged_key_with_tags_untracks_it(self):
        cache = TTLCache(max_entries=8, default_ttl=60.0)
        cache.set("a", 1)
        cache.set("a", 2, tags=["t"])
        assert cache.invalidate_untagged() == 0
        assert cache.get("a") == 2
        cache.set("a", 3)  # and back: untagged again, counted once
        cache.set("a", 4)
        assert cache.invalidate_untagged() == 1
        assert cache.invalidate_tag("t") == 0 and len(cache) == 0

    def test_evicted_untagged_key_is_not_dropped_twice(self):
        cache = TTLCache(max_entries=2, default_ttl=60.0)
        cache.set("a", 1)
        cache.set("b", 2, tags=["t"])
        cache.set("c", 3)  # evicts "a"
        assert cache.invalidate_untagged() == 1
        assert cache.keys() == ("b",)
        assert cache.invalidate_untagged() == 0

    def test_expired_untagged_key_is_not_dropped_twice(self):
        now = [0.0]
        cache = TTLCache(max_entries=8, default_ttl=10.0, clock=lambda: now[0])
        cache.set("a", 1)
        cache.set("b", 2)
        now[0] = 11.0
        assert cache.get("a") is None  # lazy expiry drops it on read
        assert cache.invalidate_untagged() == 1
        assert len(cache) == 0

    def test_clear_forgets_untagged_keys(self):
        cache = TTLCache(max_entries=8, default_ttl=60.0)
        cache.set("a", 1)
        cache.clear()
        cache.set("a", 2, tags=["t"])
        assert cache.invalidate_untagged() == 0
        assert cache.get("a") == 2
