"""Tests for repro.core.lookup (the Look Up function, §III-B)."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro import CrypTextConfig
from repro.core import lookup as lookup_module
from repro.core.dictionary import PerturbationDictionary
from repro.core.lookup import LookupEngine
from repro.storage import TTLCache
from tests.conftest import TABLE1_SENTENCES


@pytest.fixture()
def table1_lookup() -> LookupEngine:
    dictionary = PerturbationDictionary.from_corpus(list(TABLE1_SENTENCES))
    return LookupEngine(dictionary)


class TestPaperQueryExample:
    def test_republicans_with_k1_d1(self, table1_lookup):
        # Paper §III-B: query "republicans" with k=1, d=1 returns
        # {republicans, repubLIEcans} (republic@@ns is 2 edits away).
        result = table1_lookup.look_up("republicans", phonetic_level=1, max_edit_distance=1)
        assert set(result.tokens) == {"republicans", "repubLIEcans"}

    def test_republicans_with_default_d3_includes_all(self, table1_lookup):
        result = table1_lookup.look_up("republicans")
        assert set(result.tokens) == {"republicans", "repubLIEcans", "republic@@ns"}

    def test_perturbations_exclude_the_query_itself(self, table1_lookup):
        result = table1_lookup.look_up("republicans")
        assert "republicans" not in result.perturbation_tokens()
        assert "repubLIEcans" in result.perturbation_tokens()

    def test_soundex_key_recorded(self, table1_lookup):
        result = table1_lookup.look_up("republicans")
        assert result.soundex_key == table1_lookup.dictionary.encoder(1).encode("republicans")


class TestMatchMetadata:
    def test_matches_sorted_by_frequency(self, cryptext_small):
        result = cryptext_small.look_up("the")
        counts = [match.count for match in result.matches]
        assert counts == sorted(counts, reverse=True)

    def test_match_fields(self, table1_lookup):
        result = table1_lookup.look_up("republicans")
        by_token = {match.token: match for match in result.matches}
        assert by_token["republicans"].is_original
        assert by_token["republicans"].edit_distance == 0
        assert by_token["repubLIEcans"].edit_distance == 1
        assert not by_token["repubLIEcans"].is_original

    def test_to_dict_round_trip_fields(self, table1_lookup):
        payload = table1_lookup.look_up("republicans").to_dict()
        assert payload["query"] == "republicans"
        assert payload["phonetic_level"] == 1
        assert payload["max_edit_distance"] == 3
        assert {match["token"] for match in payload["matches"]} == {
            "republicans",
            "repubLIEcans",
            "republic@@ns",
        }

    def test_enriched_queries_start_with_original(self, table1_lookup):
        enriched = table1_lookup.look_up("republicans").enriched_queries()
        assert enriched[0] == "republicans"
        assert len(enriched) == 3
        assert table1_lookup.look_up("republicans").enriched_queries(limit=1) == (
            "republicans",
            table1_lookup.look_up("republicans").perturbation_tokens()[0],
        )


class TestUnknownAndEdgeQueries:
    def test_unknown_word_returns_empty_or_self(self, table1_lookup):
        result = table1_lookup.look_up("zebra")
        assert result.perturbation_tokens() == ()

    def test_unencodable_query(self, table1_lookup):
        result = table1_lookup.look_up("???")
        assert result.soundex_key is None
        assert result.matches == ()

    def test_edit_distance_zero_only_exact_canonical_matches(self, cryptext_small):
        result = cryptext_small.look_up("democrats", max_edit_distance=0)
        for match in result.matches:
            assert match.edit_distance == 0


class TestCaseSensitivity:
    def test_case_insensitive_merges_variants(self):
        dictionary = PerturbationDictionary.from_corpus(
            ["the democRATs", "the DemocRATs", "the democrats"]
        )
        engine = LookupEngine(dictionary)
        sensitive = engine.look_up("democrats", case_sensitive=True)
        insensitive = engine.look_up("democrats", case_sensitive=False)
        assert len(insensitive.matches) < len(sensitive.matches)
        merged = {match.token.lower() for match in insensitive.matches}
        assert merged == {"democrats", "democrats".lower()} or "democrats" in merged

    def test_case_insensitive_sums_counts(self):
        dictionary = PerturbationDictionary.from_corpus(
            ["the democRATs", "the DemocRATs", "the democRATs"]
        )
        engine = LookupEngine(dictionary)
        result = engine.look_up("democrats", case_sensitive=False)
        total = sum(match.count for match in result.matches)
        assert total == 3


class TestCaching:
    def test_cache_hit_on_repeated_query(self):
        dictionary = PerturbationDictionary.from_corpus(list(TABLE1_SENTENCES))
        cache = TTLCache(max_entries=16, default_ttl=60)
        engine = LookupEngine(dictionary, cache=cache)
        engine.look_up("republicans")
        engine.look_up("republicans")
        assert cache.stats.hits >= 1

    def test_cache_disabled_by_config(self):
        config = CrypTextConfig(cache_enabled=False)
        dictionary = PerturbationDictionary.from_corpus(list(TABLE1_SENTENCES), config=config)
        engine = LookupEngine(dictionary, config=config)
        assert engine.cache is None
        assert engine.look_up("republicans").tokens  # still works

    def test_different_parameters_not_conflated_by_cache(self, table1_lookup):
        loose = table1_lookup.look_up("republicans", max_edit_distance=3)
        tight = table1_lookup.look_up("republicans", max_edit_distance=1)
        assert len(loose.matches) > len(tight.matches)


class TestBulkLookup:
    def test_look_up_many(self, table1_lookup):
        results = table1_lookup.look_up_many(["republicans", "dirty"])
        assert set(results) == {"republicans", "dirty"}
        assert "repubLIEcans" in results["republicans"].tokens
        assert "dirrty" in results["dirty"].tokens


class TestTranspositionOverride:
    """Per-query ``use_transpositions`` override (the PR 3 follow-up).

    "teh" and "the" share a sound bucket at phonetic level 0 and differ by
    one adjacent swap — in-bound at ``d = 1`` only under the OSA policy, so
    the override observably flips the result set.
    """

    CORPUS = ["the democrats support the vaccine mandate", "i saw the thing"]

    @pytest.fixture()
    def engine(self) -> LookupEngine:
        config = CrypTextConfig(phonetic_level=0, edit_distance=1)
        dictionary = PerturbationDictionary.from_corpus(self.CORPUS, config=config)
        dictionary.seed_lexicon(["the", "thing", "vaccine"])
        return LookupEngine(dictionary, config=config)

    def test_override_flips_the_swap_result(self, engine):
        assert "the" not in engine.look_up("teh").tokens
        assert "the" in engine.look_up("teh", use_transpositions=True).tokens
        # Explicit False equals the configured default here.
        assert engine.look_up("teh", use_transpositions=False) == engine.look_up("teh")

    def test_override_categorizes_consistently_with_its_policy(self, engine):
        result = engine.look_up("teh", use_transpositions=True)
        categories = {match.token: match.category.value for match in result.matches}
        assert categories["the"] == "adjacent_swap"
        wide = engine.look_up("teh", max_edit_distance=2)
        wide_categories = {match.token: match.category.value for match in wide.matches}
        # Same pair admitted as two plain-Levenshtein edits is not one swap.
        assert wide_categories["the"] == "mixed"

    def test_override_is_part_of_the_cache_key(self, engine):
        osa = engine.look_up("teh", use_transpositions=True)
        plain = engine.look_up("teh")
        assert osa != plain
        # Serve both again from cache: still distinct, no cross-talk.
        assert engine.look_up("teh", use_transpositions=True) == osa
        assert engine.look_up("teh") == plain

    def test_override_matches_config_level_policy(self):
        config = CrypTextConfig(
            phonetic_level=0, edit_distance=1, use_transpositions=True
        )
        dictionary = PerturbationDictionary.from_corpus(self.CORPUS, config=config)
        dictionary.seed_lexicon(["the", "thing", "vaccine"])
        configured = LookupEngine(dictionary, config=config).look_up("teh")
        overridden = self._engine_with_default_policy().look_up(
            "teh", use_transpositions=True
        )
        assert configured.tokens == overridden.tokens

    def _engine_with_default_policy(self) -> LookupEngine:
        config = CrypTextConfig(phonetic_level=0, edit_distance=1)
        dictionary = PerturbationDictionary.from_corpus(self.CORPUS, config=config)
        dictionary.seed_lexicon(["the", "thing", "vaccine"])
        return LookupEngine(dictionary, config=config)

    def test_batch_engine_honours_the_override(self):
        from repro.batch import BatchEngine

        config = CrypTextConfig(phonetic_level=0, edit_distance=1)
        dictionary = PerturbationDictionary.from_corpus(self.CORPUS, config=config)
        dictionary.seed_lexicon(["the", "thing", "vaccine"])
        engine = BatchEngine(dictionary, config=config)
        sequential = engine.lookup_engine.look_up("teh", use_transpositions=True)
        (batched,) = engine.look_up_batch(["teh"], use_transpositions=True)
        assert batched == sequential
        (plain,) = engine.look_up_batch(["teh"])
        assert "the" not in plain.tokens


class TestCategorizeOncePerMatch:
    """Look Up calls ``repro.core.lookup.categorize_perturbation`` once per
    non-identical match, by that name (the per-layer tracer wraps it), and
    hands it the query's record and the entry's cached one."""

    QUERIES = ("republicans", "democrats", "vaccine", "repubLIEcans")

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "linear"])
    def test_one_call_per_non_identical_match(self, monkeypatch, compiled):
        config = CrypTextConfig(compiled_buckets=compiled, cache_enabled=False)
        dictionary = PerturbationDictionary.from_corpus(list(TABLE1_SENTENCES), config=config)
        engine = LookupEngine(dictionary, config=config)
        calls = []
        categorize = lookup_module.categorize_perturbation

        def counting(original, perturbed, *args, **kwargs):
            calls.append((original, perturbed, kwargs["features"]))
            return categorize(original, perturbed, *args, **kwargs)

        monkeypatch.setattr(lookup_module, "categorize_perturbation", counting)
        matched = 0
        for query in self.QUERIES:
            calls.clear()
            result = engine.look_up(query)
            perturbations = sorted(match.token for match in result.perturbations)
            matched += len(perturbations)
            assert sorted(perturbed for _, perturbed, _ in calls) == perturbations
            # One query record per query, describing the query; each entry
            # record describes its token.
            assert len({id(features[0]) for _, _, features in calls}) <= 1
            for original, perturbed, (query_record, entry_record) in calls:
                assert (original, query_record.text) == (query, query)
                assert entry_record.text == perturbed
        assert matched >= 4

    def test_compiled_entries_keep_their_record(self, monkeypatch):
        config = CrypTextConfig(cache_enabled=False)
        dictionary = PerturbationDictionary.from_corpus(list(TABLE1_SENTENCES), config=config)
        engine = LookupEngine(dictionary, config=config)
        seen = []
        categorize = lookup_module.categorize_perturbation

        def recording(original, perturbed, *args, **kwargs):
            seen.append(kwargs["features"][1])
            return categorize(original, perturbed, *args, **kwargs)

        monkeypatch.setattr(lookup_module, "categorize_perturbation", recording)
        first = engine.look_up("republicans")
        records, seen[:] = list(seen), []
        assert engine.look_up("republicans") == first
        assert records and [id(record) for record in seen] == [id(record) for record in records]


class TestResultRecords:
    """Matches and results are slotted, frozen, hashable value records."""

    def test_frozen_hashable_and_equal_by_value(self):
        config = CrypTextConfig(cache_enabled=False)
        dictionary = PerturbationDictionary.from_corpus(list(TABLE1_SENTENCES), config=config)
        engine = LookupEngine(dictionary, config=config)
        result, twin = engine.look_up("republicans"), engine.look_up("republicans")
        assert result is not twin and result == twin and hash(result) == hash(twin)
        match = result.matches[0]
        assert match == twin.matches[0] and hash(match) == hash(twin.matches[0])
        assert len({result, twin}) == 1
        for record, field_name in ((result, "query"), (match, "count")):
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field_name, getattr(record, field_name))
            assert copy.copy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record
        assert dataclasses.replace(match, count=match.count + 1) != match
