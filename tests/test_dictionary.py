"""Tests for repro.core.dictionary (the human-written token database)."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrypTextConfig
from repro.core.dictionary import AddOutcome, PerturbationDictionary
from repro.errors import DictionaryError
from repro.wal import ChangeLog, wal_directory_for
from tests.conftest import TABLE1_SENTENCES


@pytest.fixture()
def table1_dictionary() -> PerturbationDictionary:
    """Dictionary built from exactly the paper's Table I corpus."""
    return PerturbationDictionary.from_corpus(list(TABLE1_SENTENCES))


class TestTable1:
    """Reproduction of the paper's Table I hash-map H1."""

    def test_three_phonetic_buckets(self, table1_dictionary):
        hashmap = table1_dictionary.hashmap(phonetic_level=1)
        assert len(hashmap) == 3

    def test_the_bucket(self, table1_dictionary):
        hashmap = table1_dictionary.hashmap(phonetic_level=1)
        assert hashmap["TH000"] == {"the", "thee"}

    def test_dirty_bucket(self, table1_dictionary):
        # The paper's example corpus spells the perturbation "dirrty"; the
        # key must match Table I's "DI630" and group it with "dirty".
        hashmap = table1_dictionary.hashmap(phonetic_level=1)
        assert hashmap["DI630"] == {"dirty", "dirrty"}

    def test_republicans_bucket_groups_all_three_spellings(self, table1_dictionary):
        hashmap = table1_dictionary.hashmap(phonetic_level=1)
        key = table1_dictionary.encoder(1).encode("republicans")
        assert hashmap[key] == {"republicans", "repubLIEcans", "republic@@ns"}

    def test_raw_tokens_are_case_sensitive(self, table1_dictionary):
        assert "repubLIEcans" in table1_dictionary
        assert "republiecans" not in table1_dictionary


class TestAddToken:
    def test_add_and_count(self):
        dictionary = PerturbationDictionary()
        assert dictionary.add_token("vacc1ne")
        assert dictionary.add_token("vacc1ne")
        entry = dictionary.entry("vacc1ne")
        assert entry is not None
        assert entry.count == 2

    def test_add_with_sources(self):
        dictionary = PerturbationDictionary()
        dictionary.add_token("vacc1ne", source="twitter")
        dictionary.add_token("vacc1ne", source="reddit")
        dictionary.add_token("vacc1ne", source="twitter")
        entry = dictionary.entry("vacc1ne")
        assert set(entry.sources) == {"twitter", "reddit"}

    def test_unencodable_token_skipped(self):
        dictionary = PerturbationDictionary()
        assert not dictionary.add_token("???")
        assert len(dictionary) == 0

    def test_invalid_count_rejected(self):
        with pytest.raises(DictionaryError):
            PerturbationDictionary().add_token("vaccine", count=0)

    @pytest.mark.parametrize(
        "write",
        [
            lambda d: d.add_token("vacc\ud800ne"),
            lambda d: d.add_token("vaccine", source="twitter\udc00"),
            lambda d: d.seed_lexicon(["vaccine", "\udfffvacc1ne"]),
        ],
        ids=["token", "source", "batch"],
    )
    def test_surrogate_text_is_refused_before_anything_changes(self, tmp_path, write):
        # UTF-8 cannot encode a surrogate, so such a token would break the
        # journal, the fingerprint and every later save.
        dictionary = PerturbationDictionary.from_corpus(["the vaccine mandate"])
        dictionary.attach_wal(ChangeLog(tmp_path / "wal"))
        before = dictionary.documents()
        state, version = dictionary.dirty_state(), dictionary.version
        with pytest.raises(DictionaryError, match="surrogate"):
            write(dictionary)
        assert dictionary.documents() == before
        assert (dictionary.dirty_state(), dictionary.version) == (state, version)
        assert list(dictionary.wal.iter_records()) == []
        dictionary.content_fingerprint()
        dictionary.save_snapshot(tmp_path / "snapshot.json")

    def test_is_word_flag(self):
        dictionary = PerturbationDictionary()
        dictionary.add_token("vaccine")
        dictionary.add_token("vacc1ne")
        assert dictionary.entry("vaccine").is_word
        assert not dictionary.entry("vacc1ne").is_word

    def test_outcome_distinguishes_insert_from_update(self):
        dictionary = PerturbationDictionary()
        assert dictionary.add_token("vacc1ne") is AddOutcome.INSERTED
        assert dictionary.add_token("vacc1ne") is AddOutcome.UPDATED
        assert dictionary.add_token("???") is AddOutcome.SKIPPED
        # Truthiness is preserved for the existing boolean call sites.
        assert AddOutcome.INSERTED and AddOutcome.UPDATED and not AddOutcome.SKIPPED

    def test_entry_keys_cover_all_levels(self):
        dictionary = PerturbationDictionary()
        dictionary.add_token("vaccine")
        entry = dictionary.entry("vaccine")
        assert set(entry.keys) == {"k0", "k1", "k2"}
        assert entry.key_at(1) == dictionary.encoder(1).encode("vaccine")
        assert entry.key_at(9) is None


class TestCorpusConstruction:
    def test_add_text_tokenizes(self):
        dictionary = PerturbationDictionary()
        added = dictionary.add_text("the demokrats hate the vacc1ne")
        assert added == 5
        assert "demokrats" in dictionary
        assert "vacc1ne" in dictionary

    def test_add_corpus_counts_duplicates(self):
        dictionary = PerturbationDictionary()
        dictionary.add_corpus(["the the the", "the vaccine"])
        assert dictionary.entry("the").count == 4

    def test_mentions_and_urls_excluded(self):
        dictionary = PerturbationDictionary()
        dictionary.add_text("@user shares https://example.com about vaccine")
        assert "@user" not in dictionary
        assert "vaccine" in dictionary

    def test_seed_lexicon_adds_english_words(self):
        dictionary = PerturbationDictionary()
        added = dictionary.seed_lexicon(words=["vaccine", "democrats"])
        assert added == 2
        assert dictionary.entry("vaccine").is_word

    def test_seed_lexicon_counts_only_new_insertions(self):
        dictionary = PerturbationDictionary()
        dictionary.add_token("vaccine", source="corpus")
        # "vaccine" already exists, so only "democrats" is an actual add.
        assert dictionary.seed_lexicon(words=["vaccine", "democrats"]) == 1
        # Re-seeding adds nothing — every word only gets a count bump.
        assert dictionary.seed_lexicon(words=["vaccine", "democrats"]) == 0

    def test_from_corpus_factory(self):
        dictionary = PerturbationDictionary.from_corpus(
            ["the vaccine mandate"], seed_lexicon=False, source="unit"
        )
        assert "mandate" in dictionary
        assert dictionary.entry("mandate").sources == ("unit",)


class TestReplaceDocuments:
    def test_a_replaced_dictionary_starts_a_new_chain(self, tmp_path):
        from repro.storage import SNAPSHOT_FILE_NAME
        from repro.wal.delta import resolve_snapshot_chain

        dictionary = PerturbationDictionary.from_corpus(["the vaccine mandate"])
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        other = PerturbationDictionary.from_corpus(["the demokrats hate the vacc1ne"])
        dictionary.replace_documents(other.documents())
        assert dictionary.documents() == other.documents()
        assert dictionary.add_token("demmocrats") is AddOutcome.INSERTED
        assert dictionary.entry("demmocrats") is not None
        assert max(d["_id"] for d in dictionary.documents()) == len(other) + 1
        # No delta may extend the chain the old state saved: the incremental
        # save rewrites the base in full.
        report = dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        assert not report.incremental
        chain = resolve_snapshot_chain(tmp_path)
        assert list(chain.snapshot.documents) == dictionary.documents()

    def test_malformed_documents_change_nothing(self):
        dictionary = PerturbationDictionary.from_corpus(["the vaccine mandate"])
        before, version = dictionary.documents(), dictionary.version
        for documents in ([*before, {"token": "x"}], [*before, before[0]]):
            with pytest.raises(DictionaryError):
                dictionary.replace_documents(documents)
        assert dictionary.documents() == before and dictionary.version == version

    def test_a_surrogate_token_changes_nothing(self):
        dictionary = PerturbationDictionary.from_corpus(["the vaccine mandate"])
        before = dictionary.documents()
        state, version = dictionary.dirty_state(), dictionary.version
        other = PerturbationDictionary.from_corpus(["the vaccine mandate"]).documents()
        other[-1]["token"] = "mand\ud800te"
        with pytest.raises(DictionaryError, match="surrogate"):
            dictionary.replace_documents(other)
        assert dictionary.documents() == before
        assert (dictionary.dirty_state(), dictionary.version) == (state, version)


class TestBucketQueries:
    def test_bucket_for_token_contains_perturbations(self, table1_dictionary):
        bucket = {entry.token for entry in table1_dictionary.bucket_for_token("republicans")}
        assert bucket == {"republicans", "repubLIEcans", "republic@@ns"}

    def test_bucket_for_unencodable_token_is_empty(self, table1_dictionary):
        assert table1_dictionary.bucket_for_token("???") == []

    def test_tokens_for_unknown_key_is_empty(self, table1_dictionary):
        assert table1_dictionary.tokens_for_key("ZZ999") == []

    def test_unmaterialized_level_rejected(self, table1_dictionary):
        with pytest.raises(DictionaryError):
            table1_dictionary.tokens_for_key("TH000", phonetic_level=7)
        with pytest.raises(DictionaryError):
            table1_dictionary.hashmap(phonetic_level=7)
        with pytest.raises(DictionaryError):
            table1_dictionary.encoder(7)

    def test_english_words_for_key(self):
        dictionary = PerturbationDictionary.from_corpus(
            ["the demokrats and democrats"], seed_lexicon=False
        )
        key = dictionary.encoder(1).encode("democrats")
        english = {entry.token for entry in dictionary.english_words_for_key(key)}
        assert english == {"democrats"}

    def test_respects_config_max_level(self):
        config = CrypTextConfig(phonetic_level=0, max_phonetic_level=0)
        dictionary = PerturbationDictionary(config=config)
        dictionary.add_token("vaccine")
        assert dictionary.phonetic_levels == (0,)
        with pytest.raises(DictionaryError):
            dictionary.tokens_for_key("VA250", phonetic_level=1)


class TestCompiledBucketLRU:
    def test_hot_bucket_survives_cold_sweep(self):
        config = CrypTextConfig(cache_max_entries=2)
        dictionary = PerturbationDictionary.from_corpus(
            ["the vaccine mandate"], config=config
        )
        encoder = dictionary.encoder(1)
        k_the, k_vac, k_man = (
            encoder.encode(word) for word in ("the", "vaccine", "mandate")
        )
        hot = dictionary.compiled_bucket(k_the)
        dictionary.compiled_bucket(k_vac)
        # A cache hit refreshes recency, so overflowing the capacity evicts
        # the cold "vaccine" bucket, not the hot "the" bucket (under the old
        # FIFO guard the oldest *insertion* — the hot bucket — was evicted).
        assert dictionary.compiled_bucket(k_the) is hot
        dictionary.compiled_bucket(k_man)
        assert dictionary.compiled_bucket(k_the) is hot
        assert set(dictionary._compiled) == {(1, k_the), (1, k_man)}

    def test_eviction_does_not_affect_correctness(self):
        config = CrypTextConfig(cache_max_entries=1)
        dictionary = PerturbationDictionary.from_corpus(
            ["the vaccine mandate"], config=config
        )
        encoder = dictionary.encoder(1)
        for word in ("the", "vaccine", "mandate", "the", "vaccine"):
            bucket = dictionary.compiled_bucket(encoder.encode(word))
            assert word in {entry.token for entry in bucket}
            assert len(dictionary._compiled) <= 1


class TestStats:
    def test_stats_counts(self, table1_dictionary):
        stats = table1_dictionary.stats()
        assert stats.total_tokens == 7  # the, thee, dirty, dirrrty, 3x republicans forms
        assert stats.total_occurrences == 9  # 3 sentences x 3 tokens
        assert stats.unique_keys[1] == 3
        assert stats.perturbation_tokens + stats.lexicon_tokens == stats.total_tokens

    def test_tokens_per_key_ratio(self, table1_dictionary):
        stats = table1_dictionary.stats()
        assert stats.tokens_per_key[1] == pytest.approx(7 / 3)

    def test_stats_serialization(self, table1_dictionary):
        payload = table1_dictionary.stats().to_dict()
        assert payload["total_tokens"] == 7
        assert payload["unique_keys"]["1"] == 3

    def test_token_counts_mapping(self, table1_dictionary):
        counts = table1_dictionary.token_counts()
        assert counts["the"] == 2
        assert counts["dirty"] == 2

    def test_iter_entries_matches_len(self, table1_dictionary):
        assert len(list(table1_dictionary.iter_entries())) == len(table1_dictionary)


# Spellings that exercise every branch of the write path: repeats, case,
# leet, accents, a zero-width space, and tokens with no phonetic content.
_SPELLINGS = (
    "the", "The", "THE", "thee", "vaccine", "Vacc1ne", "v@ccine", "vaccíne",
    "vac\u200bcine", "démocrats", "democrats", "demokrats", "mus-lim",
    "dirrrty", "dirty", "???", "!!!", "...", "😀😀", "#", "42",
)
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_SPELLINGS), max_size=8).map(" ".join),
    st.text(max_size=12),
)
_BATCHES = st.lists(st.lists(_TEXTS, max_size=5), min_size=1, max_size=3)
_SOURCES = st.sampled_from([None, "", "corpus", "stream"])
_WRITES = ("add_corpus", "add_text", "learn_batch", "seed_lexicon")


def _write(dictionary: PerturbationDictionary, method: str, batch, source) -> int:
    """One batch through ``method``; the summed return value."""
    if method == "add_text":
        return sum(dictionary.add_text(text, source=source) for text in batch)
    if method == "seed_lexicon":
        return dictionary.seed_lexicon(batch)
    return getattr(dictionary, method)(batch, source=source)


def _reference(method: str, batches, source) -> tuple[PerturbationDictionary, list[int]]:
    """The same writes as one ``add_token`` call per occurrence."""
    reference = PerturbationDictionary()
    returned = []
    for batch in batches:
        if method == "seed_lexicon":
            outcomes = [reference.add_token(word, source="lexicon") for word in batch]
            returned.append(outcomes.count(AddOutcome.INSERTED))
            continue
        outcomes = [
            reference.add_token(token.text, source=source)
            for text in batch
            for token in reference.tokenizer.word_tokens(text)
        ]
        returned.append(sum(1 for outcome in outcomes if outcome))
    return reference, returned


def _assert_same_state(actual: PerturbationDictionary, expected: PerturbationDictionary):
    # documents() returns whole documents in _id order: _id, token,
    # canonical, keys, count, is_word and sources (in order) must all agree.
    assert actual.documents() == expected.documents()
    assert actual.content_fingerprint() == expected.content_fingerprint()
    for level in expected.phonetic_levels:
        for key in expected.hashmap(phonetic_level=level):
            assert actual.tokens_for_key(key, level) == expected.tokens_for_key(key, level)
    actual_stats, expected_stats = actual.stats().to_dict(), expected.stats().to_dict()
    actual_stats.pop("compiled_cache")
    expected_stats.pop("compiled_cache")
    assert actual_stats == expected_stats


class TestBatchWriteEquivalence:
    """Every batch write equals one ``add_token`` per token occurrence."""

    @pytest.mark.parametrize("method", _WRITES)
    @settings(max_examples=100, deadline=None)
    @given(batches=_BATCHES, source=_SOURCES)
    def test_batch_write_equals_per_occurrence_adds(self, method, batches, source):
        reference, expected_returns = _reference(method, batches, source)
        dictionary = PerturbationDictionary()
        returns = [_write(dictionary, method, batch, source) for batch in batches]
        assert returns == expected_returns
        _assert_same_state(dictionary, reference)

    @pytest.mark.parametrize("method", _WRITES)
    @settings(max_examples=25, deadline=None)
    @given(batches=_BATCHES, source=_SOURCES)
    def test_journaled_batch_writes_recover_to_the_reference(self, method, batches, source):
        reference, _ = _reference(method, batches, source)
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            victim = PerturbationDictionary()
            victim.attach_wal(ChangeLog(wal_directory_for(work)))
            for batch in batches:
                _write(victim, method, batch, source)
            victim.wal.close()
            recovered = PerturbationDictionary()
            recovered.recover(work)
            recovered.wal.close()
        _assert_same_state(recovered, reference)

    def test_one_batch_is_one_record_one_version_and_one_notification(self, tmp_path):
        class Recorder:
            def __init__(self):
                self.calls = []

            def note_changes(self, changed_keys):
                self.calls.append(set(changed_keys))

        dictionary = PerturbationDictionary()
        dictionary.attach_wal(ChangeLog(wal_directory_for(tmp_path)))
        recorder = Recorder()
        dictionary.register_observer(recorder)
        recorded = dictionary.add_corpus(
            ["the vacc1ne ??? the", "", "Vacc1ne the"], source="corpus"
        )
        assert recorded == 5
        assert dictionary.version == 1
        assert [record.op for record in dictionary.wal.iter_records()] == ["learn_batch"]
        [record] = dictionary.wal.iter_records()
        assert record.payload["tokens"] == [["the", 3], ["vacc1ne", 1], ["Vacc1ne", 1]]
        expected = {
            (level, dictionary.encoder(level).encode(token))
            for level in dictionary.phonetic_levels
            for token in ("the", "vacc1ne")
        }
        assert recorder.calls == [expected]
        # A batch with nothing encodable writes nothing at all.
        assert dictionary.add_corpus(["??? !!!", ""]) == 0
        assert dictionary.version == 1
        assert len(list(dictionary.wal.iter_records())) == 1
        assert len(recorder.calls) == 1
        # add_token stays a one-token write with its own record.
        assert dictionary.add_token("vaccine", source="x") is AddOutcome.INSERTED
        assert dictionary.version == 2
        assert [record.op for record in dictionary.wal.iter_records()][-1] == "add_token"
        dictionary.wal.close()

    def test_per_token_journal_still_replays(self, tmp_path):
        """A journal written one ``add_token`` record per occurrence (the
        format before batch writes) recovers to the same dictionary."""
        texts = ["the demokrats hate the vacc1ne", "The vaccine works"]
        reference, _ = _reference("add_corpus", [texts], "corpus")
        wal = ChangeLog(wal_directory_for(tmp_path))
        for text in texts:
            for token in reference.tokenizer.word_tokens(text):
                wal.append(
                    "add_token", {"token": token.text, "source": "corpus", "count": 1}
                )
        wal.close()
        recovered = PerturbationDictionary()
        report = recovered.recover(tmp_path)
        assert report.replayed_records == 8
        recovered.wal.close()
        _assert_same_state(recovered, reference)
