"""Tests for repro.storage.persistence (JSONL dump/load)."""

from __future__ import annotations

import pytest

from repro.errors import PersistenceError
from repro.storage import (
    Collection,
    DocumentStore,
    dump_collection,
    dump_store,
    iter_jsonl,
    load_collection,
    load_store,
    write_jsonl,
)


@pytest.fixture()
def sample_collection() -> Collection:
    collection = Collection("tokens")
    collection.insert_many(
        [
            {"token": "democrats", "count": 3, "keys": {"k1": "DE52632"}},
            {"token": "dem0cr@ts", "count": 1, "keys": {"k1": "DE52632"}},
            {"token": "vaccine", "count": 5, "keys": {"k1": "VA250"}},
        ]
    )
    return collection


class TestDumpLoadCollection:
    def test_round_trip(self, sample_collection, tmp_path):
        path = tmp_path / "tokens.jsonl"
        written = dump_collection(sample_collection, path)
        assert written == 3
        restored = Collection("tokens")
        loaded = load_collection(restored, path)
        assert loaded == 3
        assert {doc["token"] for doc in restored} == {"democrats", "dem0cr@ts", "vaccine"}

    def test_round_trip_preserves_unicode(self, tmp_path):
        collection = Collection("c")
        collection.insert_one({"token": "ḋemocrāts", "note": "ünïcode"})
        path = tmp_path / "c.jsonl"
        dump_collection(collection, path)
        restored = Collection("c")
        load_collection(restored, path)
        assert restored.find_one({"token": "ḋemocrāts"})["note"] == "ünïcode"

    def test_load_replaces_by_default(self, sample_collection, tmp_path):
        path = tmp_path / "tokens.jsonl"
        dump_collection(sample_collection, path)
        target = Collection("tokens")
        target.insert_one({"token": "stale", "_id": "old"})
        load_collection(target, path)
        assert target.find_one({"token": "stale"}) is None

    def test_load_merge_mode(self, sample_collection, tmp_path):
        path = tmp_path / "tokens.jsonl"
        dump_collection(sample_collection, path)
        target = Collection("tokens")
        target.insert_one({"token": "kept", "_id": "keep-me"})
        load_collection(target, path, clear=False)
        assert target.find_one({"token": "kept"}) is not None
        assert len(target) == 4

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_collection(Collection("c"), tmp_path / "missing.jsonl")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_collection(Collection("c"), path)

    def test_load_non_object_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_collection(Collection("c"), path)

    def test_dump_creates_parent_directories(self, sample_collection, tmp_path):
        nested = tmp_path / "a" / "b" / "tokens.jsonl"
        dump_collection(sample_collection, nested)
        assert nested.exists()

    def test_dump_unserializable_value(self, tmp_path):
        collection = Collection("c")
        collection.insert_one({"bad": object()})
        with pytest.raises(PersistenceError):
            dump_collection(collection, tmp_path / "c.jsonl")


class TestStoreLevel:
    def test_dump_and_load_store(self, tmp_path):
        store = DocumentStore("db")
        store["tokens"].insert_many([{"a": 1}, {"a": 2}])
        store["posts"].insert_one({"text": "hello"})
        written = dump_store(store, tmp_path)
        assert written == {"posts": 1, "tokens": 2}
        restored = DocumentStore("db2")
        loaded = load_store(restored, tmp_path)
        assert loaded == {"posts": 1, "tokens": 2}
        assert len(restored["tokens"]) == 2

    def test_load_store_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_store(DocumentStore(), tmp_path / "nowhere")

    def test_iter_jsonl(self, sample_collection, tmp_path):
        path = tmp_path / "tokens.jsonl"
        dump_collection(sample_collection, path)
        documents = list(iter_jsonl(path))
        assert len(documents) == 3
        assert all(isinstance(document, dict) for document in documents)

    def test_iter_jsonl_missing(self, tmp_path):
        with pytest.raises(PersistenceError):
            list(iter_jsonl(tmp_path / "missing.jsonl"))


class TestDictionaryPersistence:
    def test_dictionary_collection_round_trip(self, tmp_path, small_corpus):
        from repro.core.dictionary import PerturbationDictionary

        dictionary = PerturbationDictionary.from_corpus(small_corpus)
        path = tmp_path / "dictionary.jsonl"
        write_jsonl(path, dictionary.documents())
        fresh = PerturbationDictionary()
        fresh.replace_documents(iter_jsonl(path))
        assert len(fresh) == len(dictionary)
        assert {e.token for e in fresh.bucket_for_token("republicans")} == {
            e.token for e in dictionary.bucket_for_token("republicans")
        }
