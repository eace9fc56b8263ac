"""Tests for repro.storage.document_store."""

from __future__ import annotations

import pytest

from repro.errors import DocumentNotFoundError, DuplicateKeyError, QueryError, StorageError
from repro.storage import Collection, DocumentStore


@pytest.fixture()
def tokens() -> Collection:
    collection = Collection("tokens")
    collection.insert_many(
        [
            {"token": "democrats", "count": 10, "is_word": True, "keys": {"k1": "DE52632"}},
            {"token": "demokrats", "count": 2, "is_word": False, "keys": {"k1": "DE52632"}},
            {"token": "vaccine", "count": 7, "is_word": True, "keys": {"k1": "VA250"}},
            {"token": "vacc1ne", "count": 1, "is_word": False, "keys": {"k1": "VA250"}},
        ]
    )
    return collection


class TestInsert:
    def test_insert_assigns_ids(self):
        collection = Collection("c")
        first = collection.insert_one({"a": 1})
        second = collection.insert_one({"a": 2})
        assert first != second
        assert len(collection) == 2

    def test_insert_with_explicit_id(self):
        collection = Collection("c")
        assert collection.insert_one({"_id": "x", "a": 1}) == "x"
        assert collection.get("x")["a"] == 1

    def test_duplicate_id_rejected(self):
        collection = Collection("c")
        collection.insert_one({"_id": 1})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(StorageError):
            Collection("c").insert_one(["not", "a", "doc"])  # type: ignore[arg-type]

    def test_inserted_document_is_copied(self):
        collection = Collection("c")
        original = {"a": [1, 2]}
        doc_id = collection.insert_one(original)
        original["a"].append(3)
        assert collection.get(doc_id)["a"] == [1, 2]


class TestFind:
    def test_find_all(self, tokens):
        assert len(tokens.find()) == 4

    def test_find_with_filter(self, tokens):
        results = tokens.find({"is_word": True})
        assert {doc["token"] for doc in results} == {"democrats", "vaccine"}

    def test_find_with_operators(self, tokens):
        results = tokens.find({"count": {"$gte": 7}})
        assert {doc["token"] for doc in results} == {"democrats", "vaccine"}

    def test_find_one(self, tokens):
        assert tokens.find_one({"token": "vaccine"})["count"] == 7
        assert tokens.find_one({"token": "nope"}) is None

    def test_sort_and_limit(self, tokens):
        results = tokens.find(sort="count", reverse=True, limit=2)
        assert [doc["token"] for doc in results] == ["democrats", "vaccine"]

    def test_projection(self, tokens):
        results = tokens.find({"token": "vaccine"}, projection=["count"])
        assert set(results[0]) == {"_id", "count"}

    def test_returned_documents_are_copies(self, tokens):
        doc = tokens.find_one({"token": "vaccine"})
        doc["count"] = 999
        assert tokens.find_one({"token": "vaccine"})["count"] == 7

    def test_get_missing_raises(self, tokens):
        with pytest.raises(DocumentNotFoundError):
            tokens.get("missing-id")

    def test_count(self, tokens):
        assert tokens.count() == 4
        assert tokens.count({"is_word": False}) == 2

    def test_distinct(self, tokens):
        assert set(tokens.distinct("is_word")) == {True, False}

    def test_aggregate_counts(self, tokens):
        counts = tokens.aggregate_counts("is_word")
        assert counts == {True: 2, False: 2}

    def test_contains_and_iter(self, tokens):
        doc_id = tokens.find_one({"token": "vaccine"})["_id"]
        assert doc_id in tokens
        assert len(list(iter(tokens))) == 4


class TestIndexes:
    def test_index_accelerated_find_matches_scan(self, tokens):
        scan = tokens.find({"keys.k1": "VA250"})
        tokens.create_index("keys.k1")
        indexed = tokens.find({"keys.k1": "VA250"})
        assert {doc["token"] for doc in scan} == {doc["token"] for doc in indexed}

    def test_index_with_in_filter(self, tokens):
        tokens.create_index("token")
        results = tokens.find({"token": {"$in": ["vaccine", "vacc1ne"]}})
        assert {doc["token"] for doc in results} == {"vaccine", "vacc1ne"}

    def test_index_maintained_on_insert_and_delete(self, tokens):
        tokens.create_index("token")
        tokens.insert_one({"token": "mandate", "count": 5, "is_word": True, "keys": {"k1": "MA533"}})
        assert tokens.find_one({"token": "mandate"}) is not None
        tokens.delete_many({"token": "mandate"})
        assert tokens.find_one({"token": "mandate"}) is None

    def test_multikey_index(self):
        collection = Collection("posts")
        collection.create_index("tags", multi=True)
        collection.insert_one({"text": "a", "tags": ["vaccine", "mandate"]})
        collection.insert_one({"text": "b", "tags": ["politics"]})
        results = collection.find({"tags": {"$in": ["vaccine"]}})
        assert len(results) == 1 and results[0]["text"] == "a"

    def test_index_fields_listing(self, tokens):
        tokens.create_index("token")
        assert "token" in tokens.index_fields
        tokens.drop_index("token")
        assert "token" not in tokens.index_fields


class TestUpdateDelete:
    def test_update_set(self, tokens):
        assert tokens.update_one({"token": "vaccine"}, {"$set": {"count": 11}})
        assert tokens.find_one({"token": "vaccine"})["count"] == 11

    def test_update_inc(self, tokens):
        tokens.update_one({"token": "vaccine"}, {"$inc": {"count": 3}})
        assert tokens.find_one({"token": "vaccine"})["count"] == 10

    def test_update_add_to_set(self, tokens):
        tokens.update_one({"token": "vaccine"}, {"$addToSet": {"sources": "twitter"}})
        tokens.update_one({"token": "vaccine"}, {"$addToSet": {"sources": "twitter"}})
        assert tokens.find_one({"token": "vaccine"})["sources"] == ["twitter"]

    def test_update_push_appends(self, tokens):
        tokens.update_one({"token": "vaccine"}, {"$push": {"log": "a"}})
        tokens.update_one({"token": "vaccine"}, {"$push": {"log": "a"}})
        assert tokens.find_one({"token": "vaccine"})["log"] == ["a", "a"]

    def test_update_missing_without_upsert(self, tokens):
        assert not tokens.update_one({"token": "nope"}, {"$set": {"count": 1}})

    def test_upsert_creates_document(self, tokens):
        assert tokens.update_one({"token": "booster"}, {"$set": {"count": 1}}, upsert=True)
        assert tokens.find_one({"token": "booster"})["count"] == 1

    def test_unknown_update_operator_rejected(self, tokens):
        with pytest.raises(QueryError):
            tokens.update_one({"token": "vaccine"}, {"$rename": {"count": "n"}})

    def test_delete_many(self, tokens):
        assert tokens.delete_many({"is_word": False}) == 2
        assert len(tokens) == 2

    def test_delete_all(self, tokens):
        assert tokens.delete_many() == 4
        assert len(tokens) == 0

    def test_clear_keeps_indexes(self, tokens):
        tokens.create_index("token")
        tokens.clear()
        assert len(tokens) == 0
        assert "token" in tokens.index_fields

    def test_replace_one_missing_raises(self, tokens):
        with pytest.raises(DocumentNotFoundError):
            tokens.replace_one("nope", {"token": "x"})


class TestUpdateValueSemantics:
    """``update_one`` replaces the stored version with a shallow copy."""

    def test_documents_read_before_an_update_are_unchanged(self, tokens):
        found = tokens.find_one({"token": "vaccine"})
        iterated = next(doc for doc in tokens if doc["token"] == "vaccine")
        # A started iterator holds the stored versions and copies each one
        # only when it reaches it, after the update below.
        pending = iter(tokens)
        assert next(pending)["token"] == "democrats"
        tokens.update_one(
            {"token": "vaccine"},
            {"$inc": {"count": 1}, "$set": {"keys": {"k1": "VX000"}},
             "$addToSet": {"sources": "a"}, "$push": {"log": "b"}},
        )
        for document in (found, iterated):
            assert document["count"] == 7 and document["keys"] == {"k1": "VA250"}
            assert "sources" not in document and "log" not in document
        # The stored version a reader holds is never changed in place.
        assert [doc for doc in pending if doc["token"] == "vaccine"] == [iterated]
        after = tokens.find_one({"token": "vaccine"})
        assert after["count"] == 8 and after["sources"] == ["a"] and after["log"] == ["b"]

    def test_arguments_mutated_after_the_call_do_not_reach_the_store(self, tokens):
        value = {"k1": "VX000"}
        member = ["x"]
        pushed = {"n": 1}
        tokens.update_one(
            {"token": "vaccine"},
            {"$set": {"keys": value}, "$addToSet": {"tags": member}, "$push": {"log": pushed}},
        )
        value["k1"] = "ZZ999"
        member.append("y")
        pushed["n"] = 2
        stored = tokens.find_one({"token": "vaccine"})
        assert stored["keys"] == {"k1": "VX000"}
        assert stored["tags"] == [["x"]]
        assert stored["log"] == [{"n": 1}]

    def test_set_on_an_indexed_field_moves_the_document(self, tokens):
        tokens.create_index("keys.k1")
        tokens.create_index("token")
        tokens.update_one({"token": "vacc1ne"}, {"$set": {"keys": {"k1": "DE52632"}}})
        assert {doc["token"] for doc in tokens.find({"keys.k1": "VA250"})} == {"vaccine"}
        assert {doc["token"] for doc in tokens.find({"keys.k1": "DE52632"})} == {
            "democrats", "demokrats", "vacc1ne",
        }
        tokens.update_one({"token": "vacc1ne"}, {"$set": {"token": "vaxx"}})
        assert tokens.find_one({"token": "vacc1ne"}) is None
        assert tokens.find_one({"token": "vaxx"})["keys"] == {"k1": "DE52632"}

    def test_update_of_an_unindexed_field_keeps_lookups_correct(self, tokens):
        tokens.create_index("keys.k1")
        tokens.create_index("token")
        for _ in range(3):
            tokens.update_one({"token": "vacc1ne"}, {"$inc": {"count": 1}})
        assert {doc["token"] for doc in tokens.find({"keys.k1": "VA250"})} == {
            "vaccine", "vacc1ne",
        }
        assert tokens.find_one({"token": "vacc1ne"})["count"] == 4
        assert tokens.count({"keys.k1": "VA250"}) == 2


class TestDocumentStore:
    def test_collections_are_created_lazily(self):
        store = DocumentStore("db")
        assert "tokens" not in store
        store.collection("tokens").insert_one({"a": 1})
        assert "tokens" in store
        assert store.collection_names() == ("tokens",)

    def test_getitem_alias(self):
        store = DocumentStore()
        store["posts"].insert_one({"a": 1})
        assert len(store["posts"]) == 1

    def test_drop_collection(self):
        store = DocumentStore()
        store["posts"].insert_one({"a": 1})
        store.drop_collection("posts")
        assert "posts" not in store

    def test_stats(self):
        store = DocumentStore()
        store["tokens"].insert_one({"a": 1})
        store["tokens"].create_index("a")
        stats = store.stats()
        assert stats["tokens"]["documents"] == 1
        assert stats["tokens"]["indexes"] == ["a"]

    def test_apply_helper(self):
        store = DocumentStore()
        store["tokens"].insert_many([{"a": 1}, {"a": 2}])
        assert store.apply("tokens", len) == 2
