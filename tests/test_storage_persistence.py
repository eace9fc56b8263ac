"""Tests for repro.storage.persistence (the JSONL writer and reader).

``write_jsonl``/``iter_jsonl`` are how the CLI saves and loads a
dictionary's ``tokens.jsonl``.
"""

from __future__ import annotations

import pytest

from repro.errors import PersistenceError
from repro.storage import iter_jsonl, read_json, write_jsonl


@pytest.fixture()
def sample_documents() -> list[dict]:
    return [
        {"token": "democrats", "count": 3, "keys": {"k1": "DE52632"}},
        {"token": "dem0cr@ts", "count": 1, "keys": {"k1": "DE52632"}},
        {"token": "vaccine", "count": 5, "keys": {"k1": "VA250"}},
    ]


class TestDumpLoadCollection:
    def test_round_trip(self, sample_documents, tmp_path):
        path = tmp_path / "tokens.jsonl"
        written = write_jsonl(path, sample_documents)
        assert written == 3
        assert list(iter_jsonl(path)) == sample_documents

    def test_round_trip_preserves_unicode(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"token": "ḋemocrāts", "note": "ünïcode"}])
        assert "ḋemocrāts" in path.read_text(encoding="utf-8")
        assert list(iter_jsonl(path)) == [{"token": "ḋemocrāts", "note": "ünïcode"}]

    def test_load_replaces_by_default(self, sample_documents, tmp_path):
        path = tmp_path / "tokens.jsonl"
        write_jsonl(path, [{"token": "stale", "_id": "old"}])
        write_jsonl(path, sample_documents)
        assert [document["token"] for document in iter_jsonl(path)] == [
            "democrats",
            "dem0cr@ts",
            "vaccine",
        ]

    def test_load_missing_file(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(PersistenceError, match="missing.jsonl"):
            list(iter_jsonl(missing))

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(PersistenceError, match=r"bad\.jsonl:2: invalid JSON"):
            list(iter_jsonl(path))

    def test_load_line_that_is_not_utf8(self, tmp_path):
        # The bad byte sits far past the reader's first read-ahead chunk, so
        # the error must still name its own line, after every line before it
        # was served.
        good = [f'{{"token": "t{index}", "note": "caf\u00e9"}}' for index in range(600)]
        path = tmp_path / "bad.jsonl"
        path.write_bytes(
            ("\n".join(good[:500]) + "\n").encode("utf-8")
            + b'{"token": "br\xff"}\n'
            + ("\n".join(good[500:]) + "\n").encode("utf-8")
        )
        served = []
        with pytest.raises(PersistenceError, match=r"bad\.jsonl:501: not valid UTF-8"):
            for document in iter_jsonl(path):
                served.append(document)
        assert len(served) == 500 and served[-1]["note"] == "caf\u00e9"

    def test_read_json_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"token": "br\xff"}')
        with pytest.raises(PersistenceError, match="not valid UTF-8"):
            read_json(path)

    def test_load_non_object_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(PersistenceError, match="expected an object, got list"):
            list(iter_jsonl(path))

    def test_dump_creates_parent_directories(self, sample_documents, tmp_path):
        nested = tmp_path / "a" / "b" / "tokens.jsonl"
        write_jsonl(nested, sample_documents)
        assert nested.exists()

    def test_dump_unserializable_value(self, sample_documents, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, sample_documents)
        with pytest.raises(PersistenceError):
            write_jsonl(path, [{"bad": object()}])
        # The failed dump left the earlier one whole.
        assert list(iter_jsonl(path)) == sample_documents


class TestStoreLevel:
    def test_iter_jsonl(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        path.write_text('\n{"a": 1}\n   \n{"a": 2}\n\n', encoding="utf-8")
        documents = list(iter_jsonl(path))
        assert documents == [{"a": 1}, {"a": 2}]

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
