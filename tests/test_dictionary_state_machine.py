"""Stateful differential oracle for the token dictionary.

A hypothesis ``RuleBasedStateMachine`` drives one journaled
:class:`PerturbationDictionary` through every write and durability path —
``add_token``, ``add_corpus``, ``learn_batch``, ``seed_lexicon``, full and
delta snapshot saves hydrated into a fresh dictionary, crash recovery into
a fresh dictionary that then replaces the one under test, and the CLI's
``tokens.jsonl`` round trip — and after every step compares it with a
model the test keeps itself: a plain dict from each raw token to its
``_id`` (first-seen order), occurrence count and sources.

After every step:

* the documents equal the model (``_id``, count, sources and every level's
  Soundex key);
* each level's ``tokens_for_key`` serves the model's bucket, in
  ``str(_id)`` order (``"1" < "10" < "2"``), and ``stats()`` counts the
  model's keys;
* a cached, compiled :class:`LookupEngine` answers a fixed query list
  exactly as a ``cache_enabled=False, compiled_buckets=False`` engine does
  over the same dictionary;
* ``dirty_state()`` counts exactly the tokens written since the last save
  and their buckets;
* after a save, hydrating the resolved snapshot chain installs warm tries
  for every ``(level, key)`` bucket.
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import CrypTextConfig
from repro.cli import DB_FILE_NAME, _build_system
from repro.core.dictionary import PerturbationDictionary
from repro.core.lookup import LookupEngine
from repro.storage import SNAPSHOT_FILE_NAME, write_jsonl
from repro.text.wordlist import default_lexicon
from repro.wal import ChangeLog, wal_directory_for
from repro.wal.delta import resolve_snapshot_chain

LEXICON = default_lexicon()
CACHED = CrypTextConfig()
ORACLE = CrypTextConfig(cache_enabled=False, compiled_buckets=False)

#: More than nine distinct tokens, so ``_id``\ s have one and two digits and
#: a new token can sort ahead of older ones in its bucket.
CORPUS = (
    "the dirrty republicans lie",
    "thee dirty repubLIEcans",
    "the democrats support the vaccine mandate",
    "i ordered from amazon yesterday",
)
#: Spellings that land in the corpus' buckets, plus two the encoder rejects.
TOKENS = (
    "demmocrats", "Democrats", "dem0cr@ts", "vaxine", "vacc1ne", "republicanz",
    "repubLIEcans", "amazzon", "the", "thee", "dirty", "...", "\U0001F600",
)
TEXTS = (
    "the demmocrats lie again",
    "they fear the vaxine",
    "the amazzon box ... broke",
    "Democrats and republicanz argue",
)
WORDS = ("democrats", "vaccine", "amazon", "mandate", "yesterday")
SOURCES = st.sampled_from((None, "stream", "crawler"))
QUERIES = ("democrats", "vaccine", "republicans", "amazon", "dirty", "Democrats")


class DictionaryMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="dictionary-machine-"))
        self.model: dict[str, dict[str, object]] = {}
        self.dirty_tokens: set[str] = set()
        self.saved = False
        self._adopt(PerturbationDictionary(lexicon=LEXICON))
        self.dictionary.attach_wal(ChangeLog(wal_directory_for(self.directory)))
        self.dictionary.add_corpus(CORPUS, source="corpus")
        self._record_texts(CORPUS, "corpus")

    @initialize(saved=st.booleans())
    def start(self, saved):
        """Half the runs start from a saved base, so later saves are deltas."""
        if saved:
            self.save_and_hydrate(incremental=False)

    def teardown(self) -> None:
        wal = self.dictionary.detach_wal()
        if wal is not None:
            wal.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # the model
    # ------------------------------------------------------------------ #
    def _adopt(self, dictionary: PerturbationDictionary) -> None:
        self.dictionary = dictionary
        self.cached = LookupEngine(dictionary, config=CACHED)
        self.oracle = LookupEngine(dictionary, config=ORACLE)

    def _record(self, token: str, source: str | None, count: int = 1) -> None:
        if self.dictionary.encoder(0).encode_or_none(token) is None:
            return
        entry = self.model.get(token)
        if entry is None:
            entry = {"_id": len(self.model) + 1, "count": 0, "sources": []}
            self.model[token] = entry
        entry["count"] += count
        if source and source not in entry["sources"]:
            entry["sources"].append(source)
        self.dirty_tokens.add(token)

    def _record_texts(self, texts, source: str | None) -> None:
        for text in texts:
            for token in self.dictionary.tokenizer.word_tokens(text):
                self._record(token.text, source)

    def _buckets(self, dictionary: PerturbationDictionary):
        """The model grouped per ``(level, key)``, each in ``str(_id)`` order."""
        buckets: dict[tuple[int, str], list[str]] = {}
        for token in sorted(self.model, key=lambda token: str(self.model[token]["_id"])):
            for level in dictionary.phonetic_levels:
                key = dictionary.encoder(level).encode(token)
                buckets.setdefault((level, key), []).append(token)
        return buckets

    def check(self, dictionary: PerturbationDictionary) -> None:
        documents = {document["token"]: document for document in dictionary.documents()}
        assert {
            token: {
                "_id": document["_id"],
                "count": document["count"],
                "sources": document["sources"],
            }
            for token, document in documents.items()
        } == self.model
        buckets = self._buckets(dictionary)
        for (level, key), tokens in buckets.items():
            assert all(documents[token]["keys"][f"k{level}"] == key for token in tokens)
            served = dictionary.tokens_for_key(key, phonetic_level=level)
            assert [entry.token for entry in served] == tokens, (level, key)
        assert dict(dictionary.stats().unique_keys) == {
            level: sum(1 for bucket_level, _ in buckets if bucket_level == level)
            for level in dictionary.phonetic_levels
        }

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    @rule(token=st.sampled_from(TOKENS), source=SOURCES, count=st.integers(1, 3))
    def add_token(self, token, source, count):
        self.dictionary.add_token(token, source=source, count=count)
        self._record(token, source, count)

    @rule(texts=st.lists(st.sampled_from(TEXTS), min_size=1, max_size=3), source=SOURCES)
    def add_corpus(self, texts, source):
        self.dictionary.add_corpus(texts, source=source)
        self._record_texts(texts, source)

    @rule(texts=st.lists(st.sampled_from(TEXTS), min_size=1, max_size=3), source=SOURCES)
    def learn_batch(self, texts, source):
        self.dictionary.learn_batch(texts, source=source)
        self._record_texts(texts, source)

    @rule(words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4))
    def seed_lexicon(self, words):
        self.dictionary.seed_lexicon(words)
        for word in words:
            self._record(word, "lexicon")

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    @rule(incremental=st.booleans())
    def save_and_hydrate(self, incremental):
        self.dictionary.save_snapshot(
            self.directory / SNAPSHOT_FILE_NAME, incremental=incremental
        )
        chain = resolve_snapshot_chain(self.directory)
        fresh = PerturbationDictionary(lexicon=LEXICON)
        report = fresh.hydrate_snapshot(chain.snapshot)
        assert report.hydrated_tries, report
        assert report.buckets == len(self._buckets(fresh)), report
        self.check(fresh)
        self.saved = True
        self.dirty_tokens.clear()

    @rule()
    def recover(self):
        wal = self.dictionary.detach_wal()
        wal.close()
        fresh = PerturbationDictionary(lexicon=LEXICON)
        report = fresh.recover(self.directory)
        unsaved = (f"no usable snapshot in {self.directory}",)
        assert report.degraded == (() if self.saved else unsaved), report
        self._adopt(fresh)

    @rule()
    def jsonl_round_trip(self):
        db = self.directory / "db"
        db.mkdir(exist_ok=True)
        write_jsonl(db / DB_FILE_NAME, self.dictionary.documents())
        loaded = _build_system(argparse.Namespace(db=str(db))).dictionary
        self.check(loaded)

    # ------------------------------------------------------------------ #
    @invariant()
    def matches_the_model(self):
        self.check(self.dictionary)

    @invariant()
    def dirty_state_counts_unsaved_writes(self):
        pairs = {
            (level, self.dictionary.encoder(level).encode(token))
            for token in self.dirty_tokens
            for level in self.dictionary.phonetic_levels
        }
        dirty = self.dictionary.dirty_state()
        assert (dirty["dirty_tokens"], dirty["dirty_buckets"]) == (
            len(self.dirty_tokens),
            len(pairs),
        )

    @invariant()
    def cached_reads_match_the_oracle(self):
        for query in QUERIES:
            for case_sensitive in (True, False):
                assert self.cached.look_up(
                    query, case_sensitive=case_sensitive
                ) == self.oracle.look_up(query, case_sensitive=case_sensitive), query


DictionaryMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=10, deadline=None
)
TestDictionaryStateMachine = DictionaryMachine.TestCase
