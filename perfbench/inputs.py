"""Seeded inputs: corpus, request streams, arrival schedules, ingest batches.

Everything the server and the client see is a pure function of
``(workload, seed)``, so two runs with one seed send byte-identical request
streams.  Sub-streams draw from their own ``random.Random`` seeded with a
string label (string seeds are hashed with SHA-512, independent of
``PYTHONHASHSEED``), so adding draws to one never shifts another.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro import CrypTextConfig
from repro.datasets import build_social_corpus, corpus_texts
from repro.datasets.seeds import HumanPerturbationGenerator
from repro.text.tokenizer import Tokenizer

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))

LOOKUP = "/v1/lookup"
NORMALIZE = "/v1/normalize"
BATCH_LOOKUP = "/v1/batch/lookup"
PERTURB = "/v1/perturb"


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _derived_seed(seed: int, label: str) -> int:
    return _rng(seed, label).getrandbits(31)


def encode(body: dict) -> bytes:
    """The wire form of a request body (stable key order)."""
    return json.dumps(body, ensure_ascii=False, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class Corpus:
    """The build corpus and the vocabulary the hot workloads query."""

    texts: tuple[str, ...]
    #: Word types of the corpus, most frequent first (ties alphabetical):
    #: rank ``r`` of the Zipf draw is ``vocabulary[r - 1]``.
    vocabulary: tuple[str, ...]


def build_corpus(seed: int) -> Corpus:
    posts = build_social_corpus(
        num_posts=SPEC["corpus_posts"], seed=_derived_seed(seed, "corpus")
    )
    texts = tuple(corpus_texts(posts))
    tokenizer = Tokenizer(lowercase=True)
    counts = Counter(
        token.text for text in texts for token in tokenizer.word_tokens(text)
    )
    vocabulary = tuple(sorted(counts, key=lambda word: (-counts[word], word)))
    return Corpus(texts=texts, vocabulary=vocabulary)


class _Zipf:
    """Draws vocabulary words with probability proportional to ``1 / rank**s``."""

    def __init__(self, words: tuple[str, ...], s: float, rng: random.Random) -> None:
        self._words = words
        self._cumulative = list(
            itertools.accumulate(1.0 / rank**s for rank in range(1, len(words) + 1))
        )
        self._rng = rng

    def draw(self) -> str:
        point = self._rng.random() * self._cumulative[-1]
        return self._words[bisect.bisect_right(self._cumulative, point)]


class _FreshPerturbations:
    """Human-style perturbations of vocabulary words, each returned once."""

    def __init__(self, vocabulary: tuple[str, ...], rng: random.Random) -> None:
        self._words = [word for word in vocabulary if len(word) >= 3]
        self._rng = rng
        self._generator = HumanPerturbationGenerator(rng=rng)
        self._seen: set[str] = set(vocabulary)

    def draw(self) -> str:
        while True:
            perturbed, strategy = self._generator.apply(self._rng.choice(self._words))
            if strategy != "none" and perturbed not in self._seen:
                self._seen.add(perturbed)
                return perturbed


class _FreshPosts:
    """Posts generated with seeds of their own, each text returned once."""

    def __init__(self, seed: int, label: str, exclude: tuple[str, ...] = ()) -> None:
        self._seed = seed
        self._label = label
        self._seen: set[str] = set(exclude)
        self._batch: list[str] = []
        self._generation = 0

    def draw(self) -> str:
        while not self._batch:
            posts = build_social_corpus(
                num_posts=1000,
                seed=_derived_seed(self._seed, f"{self._label}:{self._generation}"),
            )
            self._generation += 1
            fresh = [text for text in corpus_texts(posts) if text not in self._seen]
            self._seen.update(fresh)
            self._batch = list(reversed(list(dict.fromkeys(fresh))))
        return self._batch.pop()


def request_stream(workload: str, seed: int, corpus: Corpus) -> Iterator[tuple[str, bytes]]:
    """The workload's requests, in send order, as ``(path, body)`` pairs.

    The stream opens with :func:`priming_length` priming requests that bring
    the server's caches to the state the workload keeps them in:

    * ``vocabulary`` looks every vocabulary word up once, so Zipf traffic
      meets a cache holding its whole working set instead of one that keeps
      filling with rare words throughout the run;
    * ``fresh_batches`` sends batch Look Ups of never-seen queries until the
      response cache is full, as it stays under traffic that never repeats.

    After that, route shares are stratified: every block of ``sum(mix)``
    requests holds exactly ``mix[route]`` requests of each route, shuffled,
    so a short run carries the same mix as a long one.
    """
    config = SPEC["workloads"][workload]
    rng = _rng(seed, f"{workload}:requests")
    zipf = _Zipf(corpus.vocabulary, SPEC["zipf_s"], _rng(seed, f"{workload}:zipf"))
    fresh = _FreshPerturbations(corpus.vocabulary, _rng(seed, f"{workload}:cold"))
    posts = _FreshPosts(seed, f"{workload}:posts", exclude=corpus.texts)
    batch = SPEC["batch_lookup"]
    block = [route for route, count in config["mix"].items() for _ in range(count)]

    def make(route: str) -> tuple[str, bytes]:
        if route == "lookup_zipf":
            return LOOKUP, encode({"queries": [zipf.draw()]})
        if route == "lookup_cold":
            return LOOKUP, encode({"queries": [fresh.draw()]})
        if route == "normalize":
            return NORMALIZE, encode({"texts": [posts.draw()]})
        if route == "batch_lookup":
            pool = [fresh.draw() for _ in range(batch["unique"])]
            return BATCH_LOOKUP, encode(
                {"queries": [rng.choice(pool) for _ in range(batch["size"])]}
            )
        if route == "perturb":
            return PERTURB, encode({"texts": [rng.choice(corpus.texts)]})
        raise ValueError(f"unknown route kind {route!r}")

    if config["priming"] == "vocabulary":
        words = list(corpus.vocabulary)
        _rng(seed, f"{workload}:priming").shuffle(words)
        for word in words:
            yield LOOKUP, encode({"queries": [word]})
    elif config["priming"] == "fresh_batches":
        for _ in range(priming_length(workload, corpus)):
            yield BATCH_LOOKUP, encode({"queries": [fresh.draw() for _ in range(batch["size"])]})
    while True:
        order = list(block)
        rng.shuffle(order)
        for route in order:
            yield make(route)


def priming_length(workload: str, corpus: Corpus) -> int:
    """How many requests :func:`request_stream` opens with to prime the caches."""
    priming = SPEC["workloads"][workload]["priming"]
    if priming == "vocabulary":
        return len(corpus.vocabulary)
    if priming == "fresh_batches":
        return -(-CrypTextConfig().cache_max_entries // SPEC["batch_lookup"]["size"])
    return 0


def arrivals(workload: str, seed: int, stretch: int) -> Iterator[float]:
    """Poisson due times (seconds from the start of open-loop stretch
    ``stretch``) at the workload's fixed rate."""
    rate = SPEC["workloads"][workload]["open_loop_rps"]
    rng = _rng(seed, f"{workload}:arrivals:{stretch}")
    due = 0.0
    while True:
        due += rng.expovariate(rate)
        yield due


def ingest_batches(workload: str, seed: int, corpus: Corpus, seconds: float) -> list[list[str]]:
    """Fresh posts for the server-side ingest loop, enough for the whole run."""
    ingest = SPEC["workloads"][workload].get("ingest")
    if not ingest:
        return []
    count = int(ingest["batches_per_s"] * seconds * 1.5) + 10
    posts = _FreshPosts(seed, f"{workload}:ingest", exclude=corpus.texts)
    return [
        [posts.draw() for _ in range(ingest["docs_per_batch"])] for _ in range(count)
    ]


def probes(workload: str, seed: int, corpus: Corpus) -> list[tuple[str, bytes]]:
    """The fixed post-run probe set: requests drawn from the workload's inputs.

    The workload's own stream is replayed from the start (so probes repeat
    requests the server already answered and cached) and its first requests
    of each route are kept; workloads whose mix lacks a route get probes of
    that route built from the corpus and the Zipf vocabulary.
    """
    wanted = dict(SPEC["probes"])
    kept: list[tuple[str, bytes]] = []
    stream = request_stream(workload, seed, corpus)
    for path, body in itertools.islice(stream, 4000):
        if wanted.get(path, 0) > 0:
            wanted[path] -= 1
            kept.append((path, body))
    rng = _rng(seed, f"{workload}:probes")
    zipf = _Zipf(corpus.vocabulary, SPEC["zipf_s"], rng)
    for path, missing in wanted.items():
        for _ in range(missing):
            if path == LOOKUP:
                kept.append((path, encode({"queries": [zipf.draw()]})))
            elif path == NORMALIZE:
                kept.append((path, encode({"texts": [rng.choice(corpus.texts)]})))
            elif path == BATCH_LOOKUP:
                size = SPEC["batch_lookup"]["size"]
                kept.append((path, encode({"queries": [zipf.draw() for _ in range(size)]})))
            elif path == PERTURB:
                kept.append((path, encode({"texts": [rng.choice(corpus.texts)]})))
    return kept
