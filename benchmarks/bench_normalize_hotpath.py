"""Normalization hot-path benchmark: compiled candidate retrieval vs linear.

Normalization retrieves, for every out-of-vocabulary token, the English
words sharing its Soundex bucket within edit distance ``d`` (paper §III-C).
This benchmark measures single-token candidate-retrieval throughput
(tokens/sec) of the two strategies over synthetic sound buckets of
100 / 1 000 / 10 000 entries at d ∈ {1, 2, 3}, under both distance
policies:

* **linear** — one banded DP (``bounded_levenshtein`` or ``bounded_osa``)
  per English entry of the bucket (the ``compiled_buckets=False`` path);
* **compiled** — one trie traversal per token over the
  :class:`~repro.core.matcher.CompiledBucket` (shared DP rows across common
  prefixes, dead-state pruning, length pre-partition), filtered to English
  words afterwards.

Both strategies run through the *real* ``Normalizer._retrieve_candidates``
code path — only the bucket source is stubbed — so encoding, matching,
dedup and ranking are all timed exactly as production runs them.  Every
timed configuration first asserts the two strategies return identical
candidate lists, and both modes replay a small corpus end to end asserting
sequential ``Normalizer``, ``BatchEngine.normalize_batch`` and the
linear-scan fallback produce byte-identical results (including the
"teh" -> "the" transposition recovery at ``d = 1``).

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_normalize_hotpath.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_normalize_hotpath.py --smoke    # CI guard

The full run writes ``benchmarks/results/normalize_hotpath.json`` and
asserts the acceptance criterion (compiled >= 2x linear on 10k-entry
buckets under both policies); the smoke run asserts the end-to-end
equalities plus a conservative speedup bound so divergence or a hot-path
regression fails the job.
"""

from __future__ import annotations

import argparse
import json
import random
import string
import sys
import time
from pathlib import Path

from repro import CrypText, CrypTextConfig
from repro.core.dictionary import DictionaryEntry, PerturbationDictionary
from repro.core.matcher import CompiledBucket
from repro.core.normalizer import Normalizer

RESULTS_PATH = Path(__file__).parent / "results" / "normalize_hotpath.json"

STEMS = (
    "vaccine", "republicans", "democrats", "depression", "neighborhood",
    "mandate", "suicide", "amazon", "listening", "perturbation",
)
ALPHABET = string.ascii_lowercase + "013457@$-"

END_TO_END_CORPUS = [
    "the dirrty republicans",
    "thee dirty repubLIEcans",
    "the democrats support the vaccine mandate",
    "the demokrats hate the vacc1ne",
    "stop the vac-cine mandate now",
    "i ordered from amazon yesterday",
    "the amaz0n package never arrived",
]
END_TO_END_TEXTS = [
    "the demokrats hate the vacc1ne",
    "stop the vac-cine mandate",
    "my amaz0n order is late",
    "the republic@@ns argue online",
    "clean text stays clean",
]


def _perturb(word: str, rng: random.Random, max_edits: int = 3) -> str:
    characters = list(word)
    for _ in range(rng.randint(0, max_edits)):
        operation = rng.randint(0, 3)
        position = rng.randrange(len(characters))
        if operation == 0:
            characters[position] = rng.choice(ALPHABET)
        elif operation == 1:
            characters.insert(position, rng.choice(ALPHABET))
        elif operation == 2 and position + 1 < len(characters):
            # Adjacent swap — the perturbation class the OSA policy scores
            # differently, so both policies see representative inputs.
            characters[position], characters[position + 1] = (
                characters[position + 1], characters[position],
            )
        elif len(characters) > 1:
            del characters[position]
    return "".join(characters)


def build_bucket(size: int, rng: random.Random) -> list[DictionaryEntry]:
    """A synthetic sound bucket: ``size`` distinct near-variants of the stems.

    Alternate entries are flagged as English words — Normalization only
    targets lexicon words, so the linear scan pays for half the bucket while
    the compiled traversal matches all of it and filters afterwards (the
    real trade the two paths make).
    """
    tokens: dict[str, None] = {}
    while len(tokens) < size:
        tokens[_perturb(rng.choice(STEMS), rng)] = None
    return [
        DictionaryEntry(
            token=token,
            canonical=token,
            keys={},
            count=1 + (index % 7),
            is_word=index % 2 == 0,
            sources=(),
        )
        for index, token in enumerate(tokens)
    ]


def build_queries(num: int, rng: random.Random) -> list[str]:
    """Half exact stems, half fresh perturbations (hits, misses, near-misses)."""
    queries = [rng.choice(STEMS) for _ in range(num // 2)]
    queries += [_perturb(rng.choice(STEMS), rng) for _ in range(num - len(queries))]
    return queries


class _FixedBucketDictionary(PerturbationDictionary):
    """A dictionary whose every sound bucket is one synthetic bucket.

    Only the two bucket sources the normalizer reads are overridden;
    encoding, distance policy dispatch, matching, dedup and ranking run the
    production code in ``Normalizer._retrieve_candidates`` unchanged.
    """

    def __init__(self, config: CrypTextConfig, entries: list[DictionaryEntry]) -> None:
        super().__init__(config=config)
        self._bench_english = [entry for entry in entries if entry.is_word]
        self._bench_compiled = CompiledBucket(entries)

    def english_words_for_key(self, key: str, phonetic_level: int | None = None):
        return self._bench_english

    def compiled_bucket(self, key: str, phonetic_level: int | None = None) -> CompiledBucket:
        return self._bench_compiled


def _fixed_bucket_normalizer(config: CrypTextConfig, entries: list[DictionaryEntry]) -> Normalizer:
    """A ``Normalizer`` whose candidate retrieval is served from one bucket."""
    return Normalizer(_FixedBucketDictionary(config, entries), config=config)


def time_strategy(run, queries: list[str], repetitions: int) -> float:
    start = time.perf_counter()
    for _ in range(repetitions):
        for query in queries:
            run(query)
    elapsed = time.perf_counter() - start
    return (repetitions * len(queries)) / elapsed


def run_benchmark(
    bucket_sizes: tuple[int, ...],
    distances: tuple[int, ...],
    num_queries: int,
    repetitions: int,
    seed: int,
) -> dict:
    rng = random.Random(seed)
    report: dict = {
        "num_queries": num_queries,
        "repetitions": repetitions,
        "buckets": {},
    }
    for size in bucket_sizes:
        entries = build_bucket(size, rng)
        queries = [query.lower() for query in build_queries(num_queries, rng)]
        report["buckets"][str(size)] = {}
        for transpositions in (False, True):
            policy = "osa" if transpositions else "levenshtein"
            for bound in distances:
                config = CrypTextConfig(
                    edit_distance=bound,
                    use_transpositions=transpositions,
                    cache_enabled=False,
                )
                compiled = _fixed_bucket_normalizer(
                    config.with_overrides(compiled_buckets=True), entries
                )
                linear = _fixed_bucket_normalizer(
                    config.with_overrides(compiled_buckets=False), entries
                )
                for query in queries:
                    fast = compiled._retrieve_candidates(query)
                    slow = linear._retrieve_candidates(query)
                    assert fast == slow, (
                        f"compiled retrieval diverged from the linear scan "
                        f"(bucket={size}, d={bound}, policy={policy}, "
                        f"query={query!r})"
                    )
                linear_qps = time_strategy(
                    linear._retrieve_candidates, queries, repetitions
                )
                compiled_qps = time_strategy(
                    compiled._retrieve_candidates, queries, repetitions
                )
                speedup = compiled_qps / linear_qps
                report["buckets"][str(size)][f"{policy}.d{bound}"] = {
                    "linear_qps": linear_qps,
                    "compiled_qps": compiled_qps,
                    "speedup": speedup,
                }
                print(
                    f"bucket {size:6d}  {policy:>11s} d={bound}: "
                    f"linear {linear_qps:9.0f} tok/s, "
                    f"compiled {compiled_qps:9.0f} tok/s ({speedup:.1f}x)",
                    file=sys.stderr,
                )
    return report


def check_end_to_end() -> int:
    """Sequential, batch, and linear-scan Normalization must agree exactly.

    Replays a small corpus under both distance policies and both values of
    the compiled flag, asserting ``Normalizer.normalize``,
    ``BatchEngine.normalize_batch`` and the ``compiled_buckets=False``
    fallback return byte-identical results — plus the transposition
    regression: at ``k = 0, d = 1`` the OSA policy recovers "teh" -> "the"
    on every path and the plain policy leaves it alone.  Returns the number
    of document comparisons performed.
    """
    compared = 0
    for transpositions in (False, True):
        config = CrypTextConfig(
            phonetic_level=0,
            edit_distance=1,
            use_transpositions=transpositions,
            cache_enabled=False,
        )
        compiled = CrypText.from_corpus(
            END_TO_END_CORPUS, config=config, train_scorer=False
        )
        linear = CrypText.from_corpus(
            END_TO_END_CORPUS,
            config=config.with_overrides(compiled_buckets=False),
            train_scorer=False,
        )
        texts = END_TO_END_TEXTS + ["teh vaccine works"]
        sequential = [compiled.normalize(text) for text in texts]
        batched = compiled.batch.normalize_batch(texts)
        fallback = [linear.normalize(text) for text in texts]
        assert batched == sequential, (
            f"batch normalization diverged from sequential "
            f"(use_transpositions={transpositions})"
        )
        assert fallback == sequential, (
            f"linear-scan normalization diverged from compiled "
            f"(use_transpositions={transpositions})"
        )
        swap = sequential[-1].normalized_text
        if transpositions:
            assert swap == "the vaccine works", (
                f"OSA policy failed to recover the transposition: {swap!r}"
            )
        else:
            assert swap == "teh vaccine works", (
                f"plain policy unexpectedly rewrote the swap: {swap!r}"
            )
        compared += len(texts) * 3
    return compared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[100, 1_000, 10_000],
        help="bucket sizes to sweep",
    )
    parser.add_argument(
        "--distances", type=int, nargs="+", default=[1, 2, 3],
        help="edit-distance bounds to sweep",
    )
    parser.add_argument("--queries", type=int, default=200, help="tokens per config")
    parser.add_argument("--reps", type=int, default=3, help="timing repetitions")
    parser.add_argument("--seed", type=int, default=20230116)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run: end-to-end equalities + a conservative speedup bound",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        compared = check_end_to_end()
        print(
            f"end to end: {compared} sequential/batch/linear comparisons ok",
            file=sys.stderr,
        )
        report = run_benchmark(
            bucket_sizes=(1_000,), distances=(3,), num_queries=60,
            repetitions=1, seed=args.seed,
        )
        for policy in ("levenshtein", "osa"):
            speedup = report["buckets"]["1000"][f"{policy}.d3"]["speedup"]
            assert speedup >= 1.3, (
                f"compiled normalize hot path regressed: only {speedup:.2f}x over "
                f"the linear scan on 1k-entry buckets at d=3 ({policy})"
            )
            print(
                f"smoke: compiled/linear ({policy}) = {speedup:.1f}x (>= 1.3x ok)",
                file=sys.stderr,
            )
        return 0

    report = run_benchmark(
        bucket_sizes=tuple(args.sizes),
        distances=tuple(args.distances),
        num_queries=args.queries,
        repetitions=args.reps,
        seed=args.seed,
    )
    report["end_to_end_comparisons"] = check_end_to_end()
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {RESULTS_PATH}", file=sys.stderr)

    if 10_000 in args.sizes and 3 in args.distances:
        for policy in ("levenshtein", "osa"):
            speedup = report["buckets"]["10000"][f"{policy}.d3"]["speedup"]
            assert speedup >= 2.0, (
                f"acceptance criterion failed: compiled candidate retrieval on "
                f"10k-entry buckets at d=3 ({policy}) is {speedup:.2f}x the "
                f"linear scan (need >= 2x)"
            )
            print(
                f"acceptance: compiled/linear at 10k, d=3 ({policy}) = "
                f"{speedup:.1f}x (>= 2x ok)",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
