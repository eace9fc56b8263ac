"""Look Up hot-path benchmark: trie-compiled matching vs the linear scan.

The Look Up function answers every query by scoring a whole sound bucket
against the query's spelling.  This benchmark measures single-query
throughput (queries/sec) of the two matching strategies over synthetic
sound buckets of 100 / 1 000 / 10 000 entries at d ∈ {1, 2, 3}:

* **linear** — one banded ``bounded_levenshtein`` DP per bucket entry (the
  pre-compiled behavior, still available via ``compiled_buckets=False``);
* **compiled** — one trie traversal per query over the
  :class:`~repro.core.matcher.CompiledBucket` (shared DP rows across common
  prefixes, dead-state subtree pruning, length pre-partition).

Buckets are built from random edit-perturbations of a few stem words, the
shape real sound buckets have (many near-variants of the same spellings).
Every timed configuration first asserts the two strategies return identical
distance sets, and the smoke mode additionally replays the golden
regression corpus end to end with the flag on and off.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_lookup_hotpath.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_lookup_hotpath.py --smoke    # CI guard

The full run writes ``benchmarks/results/lookup_hotpath.json`` and asserts
the acceptance criterion (compiled >= 3x linear on 1k-entry buckets at
d=3); the smoke run asserts a conservative speedup plus golden-corpus
equality so divergence or a hot-path regression fails the job.
"""

from __future__ import annotations

import argparse
import json
import random
import string
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # for tests.test_golden_regression

from repro.core.dictionary import DictionaryEntry
from repro.core.edit_distance import bounded_levenshtein
from repro.core.matcher import CompiledBucket

RESULTS_PATH = Path(__file__).parent / "results" / "lookup_hotpath.json"

STEMS = (
    "vaccine", "republicans", "democrats", "depression", "neighborhood",
    "mandate", "suicide", "amazon", "listening", "perturbation",
)
ALPHABET = string.ascii_lowercase + "013457@$-"


def _perturb(word: str, rng: random.Random, max_edits: int = 3) -> str:
    characters = list(word)
    for _ in range(rng.randint(0, max_edits)):
        operation = rng.randint(0, 2)
        position = rng.randrange(len(characters))
        if operation == 0:
            characters[position] = rng.choice(ALPHABET)
        elif operation == 1:
            characters.insert(position, rng.choice(ALPHABET))
        elif len(characters) > 1:
            del characters[position]
    return "".join(characters)


def build_bucket(size: int, rng: random.Random) -> list[DictionaryEntry]:
    """A synthetic sound bucket: ``size`` distinct near-variants of the stems."""
    tokens: dict[str, None] = {}
    while len(tokens) < size:
        tokens[_perturb(rng.choice(STEMS), rng)] = None
    return [
        DictionaryEntry(
            token=token, canonical=token, keys={}, count=1, is_word=False, sources=()
        )
        for token in tokens
    ]


def build_queries(num: int, rng: random.Random) -> list[str]:
    """Half exact stems, half fresh perturbations (hits, misses, near-misses)."""
    queries = [rng.choice(STEMS) for _ in range(num // 2)]
    queries += [_perturb(rng.choice(STEMS), rng) for _ in range(num - len(queries))]
    return queries


def linear_match(
    query: str, entries: list[DictionaryEntry], bound: int
) -> dict[int, int]:
    """The reference per-entry scan (what Look Up runs with the flag off)."""
    distances = {}
    for index, entry in enumerate(entries):
        distance = bounded_levenshtein(query, entry.token_lower, bound)
        if distance is not None:
            distances[index] = distance
    return distances


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
        compiled = CompiledBucket(entries)
        queries = [query.lower() for query in build_queries(num_queries, rng)]
        report["buckets"][str(size)] = {}
        for bound in distances:
            for query in queries:
                expected = linear_match(query, entries, bound)
                actual = compiled.match(query, bound)
                assert actual == expected, (
                    f"compiled matcher diverged from linear scan "
                    f"(bucket={size}, d={bound}, query={query!r})"
                )
            linear_qps = time_strategy(
                lambda query: linear_match(query, entries, bound), queries, repetitions
            )
            compiled_qps = time_strategy(
                lambda query: compiled.match(query, bound), queries, repetitions
            )
            speedup = compiled_qps / linear_qps
            report["buckets"][str(size)][f"d{bound}"] = {
                "linear_qps": linear_qps,
                "compiled_qps": compiled_qps,
                "speedup": speedup,
            }
            print(
                f"bucket {size:6d}  d={bound}: linear {linear_qps:9.0f} q/s, "
                f"compiled {compiled_qps:9.0f} q/s ({speedup:.1f}x)",
                file=sys.stderr,
            )
    return report


def check_golden_corpus() -> int:
    """Replay the golden regression corpus with the flag on and off.

    Delegates to the tier-1 test module's comparison (one implementation,
    two guards); any field-level divergence between the compiled and
    linear Look Up results raises.  Returns the comparison count.
    """
    from tests.test_golden_regression import compare_compiled_and_linear_lookups

    return compare_compiled_and_linear_lookups(distances=(1, 2, 3))


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
    parser.add_argument("--queries", type=int, default=200, help="queries per config")
    parser.add_argument("--reps", type=int, default=3, help="timing repetitions")
    parser.add_argument("--seed", type=int, default=20230116)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run: golden-corpus equality + a conservative speedup bound",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        compared = check_golden_corpus()
        print(f"golden corpus: {compared} compiled/linear comparisons ok", file=sys.stderr)
        report = run_benchmark(
            bucket_sizes=(1_000,), distances=(3,), num_queries=60,
            repetitions=1, seed=args.seed,
        )
        speedup = report["buckets"]["1000"]["d3"]["speedup"]
        assert speedup >= 1.5, (
            f"compiled Look Up hot path regressed: only {speedup:.2f}x over the "
            f"linear scan on 1k-entry buckets at d=3"
        )
        print(f"smoke: compiled/linear = {speedup:.1f}x (>= 1.5x ok)", file=sys.stderr)
        return 0

    report = run_benchmark(
        bucket_sizes=tuple(args.sizes),
        distances=tuple(args.distances),
        num_queries=args.queries,
        repetitions=args.reps,
        seed=args.seed,
    )
    report["golden_comparisons"] = check_golden_corpus()
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {RESULTS_PATH}", file=sys.stderr)

    if 1_000 in args.sizes and 3 in args.distances:
        speedup = report["buckets"]["1000"]["d3"]["speedup"]
        assert speedup >= 3.0, (
            f"acceptance criterion failed: compiled matching on 1k-entry buckets "
            f"at d=3 is {speedup:.2f}x the linear scan (need >= 3x)"
        )
        print(f"acceptance: compiled/linear at 1k, d=3 = {speedup:.1f}x (>= 3x ok)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
