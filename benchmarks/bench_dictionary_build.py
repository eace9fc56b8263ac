"""Dictionary build benchmark: one batch write vs one write per token.

Paper §III-A builds the token database by tokenizing every corpus sentence
and filing each token under its Soundex keys.
:meth:`~repro.core.dictionary.PerturbationDictionary.add_corpus` applies a
whole corpus as one batch write: occurrences merged per raw token, each
distinct token canonicalized once, one write-lock hold, one journal record,
one version bump.  The reference builds the same corpus the way the
dictionary used to, with one
:meth:`~repro.core.dictionary.PerturbationDictionary.add_token` call per
token occurrence.

Every run first asserts that both builds produce identical dictionaries
(every document field in ``_id`` order, and the content fingerprint), then
times each build (best of ``--repeats``, alternating which side runs first)
on a synthetic social corpus from :mod:`repro.datasets`.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_dictionary_build.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_dictionary_build.py --smoke    # CI guard

The full run writes ``benchmarks/results/dictionary_build.json``; both runs
assert the batched build is >= 3x faster than the per-occurrence reference
on the 2,000-post corpus.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from repro.core.dictionary import PerturbationDictionary
from repro.datasets import build_social_corpus, corpus_texts

RESULTS_PATH = Path(__file__).parent / "results" / "dictionary_build.json"
FLOOR_POSTS = 2_000
FLOOR = 3.0


def build_batched(texts: list[str]) -> PerturbationDictionary:
    dictionary = PerturbationDictionary()
    dictionary.add_corpus(texts, source="corpus")
    return dictionary


def build_per_occurrence(texts: list[str]) -> PerturbationDictionary:
    dictionary = PerturbationDictionary()
    for text in texts:
        for token in dictionary.tokenizer.word_tokens(text):
            dictionary.add_token(token.text, source="corpus")
    return dictionary


def _timed(build, texts: list[str]) -> tuple[float, PerturbationDictionary]:
    gc.collect()
    start = time.perf_counter()
    dictionary = build(texts)
    return time.perf_counter() - start, dictionary


def measure(posts: int, seed: int, repeats: int) -> dict[str, float]:
    texts = corpus_texts(build_social_corpus(num_posts=posts, seed=seed))
    batched_times: list[float] = []
    reference_times: list[float] = []
    for repeat in range(repeats):
        order = [(build_batched, batched_times), (build_per_occurrence, reference_times)]
        if repeat % 2:
            order.reverse()
        built = {}
        for build, times in order:
            seconds, built[build] = _timed(build, texts)
            times.append(seconds)
        batched, reference = built[build_batched], built[build_per_occurrence]
        assert batched.documents() == reference.documents(), (
            "the batched build's documents differ from the per-occurrence build's"
        )
        assert batched.content_fingerprint() == reference.content_fingerprint()
    best_batched, best_reference = min(batched_times), min(reference_times)
    return {
        "posts": posts,
        "documents": len(batched),
        "occurrences": batched.stats().total_occurrences,
        "batched_seconds": best_batched,
        "per_occurrence_seconds": best_reference,
        "speedup": best_reference / best_batched,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--posts", type=int, nargs="+", default=[500, FLOOR_POSTS, 8_000],
        help="corpus sizes to sweep (posts)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timed builds per side")
    parser.add_argument("--seed", type=int, default=20230116)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI guard: equality + the >= {FLOOR:g}x floor on {FLOOR_POSTS} posts",
    )
    args = parser.parse_args(argv)

    sizes = [FLOOR_POSTS] if args.smoke else list(args.posts)
    report = {"seed": args.seed, "repeats": args.repeats, "sizes": {}}
    for posts in sizes:
        row = measure(posts, args.seed, args.repeats)
        report["sizes"][str(posts)] = row
        print(
            f"posts {posts:5d}: {row['occurrences']} occurrences, "
            f"{row['documents']} documents; batched {row['batched_seconds']:.3f}s, "
            f"per-occurrence {row['per_occurrence_seconds']:.3f}s -> "
            f"{row['speedup']:.1f}x",
            file=sys.stderr,
        )

    if FLOOR_POSTS in sizes:
        speedup = report["sizes"][str(FLOOR_POSTS)]["speedup"]
        assert speedup >= FLOOR, (
            f"batched dictionary build is only {speedup:.2f}x faster than one "
            f"add_token per occurrence on {FLOOR_POSTS} posts (need >= {FLOOR:g}x)"
        )
        print(f"batched build {speedup:.1f}x faster (>= {FLOOR:g}x ok)", file=sys.stderr)
    if args.smoke:
        return 0

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {RESULTS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
