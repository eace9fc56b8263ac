"""Batch throughput benchmark: docs/sec of the batch engine vs per-call loops.

Measures Look Up and Normalization throughput over a large synthetic
document corpus:

* **sequential baseline** — one engine call per document, exactly how the
  pre-batch consumers (`look_up_many`, `normalize_many`) iterate;
* **batch engine** — `BatchEngine.look_up_batch` / `normalize_batch`
  (query and document deduplication + per-token memoization);
* **stream** — `BatchEngine.stream_normalize` over the same documents, one
  chunk at a time on the calling thread, raced against `normalize_batch`.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py              # full: 10k docs
    PYTHONPATH=src python benchmarks/bench_batch_throughput.py --smoke      # CI: small + assertion

The full run writes ``benchmarks/results/batch_throughput.json``; the smoke
run asserts the batch engine beats the sequential baseline, and that the
stream keeps up with the batch, so throughput regressions surface in CI.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from pathlib import Path

from repro import CrypText
from repro.datasets import build_social_corpus, corpus_texts

RESULTS_PATH = Path(__file__).parent / "results" / "batch_throughput.json"


def build_document_corpus(system: CrypText, num_docs: int, seed: int) -> list[str]:
    """Synthesize ``num_docs`` mostly-unique documents over the corpus vocabulary.

    Documents are random word sequences drawn from the observed vocabulary,
    so whole-document deduplication barely helps — the measured speedup comes
    from per-token work sharing, which is the realistic traffic shape.
    """
    rng = random.Random(seed)
    vocabulary = sorted(system.dictionary.token_counts())
    return [
        " ".join(rng.choice(vocabulary) for _ in range(rng.randint(5, 12)))
        for _ in range(num_docs)
    ]


def _time(callable_) -> tuple[float, object]:
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def stream_versus_batch(
    base_texts: list[str],
    queries: list[str],
    documents: list[str],
    expected: list,
    rounds: int = 3,
) -> dict:
    """Best Normalization seconds of the stream and the batch, fresh systems.

    Every run builds a fresh system and warms it with the same Look Ups as
    the batch section, so each starts from cold memos and cold
    English-only tries, and starts after a full collection, so the garbage
    of the run before is not collected inside its window.  Rounds
    alternate which path runs first, and each path keeps its best run: on
    a shared machine interference only ever slows a run down.
    """
    runs = {
        "batch": lambda engine: engine.normalize_batch(documents),
        "stream": lambda engine: list(engine.stream_normalize(documents)),
    }
    best = dict.fromkeys(runs, float("inf"))
    for round_index in range(rounds):
        for path in ("batch", "stream") if round_index % 2 == 0 else ("stream", "batch"):
            engine = CrypText.from_corpus(base_texts).batch
            engine.look_up_batch(queries)
            gc.collect()
            elapsed, output = _time(lambda: runs[path](engine))
            assert output == expected, f"{path} Normalization diverged from sequential"
            best[path] = min(best[path], elapsed)
    return {
        "seconds": best["stream"],
        "docs_per_sec": len(documents) / best["stream"],
        "batch_seconds": best["batch"],
        "vs_batch": best["batch"] / best["stream"],
    }


def run_benchmark(num_docs: int, seed: int) -> dict:
    posts = build_social_corpus(num_posts=1000, seed=seed)
    base_texts = corpus_texts(posts)
    print(f"building system from {len(base_texts)} posts ...", file=sys.stderr)
    system = CrypText.from_corpus(base_texts)
    documents = build_document_corpus(system, num_docs, seed)
    queries = [doc.split()[0] for doc in documents]

    report: dict = {
        "num_docs": num_docs,
        "unique_docs": len(set(documents)),
        "dictionary_tokens": len(system.dictionary),
        "lookup": {},
        "normalize": {},
    }

    # Sequential baselines: fresh systems so no batch-warmed cache leaks in.
    baseline = CrypText.from_corpus(base_texts)
    elapsed, seq_lookup = _time(lambda: [baseline.look_up(q) for q in queries])
    report["lookup"]["sequential"] = {"seconds": elapsed, "docs_per_sec": num_docs / elapsed}
    print(f"lookup    sequential      : {num_docs / elapsed:10.0f} docs/sec", file=sys.stderr)

    elapsed, seq_norm = _time(lambda: [baseline.normalize(d) for d in documents])
    report["normalize"]["sequential"] = {"seconds": elapsed, "docs_per_sec": num_docs / elapsed}
    print(f"normalize sequential      : {num_docs / elapsed:10.0f} docs/sec", file=sys.stderr)

    fresh = CrypText.from_corpus(base_texts)
    engine = fresh.batch
    elapsed, batch_lookup = _time(lambda: engine.look_up_batch(queries))
    assert batch_lookup == seq_lookup, "batch Look Up diverged from sequential"
    report["lookup"]["batch"] = {
        "seconds": elapsed,
        "docs_per_sec": num_docs / elapsed,
        "speedup": report["lookup"]["sequential"]["seconds"] / elapsed,
    }
    print(
        f"lookup    batch           : {num_docs / elapsed:10.0f} docs/sec "
        f"({report['lookup']['batch']['speedup']:.1f}x)",
        file=sys.stderr,
    )

    elapsed, batch_norm = _time(lambda: engine.normalize_batch(documents))
    assert batch_norm == seq_norm, "batch Normalization diverged from sequential"
    report["normalize"]["batch"] = {
        "seconds": elapsed,
        "docs_per_sec": num_docs / elapsed,
        "speedup": report["normalize"]["sequential"]["seconds"] / elapsed,
    }
    print(
        f"normalize batch           : {num_docs / elapsed:10.0f} docs/sec "
        f"({report['normalize']['batch']['speedup']:.1f}x)",
        file=sys.stderr,
    )

    stream = stream_versus_batch(base_texts, queries, documents, seq_norm)
    report["normalize"]["stream"] = stream
    print(
        f"normalize stream          : {stream['docs_per_sec']:10.0f} docs/sec "
        f"({stream['vs_batch']:.2f}x batch, best of 3 fresh systems each)",
        file=sys.stderr,
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=10_000, help="document corpus size")
    parser.add_argument("--seed", type=int, default=20230116)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run asserting batch == sequential == stream results, "
        "batch not slower than sequential (>= 1.05x) and the stream at least "
        "0.9x the batch (CI guard)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # The sequential baseline normalizes through the same cached compiled
        # buckets (one English-only trie traversal per token instead of a
        # store probe plus a per-entry DP), so the batch margin is per-token
        # memoization only — measured ~1.3x here.  5k documents keep the
        # timed windows well above a second (2k-document runs flaked on
        # timer noise); the bound keeps headroom for noisy CI runners.
        report = run_benchmark(num_docs=5_000, seed=args.seed)
        speedup = report["normalize"]["batch"]["speedup"]
        lookup_speedup = report["lookup"]["batch"]["speedup"]
        print(
            f"smoke: normalize speedup {speedup:.1f}x, lookup speedup {lookup_speedup:.1f}x",
            file=sys.stderr,
        )
        # The smoke's hard guarantee is the batch == sequential equality
        # asserted inside run_benchmark; the speedup gate is deliberately a
        # "batch must not be slower" floor because the honest margin over
        # the compiled-trie sequential baseline (~1.2-1.5x) sits too close
        # to shared-runner timer noise for a tighter bound to be stable.
        assert speedup >= 1.05, (
            f"batch normalization regressed: only {speedup:.2f}x over sequential"
        )
        # The stream normalizes the same documents chunk by chunk through
        # normalize_batch, so it should match the batch's docs/sec; the
        # floor leaves room for timer noise and per-chunk overhead.  A
        # stream that resolves chunks on a thread pool fails it.
        stream_ratio = report["normalize"]["stream"]["vs_batch"]
        assert stream_ratio >= 0.9, (
            f"streamed normalization regressed: only {stream_ratio:.2f}x the batch"
        )
        return 0

    report = run_benchmark(num_docs=args.docs, seed=args.seed)
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {RESULTS_PATH}", file=sys.stderr)

    if args.docs >= 10_000:
        # The sequential baseline runs candidate retrieval on cached
        # English-only compiled tries (more than 2x its old linear-scan
        # throughput), so the batch multiplier is smaller than against the
        # pre-compiled baseline — the bound guards the memoization margin,
        # with headroom for timer noise.
        speedup = report["normalize"]["batch"]["speedup"]
        assert speedup >= 1.25, (
            f"acceptance criterion failed: batch normalization is "
            f"{speedup:.2f}x sequential (need >= 1.25x on a 10k-document corpus)"
        )
        print(f"acceptance: normalize batch/sequential = {speedup:.1f}x (>= 1.25x ok)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
