"""Cold-start benchmark: warm-start snapshot load vs full trie recompilation.

Every process start used to pay Soundex bucketing plus trie compilation for
every sound bucket before the compiled matcher could serve (PR 2/3).  The
warm-start snapshot subsystem (:mod:`repro.storage.snapshot`) persists the
dictionary documents together with the frozen trie structures — each
distinct token sequence serialized once through its level-shared
:class:`~repro.core.matcher.TrieFamily` — so a restart hydrates instead of
recompiling.  This benchmark measures both start paths over a synthetic
dictionary of near-variant tokens (the heavily skewed bucket shape real
sound buckets have):

* **cold** — load the JSONL token dump, then compile the Look Up and
  Normalization tries for every bucket at every materialized phonetic
  level (what a restart had to do before snapshots);
* **warm** — one :meth:`PerturbationDictionary.load_snapshot` call
  (documents + trie families in a single checksummed file).

Every run first asserts the two engines return byte-identical results —
on the golden regression corpus end to end (shared guard with the tier-1
suite) and on a sweep of fresh queries over the benchmark dictionary —
and that level-shared trie families compile strictly fewer tries than
one-per-level on the golden corpus.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_cold_start.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_cold_start.py --smoke    # CI guard

The full run writes ``benchmarks/results/cold_start.json`` and asserts the
acceptance criterion (warm-start load >= 3x faster than recompilation on a
10k-entry dictionary); the smoke run asserts the same floor plus the
equality and family-sharing guards so a regression fails the job.

Since the v2 sharded layout landed, every run also times resolving that
layout both ways — eager full parse vs the ``mmap``'d structure-only open
followers use — and the smoke run holds a >= 3x floor on the mapped open
(cold start as O(page faults), not O(snapshot bytes)).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import string
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # for tests.test_golden_regression

from repro import CrypText
from repro.config import CrypTextConfig
from repro.core.dictionary import PerturbationDictionary
from repro.core.lookup import LookupEngine
from repro.storage import iter_jsonl, write_jsonl
from repro.storage.snapshot import resolve_snapshot

RESULTS_PATH = Path(__file__).parent / "results" / "cold_start.json"

#: Long stems make sound buckets dense with near-variants — the skewed
#: shape the paper reports for real sound buckets, and the workload where
#: trie compilation (per character) costs the most relative to snapshot
#: hydration (per shared node).
STEMS = (
    "misinformation", "neighborhood", "perturbation", "demonstration",
    "vaccination", "surveillance", "totalitarian", "encyclopedia",
)
ALPHABET = string.ascii_lowercase + "013457@$-"


def _perturb(word: str, rng: random.Random, max_edits: int = 2) -> str:
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


def build_dictionary(size: int, seed: int, config: CrypTextConfig) -> PerturbationDictionary:
    """A dictionary of ``size`` distinct near-variant tokens."""
    rng = random.Random(seed)
    dictionary = PerturbationDictionary(config=config)
    seen: set[str] = set()
    while len(seen) < size:
        token = _perturb(rng.choice(STEMS), rng)
        if token in seen:
            continue
        seen.add(token)
        dictionary.add_token(token, source="bench")
    return dictionary


def _timed(run):
    """Run ``run`` with the GC frozen (allocation-heavy phases otherwise
    trigger full collections over every previously built dictionary)."""
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    gc.unfreeze()
    return elapsed, result


def compile_every_bucket(dictionary: PerturbationDictionary) -> int:
    """The recompilation a snapshot-less restart pays: every bucket, every
    level, both hot-path trie variants (raw Look Up + canonical-English
    Normalization)."""
    compiled = 0
    for level in dictionary.phonetic_levels:
        keys = {
            document["keys"][f"k{level}"] for document in dictionary.documents()
        }
        for key in keys:
            bucket = dictionary.compiled_bucket(key, phonetic_level=level)
            bucket.family.trie(False, False, bucket.entries)
            bucket.family.trie(True, True, bucket.entries)
            compiled += 1
    return compiled


def measure(size: int, seed: int, work_dir: Path, queries: int = 300) -> dict:
    """Time cold vs warm start over one dictionary; assert result equality."""
    config = CrypTextConfig(cache_max_entries=65536, cache_enabled=False)
    source = build_dictionary(size, seed, config)
    db_path = work_dir / f"tokens_{size}.jsonl"
    snapshot_path = work_dir / f"snapshot_{size}.json"
    write_jsonl(db_path, source.documents())
    save_elapsed, save_report = _timed(lambda: source.save_snapshot(snapshot_path))

    cold = PerturbationDictionary(config=config)
    load_elapsed, _ = _timed(lambda: cold.replace_documents(iter_jsonl(db_path)))
    compile_elapsed, buckets = _timed(lambda: compile_every_bucket(cold))

    # Two loads into fresh dictionaries; keep the faster one (first-touch
    # page-cache noise otherwise understates the steady-state warm start).
    warm_times = []
    warm = None
    for _ in range(2):
        candidate = PerturbationDictionary(config=config)
        elapsed, report = _timed(lambda: candidate.load_snapshot(snapshot_path, strict=True))
        assert report.loaded and report.hydrated_tries, report
        warm_times.append(elapsed)
        warm = candidate
    warm_elapsed = min(warm_times)

    rng = random.Random(seed + 1)
    probes = [_perturb(rng.choice(STEMS), rng) for _ in range(queries)]
    cold_engine = LookupEngine(cold, config=config)
    warm_engine = LookupEngine(warm, config=config)
    sweep_cold, cold_results = _timed(lambda: [cold_engine.look_up(q) for q in probes])
    sweep_warm, warm_results = _timed(lambda: [warm_engine.look_up(q) for q in probes])
    assert cold_results == warm_results, (
        f"warm-start engine diverged from cold-compiled engine (size={size})"
    )

    # v2 sharded layout: eager full-parse resolution vs the mmap'd
    # structure-only open followers use (family payloads stay unparsed on
    # disk until a bucket is actually queried).  First open only — the
    # process-wide shard cache makes every later open nearly free.
    v2_path = work_dir / f"snapshot_v2_{size}.json"
    source.save_snapshot(v2_path, shards=4)
    v2_eager_elapsed, _ = _timed(lambda: resolve_snapshot(v2_path, strict=True))
    v2_mapped_elapsed, _ = _timed(
        lambda: resolve_snapshot(v2_path, strict=True, mapped=True)
    )

    cold_total = load_elapsed + compile_elapsed
    return {
        "entries": size,
        "buckets": buckets,
        "families": save_report.families,
        "snapshot_bytes": snapshot_path.stat().st_size,
        "save_seconds": save_elapsed,
        "cold_load_seconds": load_elapsed,
        "cold_compile_seconds": compile_elapsed,
        "cold_total_seconds": cold_total,
        "warm_load_seconds": warm_elapsed,
        "query_sweep_cold_seconds": sweep_cold,
        "query_sweep_warm_seconds": sweep_warm,
        "speedup": cold_total / warm_elapsed,
        "speedup_vs_compile_only": compile_elapsed / warm_elapsed,
        "v2_eager_resolve_seconds": v2_eager_elapsed,
        "v2_mapped_resolve_seconds": v2_mapped_elapsed,
        "mmap_speedup": v2_eager_elapsed / v2_mapped_elapsed,
    }


def check_golden_corpus() -> int:
    """Cold-vs-warm equality on the golden regression corpus.

    Delegates to the tier-1 test helper (one implementation, two guards);
    any observable divergence between a snapshot-hydrated system and a
    freshly compiled one raises.  Returns the comparison count.
    """
    from tests.test_golden_regression import compare_cold_and_warm_systems

    return compare_cold_and_warm_systems(distances=(1, 3))


def check_family_sharing() -> tuple[int, int]:
    """Level-shared families must compile strictly fewer tries than
    one-per-level on the golden corpus; returns (buckets, families)."""
    import tempfile

    from tests.test_golden_regression import GOLDEN_BUILD_CORPUS

    system = CrypText.from_corpus(GOLDEN_BUILD_CORPUS)
    with tempfile.TemporaryDirectory() as tmp:
        report = system.save_snapshot(Path(tmp) / "golden.snapshot.json")
    assert report.families < report.buckets, (
        f"level sharing regressed: {report.families} trie families for "
        f"{report.buckets} bucket views (expected strictly fewer)"
    )
    return report.buckets, report.families


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1_000, 10_000],
        help="dictionary sizes to sweep",
    )
    parser.add_argument("--queries", type=int, default=300, help="equality-sweep queries")
    parser.add_argument("--seed", type=int, default=20230116)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI guard: golden equality + family sharing + the 10k speedup floor",
    )
    args = parser.parse_args(argv)

    import tempfile

    compared = check_golden_corpus()
    print(f"golden corpus: {compared} cold/warm comparisons ok", file=sys.stderr)
    buckets, families = check_family_sharing()
    print(
        f"golden corpus: {buckets} bucket views share {families} trie families",
        file=sys.stderr,
    )

    # The golden systems above leave cyclic garbage (engines, caches) that
    # would otherwise be traced by every young-gen collection inside the
    # timed phases below.
    gc.collect()

    sizes = [10_000] if args.smoke else list(args.sizes)
    report = {"sizes": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work_dir = Path(tmp)
        for size in sizes:
            row = measure(size, args.seed, work_dir, queries=args.queries)
            report["sizes"][str(size)] = row
            print(
                f"entries {size:6d}: cold {row['cold_total_seconds']:.2f}s "
                f"(load {row['cold_load_seconds']:.2f} + compile "
                f"{row['cold_compile_seconds']:.2f}), warm "
                f"{row['warm_load_seconds']:.2f}s -> {row['speedup']:.1f}x "
                f"({row['buckets']} buckets, {row['families']} families, "
                f"{row['snapshot_bytes'] / 1e6:.1f} MB snapshot)",
                file=sys.stderr,
            )
            print(
                f"entries {size:6d}: v2 resolve eager "
                f"{row['v2_eager_resolve_seconds']:.3f}s, mmap "
                f"{row['v2_mapped_resolve_seconds']:.3f}s -> "
                f"{row['mmap_speedup']:.1f}x",
                file=sys.stderr,
            )
    report["golden_comparisons"] = compared
    report["golden_buckets"] = buckets
    report["golden_families"] = families

    if args.smoke:
        speedup = report["sizes"]["10000"]["speedup"]
        assert speedup >= 3.0, (
            f"warm-start regressed: snapshot load is only {speedup:.2f}x faster "
            f"than recompilation on a 10k-entry dictionary (need >= 3x)"
        )
        print(f"smoke: warm start {speedup:.1f}x faster (>= 3x ok)", file=sys.stderr)
        mmap_speedup = report["sizes"]["10000"]["mmap_speedup"]
        assert mmap_speedup >= 3.0, (
            f"mmap cold start regressed: the v2 mapped open is only "
            f"{mmap_speedup:.2f}x faster than the eager parse on a 10k-entry "
            f"dictionary (need >= 3x)"
        )
        print(f"smoke: v2 mmap open {mmap_speedup:.1f}x faster (>= 3x ok)", file=sys.stderr)
        return 0

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {RESULTS_PATH}", file=sys.stderr)

    if 10_000 in args.sizes:
        speedup = report["sizes"]["10000"]["speedup"]
        assert speedup >= 3.0, (
            f"acceptance criterion failed: warm start is {speedup:.2f}x faster "
            f"than recompilation on a 10k-entry dictionary (need >= 3x)"
        )
        print(f"acceptance: warm start {speedup:.1f}x (>= 3x ok)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
