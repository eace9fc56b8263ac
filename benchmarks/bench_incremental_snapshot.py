"""Incremental-snapshot benchmark: delta saves vs full rewrites, plus recovery.

The durability subsystem (:mod:`repro.wal`) claims two things worth guarding:

* **delta saves scale with what changed, not with dictionary size** — an
  incremental :meth:`PerturbationDictionary.save_snapshot` re-serializes only
  the trie families of the dirty buckets, so with a small dirty fraction it
  must beat the full rewrite by a wide margin (the acceptance criterion:
  >= 5x when < 5% of buckets are dirty);
* **crash recovery is fast and exact** — ``recover()`` (chain hydrate + WAL
  tail replay) reconstructs a ``kill -9``'d ingest byte-identically, in time
  comparable to a warm start plus the tail replay.

Every run first asserts cold-vs-recovered equality on the golden regression
corpus (shared guard with the tier-1 suite) and on the benchmark dictionary
itself, then measures:

* full save vs delta save over a dictionary of ``size`` near-variant tokens
  with a bounded dirty slice (< 5% of buckets);
* recovery time for a crash losing ``tail`` journaled-but-unsnapshotted
  writes;
* (full run only) the tracemalloc peak of the same full and delta saves,
  taken in a separate untimed pass on a second, identical dictionary,
  because tracing slows the code it measures.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_incremental_snapshot.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_incremental_snapshot.py --smoke   # CI guard

The full run writes ``benchmarks/results/incremental_snapshot.json``; both
modes assert the >= 5x delta-save floor and recovered == uninterrupted
equality, so a regression fails the job.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # for tests.test_golden_regression

from repro.config import CrypTextConfig
from repro.core.dictionary import PerturbationDictionary
from repro.core.lookup import LookupEngine
from repro.storage import SNAPSHOT_FILE_NAME
from repro.wal import ChangeLog, wal_directory_for

from bench_cold_start import STEMS, _perturb, _timed, build_dictionary

RESULTS_PATH = Path(__file__).parent / "results" / "incremental_snapshot.json"


def _dirty_some_buckets(
    dictionary: PerturbationDictionary, target_fraction: float, seed: int
) -> tuple[int, int]:
    """Write near-variants of one stem until just under ``target_fraction``
    of the dictionary's buckets are dirty; returns (dirty, total) buckets."""
    level = dictionary.config.phonetic_level
    total = len(dictionary.hashmap(phonetic_level=level))
    budget = max(1, int(total * target_fraction) - 1)
    rng = random.Random(seed)
    stem = STEMS[0]
    changed: set[tuple[int, str]] = set()
    while True:
        dirty_at_level = {pair for pair in changed if pair[0] == level}
        if len(dirty_at_level) >= budget:
            return len(dirty_at_level), total
        dictionary.add_token(_perturb(stem, rng), source="dirty", changed_keys=changed)


def _chained_and_dirty(size: int, seed: int, snapshot_dir: Path):
    """A dictionary saved into ``snapshot_dir`` (the chain's base), then
    written until just under 5% of its buckets are dirty."""
    config = CrypTextConfig(cache_max_entries=65536, cache_enabled=False)
    dictionary = build_dictionary(size, seed, config)
    dictionary.save_snapshot(snapshot_dir / SNAPSHOT_FILE_NAME)
    dirty_buckets, total_buckets = _dirty_some_buckets(dictionary, 0.05, seed + 1)
    return dictionary, config, dirty_buckets, total_buckets


def _traced_peak_mb(run) -> float:
    """The tracemalloc peak (MB) of ``run()`` over what was live before it."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure_save_peaks(size: int, seed: int, work_dir: Path) -> dict:
    """Traced peak memory of the full and delta saves :func:`measure_save`
    times, on an identical dictionary in an untimed pass."""
    snapshot_dir = work_dir / f"peak_{size}"
    dictionary, _, _, _ = _chained_and_dirty(size, seed, snapshot_dir)
    full_peak = _traced_peak_mb(
        lambda: dictionary.save_snapshot(work_dir / f"peak_full_rewrite_{size}.json")
    )
    delta_peak = _traced_peak_mb(
        lambda: dictionary.save_snapshot(
            snapshot_dir / SNAPSHOT_FILE_NAME, incremental=True
        )
    )
    return {"full_save_peak_mb": full_peak, "delta_save_peak_mb": delta_peak}


def measure_save(size: int, seed: int, work_dir: Path) -> dict:
    """Time one full rewrite vs one delta save with < 5% of buckets dirty."""
    snapshot_dir = work_dir / f"delta_{size}"
    base_path = snapshot_dir / SNAPSHOT_FILE_NAME
    dictionary, config, dirty_buckets, total_buckets = _chained_and_dirty(
        size, seed, snapshot_dir
    )
    dirty_fraction = dirty_buckets / total_buckets

    # The rewrite baseline: what every save cost before deltas existed.
    # Saved to a scratch name so the chain tip is untouched.  No trie family
    # outlives a save (none is in the compiled-bucket cache), so this
    # measures every bucket's trie builds plus serialization — the
    # steady-state full-save cost.
    full_elapsed, full_report = _timed(
        lambda: dictionary.save_snapshot(work_dir / f"full_rewrite_{size}.json")
    )
    # Scratch saves don't clear the dirty sets (different chain), so the
    # delta below persists exactly the dirty slice measured above.
    delta_elapsed, delta_report = _timed(
        lambda: dictionary.save_snapshot(base_path, incremental=True)
    )
    assert delta_report.incremental and delta_report.delta_index == 1, delta_report

    # The delta must actually chain: hydrating base+delta equals the live state.
    recovered = PerturbationDictionary(config=config)
    report = recovered.recover(snapshot_dir)
    assert report.loaded and report.deltas_applied == 1, report
    assert recovered.content_fingerprint() == dictionary.content_fingerprint()

    return {
        "entries": size,
        "total_buckets": total_buckets,
        "dirty_buckets": dirty_buckets,
        "dirty_fraction": dirty_fraction,
        "full_save_seconds": full_elapsed,
        "full_save_documents": full_report.documents,
        "delta_save_seconds": delta_elapsed,
        "delta_save_documents": delta_report.documents,
        "delta_save_buckets": delta_report.buckets,
        "speedup": full_elapsed / delta_elapsed,
    }


def measure_recovery(size: int, tail: int, seed: int, work_dir: Path) -> dict:
    """Crash with ``tail`` journaled-only writes; time and verify recovery."""
    config = CrypTextConfig(cache_max_entries=65536, cache_enabled=False)
    snapshot_dir = work_dir / f"recover_{size}"
    victim = PerturbationDictionary(config=config)
    victim.attach_wal(ChangeLog(wal_directory_for(snapshot_dir)))
    rng = random.Random(seed)
    seen: set[str] = set()
    while len(seen) < size:
        token = _perturb(rng.choice(STEMS), rng)
        if token not in seen:
            seen.add(token)
            victim.add_token(token, source="bench")
    victim.save_snapshot(snapshot_dir / SNAPSHOT_FILE_NAME)
    lost: list[str] = []
    while len(lost) < tail:
        token = _perturb(rng.choice(STEMS), rng)
        if token not in seen:
            seen.add(token)
            lost.append(token)
            victim.add_token(token, source="bench-tail")

    recovered = PerturbationDictionary(config=config)
    recover_elapsed, report = _timed(lambda: recovered.recover(snapshot_dir))
    assert report.loaded and report.replayed_records == tail, report
    # Isolate the replay term: recovery = snapshot load + one replay per
    # pending WAL record.  The per-record cost is what turns
    # ``snapshot_autosave_interval`` into a recovery-time bound (interval N
    # risks at most ~N * replay_seconds_per_record of extra startup time).
    baseline = PerturbationDictionary(config=config)
    load_elapsed, load_report = _timed(
        lambda: baseline.load_snapshot(snapshot_dir / SNAPSHOT_FILE_NAME, strict=True)
    )
    assert load_report.loaded, load_report
    replay_per_record = max(recover_elapsed - load_elapsed, 0.0) / tail
    assert recovered.token_counts() == victim.token_counts()
    assert recovered.content_fingerprint() == victim.content_fingerprint()

    # Equality sweep over fresh probes (the byte-identical guard).
    probes = [_perturb(rng.choice(STEMS), rng) for _ in range(200)]
    victim_engine = LookupEngine(victim, config=config)
    recovered_engine = LookupEngine(recovered, config=config)
    for probe in probes:
        assert victim_engine.look_up(probe) == recovered_engine.look_up(probe), probe

    return {
        "entries": size,
        "tail_records": tail,
        "recover_seconds": recover_elapsed,
        "snapshot_load_seconds": load_elapsed,
        "replay_seconds_per_record": replay_per_record,
        "replayed_records": report.replayed_records,
        "torn_bytes": report.torn_bytes,
        "probes_compared": len(probes),
    }


def check_golden_corpus() -> int:
    """Cold-vs-recovered equality on the golden regression corpus.

    Delegates to the tier-1 test helper (one implementation, two guards).
    Returns the comparison count.
    """
    from tests.test_golden_regression import compare_cold_and_recovered_systems

    return compare_cold_and_recovered_systems(distances=(1, 3))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1_000, 10_000],
        help="dictionary sizes to sweep",
    )
    parser.add_argument(
        "--tail", type=int, default=500,
        help="journaled-but-unsnapshotted writes the simulated crash loses",
    )
    parser.add_argument("--seed", type=int, default=20230116)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI guard: golden equality + the 10k delta-save speedup floor",
    )
    args = parser.parse_args(argv)

    import tempfile

    compared = check_golden_corpus()
    print(f"golden corpus: {compared} cold/recovered comparisons ok", file=sys.stderr)
    gc.collect()

    sizes = [10_000] if args.smoke else list(args.sizes)
    report = {"sizes": {}, "recovery": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work_dir = Path(tmp)
        for size in sizes:
            row = measure_save(size, args.seed, work_dir)
            report["sizes"][str(size)] = row
            print(
                f"entries {size:6d}: full save {row['full_save_seconds']:.3f}s, "
                f"delta save {row['delta_save_seconds']:.3f}s "
                f"({row['dirty_buckets']}/{row['total_buckets']} buckets dirty, "
                f"{row['dirty_fraction']:.1%}) -> {row['speedup']:.1f}x",
                file=sys.stderr,
            )
            if not args.smoke:
                row.update(measure_save_peaks(size, args.seed, work_dir))
                print(
                    f"entries {size:6d}: traced peak: full save "
                    f"{row['full_save_peak_mb']:.1f} MB, delta save "
                    f"{row['delta_save_peak_mb']:.1f} MB",
                    file=sys.stderr,
                )
            recovery = measure_recovery(size, args.tail, args.seed, work_dir)
            report["recovery"][str(size)] = recovery
            print(
                f"entries {size:6d}: recovered {recovery['replayed_records']} "
                f"lost writes in {recovery['recover_seconds']:.3f}s "
                f"({recovery['replay_seconds_per_record'] * 1e3:.2f} ms/record "
                f"over the {recovery['snapshot_load_seconds']:.3f}s load; "
                f"{recovery['probes_compared']} equality probes ok)",
                file=sys.stderr,
            )
    report["golden_comparisons"] = compared

    speedup = report["sizes"][str(sizes[-1])]["speedup"]
    fraction = report["sizes"][str(sizes[-1])]["dirty_fraction"]
    assert fraction < 0.05, f"dirty fraction {fraction:.1%} breached the < 5% premise"
    assert speedup >= 5.0, (
        f"incremental save regressed: delta save is only {speedup:.2f}x faster "
        f"than a full rewrite with {fraction:.1%} of buckets dirty (need >= 5x)"
    )
    print(
        f"{'smoke' if args.smoke else 'acceptance'}: delta save {speedup:.1f}x "
        f"faster (>= 5x ok)",
        file=sys.stderr,
    )
    if args.smoke:
        return 0

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {RESULTS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
