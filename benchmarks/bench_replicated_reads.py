"""Replicated-read benchmark: follower offload, convergence, staleness.

The replication subsystem (:mod:`repro.replication`) makes three claims
worth guarding:

* **reads offload from the leader** — with N fresh followers behind a
  :class:`ReplicaSet`, almost every read routes to a replica (the leader
  serves reads only as the fallback), so a write-heavy leader stops
  competing with its readers (floor: >= 95% of reads land on followers);
* **replicas answer exactly like the leader** — every routed Look Up and
  normalization must be field-identical to the leader's own answer once
  the followers have caught up;
* **staleness stays bounded under write load** — followers tailing a
  leader that is actively ingesting remain inside the configured
  ``max_staleness_seconds`` and converge to the leader's exact content
  fingerprint when the stream stops.

Routing through the replica set costs one lock + round-robin pick per
read; the benchmark also measures that overhead and asserts replicated
read throughput stays within 2.5x of direct leader reads (CPython threads
serialize CPU-bound lookups regardless of core count, so wall-clock
*scaling* is only reported — the floor is offload + bounded overhead,
which holds on any machine including single-core CI runners).

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_replicated_reads.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_replicated_reads.py --smoke   # CI guard

The full run writes ``benchmarks/results/replicated_reads.json``; both
modes assert the offload floor, answer equality, and the staleness bound,
so a regression fails the job.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from repro.config import CrypTextConfig
from repro.core.pipeline import CrypText
from repro.replication import Follower, ReplicaSet
from repro.storage import SNAPSHOT_FILE_NAME
from repro.wal import ChangeLog, wal_directory_for

from bench_cold_start import STEMS, _perturb, _timed, build_dictionary

RESULTS_PATH = Path(__file__).parent / "results" / "replicated_reads.json"

#: CI floor: fraction of reads that must land on followers.
OFFLOAD_FLOOR = 0.95
#: CI ceiling: routed reads may cost at most this factor over direct reads.
OVERHEAD_CEILING = 2.5
#: Staleness bound the followers must hold under write load (seconds).
STALENESS_BOUND = 2.0


def _build_leader(size: int, seed: int, work_dir: Path) -> CrypText:
    config = CrypTextConfig(cache_enabled=False)
    leader = CrypText.empty(config=config, seed_lexicon=False)
    built = build_dictionary(size, seed, config)
    leader.dictionary.attach_wal(ChangeLog(wal_directory_for(work_dir)))
    leader.dictionary.add_corpus(
        (entry.token for entry in built.iter_entries()), source="bench"
    )
    leader.save_snapshot(work_dir / SNAPSHOT_FILE_NAME)
    return leader


def _read_throughput(target, queries, workers: int) -> float:
    """Aggregate look_up calls/second from ``workers`` client threads."""
    def client(chunk):
        for query in chunk:
            target.look_up(query)

    chunks = [queries[index::workers] for index in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        elapsed, _ = _timed(
            lambda: list(pool.map(client, chunks))
        )
    return len(queries) / elapsed


def measure(size: int, followers: int, reads: int, seed: int, work_dir: Path) -> dict:
    rng = random.Random(seed)
    leader = _build_leader(size, seed, work_dir)
    replicas = [
        Follower(
            work_dir,
            config=leader.config,
            name=f"follower-{index}",
        )
        for index in range(followers)
    ]
    for replica in replicas:
        replica.catch_up()
    replica_set = ReplicaSet(leader, replicas, max_staleness_seconds=STALENESS_BOUND)
    # Tail in the background for the whole run so freshness reflects the
    # real deployment (an idle poll round still renews the staleness lease).
    replica_set.start(poll_interval=0.05)

    queries = [_perturb(rng.choice(STEMS), rng) for _ in range(reads)]
    workers = max(2, min(4, os.cpu_count() or 1))

    # Answer equality: the routed answer is the leader's answer.
    for query in queries[:200]:
        routed = replica_set.look_up(query)
        direct = leader.look_up(query)
        assert routed == direct, query

    direct_rps = _read_throughput(leader, queries, workers)
    routed_rps = _read_throughput(replica_set, queries, workers)

    status = replica_set.status()
    routed_total = status["routed_to_followers"] + status["routed_to_leader"]
    offload = status["routed_to_followers"] / routed_total

    # Staleness under write load: followers tail a writing leader.
    stream_words = iter(f"streamword{index}z" for index in range(10_000))
    deadline = time.monotonic() + 2.0
    writes = 0
    max_seen_lag = 0.0
    while time.monotonic() < deadline:
        leader.learn_from([f"the {next(stream_words)} spreads"], source="stream")
        writes += 1
        for replica in replicas:
            lag = replica.lag_seconds()
            if lag is not None:
                max_seen_lag = max(max_seen_lag, lag)
        time.sleep(0.002)
    replica_set.stop()
    for replica in replicas:
        replica.catch_up()
        assert replica.is_fresh(STALENESS_BOUND), replica.stats()
        assert (
            replica.system.dictionary.content_fingerprint()
            == leader.dictionary.content_fingerprint()
        ), replica.name
    replica_set.close()

    return {
        "entries": size,
        "followers": followers,
        "reads": reads,
        "client_threads": workers,
        "cpu_count": os.cpu_count(),
        "direct_reads_per_second": direct_rps,
        "routed_reads_per_second": routed_rps,
        "routing_overhead_factor": direct_rps / routed_rps,
        "offload_fraction": offload,
        "writes_during_tail": writes,
        "max_observed_lag_seconds": max_seen_lag,
        "staleness_bound_seconds": STALENESS_BOUND,
    }


def check_floors(row: dict) -> None:
    assert row["offload_fraction"] >= OFFLOAD_FLOOR, (
        f"only {row['offload_fraction']:.1%} of reads offloaded to followers "
        f"(floor {OFFLOAD_FLOOR:.0%})"
    )
    assert row["routing_overhead_factor"] <= OVERHEAD_CEILING, (
        f"replica routing cost {row['routing_overhead_factor']:.2f}x direct reads "
        f"(ceiling {OVERHEAD_CEILING}x)"
    )
    assert row["max_observed_lag_seconds"] <= STALENESS_BOUND, row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--size", type=int, default=10_000, help="leader dictionary entries"
    )
    parser.add_argument(
        "--followers", type=int, nargs="+", default=[2, 4],
        help="follower counts to sweep",
    )
    parser.add_argument("--reads", type=int, default=4_000)
    parser.add_argument("--seed", type=int, default=20230116)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI guard: 2 followers over a small leader, floors asserted",
    )
    args = parser.parse_args(argv)

    import tempfile

    if args.smoke:
        size, counts, reads = 2_000, [2], 800
    else:
        size, counts, reads = args.size, list(args.followers), args.reads

    report: dict = {"followers": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for count in counts:
            work_dir = Path(tmp) / f"replicas_{count}"
            row = measure(size, count, reads, args.seed, work_dir)
            check_floors(row)
            report["followers"][str(count)] = row
            print(
                f"followers {count}: {row['offload_fraction']:.1%} offload, "
                f"direct {row['direct_reads_per_second']:.0f} r/s, "
                f"routed {row['routed_reads_per_second']:.0f} r/s, "
                f"max lag {row['max_observed_lag_seconds']*1000:.0f}ms "
                f"over {row['writes_during_tail']} writes",
                file=sys.stderr,
            )

    if not args.smoke:
        RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
        RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {RESULTS_PATH}", file=sys.stderr)
    print("replicated-read floors hold", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
