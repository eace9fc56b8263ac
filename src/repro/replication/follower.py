"""Follower replicas: hydrate from the snapshot chain, tail the leader's WAL.

A :class:`Follower` owns a complete read-only :class:`~repro.core.pipeline.CrypText`
system of its own — documents, compiled tries, query cache —
reconstructed from the leader's persisted artifacts and kept fresh by
polling the journal:

1. **hydrate** — resolve the leader's base + delta chain
   (:func:`~repro.wal.delta.resolve_snapshot_chain`) and install the merged
   snapshot; the chain tip's recorded ``wal_seq`` becomes the applied
   position.  With no usable chain the follower starts empty at position 0
   and replays the journal from its beginning.
2. **catch up / poll** — read every complete record past the applied
   position (:class:`~repro.replication.tailer.WalTail`) and apply it
   through the same replay core crash recovery uses
   (:meth:`~repro.core.dictionary.PerturbationDictionary.apply_wal_record`),
   whose writes reach the replica's caches through the dictionary's
   observers, like any other write.  Applying is idempotent by sequence
   number: a record at or below the applied position is never applied
   twice, so a follower killed mid-catch-up simply re-tails.
3. **degrade gracefully** — when the leader truncates or supersedes
   segments under the tail (a gap), the follower re-hydrates from the
   latest chain, which by the truncation contract covers everything the
   deleted segments held.

The follower never journals: its dictionary has no WAL attached, and the
replay core suppresses journaling anyway.  It never writes to the leader's
directories either — hydration and tailing are strictly read-only, which is
what lets N followers share one leader's disk artifacts without any
coordination beyond the single-writer guard on the leader itself.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable

from ..analysis.sanitizer import tracked_rlock
from ..config import CrypTextConfig, DEFAULT_CONFIG
from ..core.pipeline import CrypText
from ..errors import SnapshotError
from ..obs.registry import OBS
from ..resilience.faults import FAULTS
from ..resilience.policies import CircuitBreaker, RetryPolicy
from ..storage.snapshot import MappedSnapshot
from ..wal.delta import resolve_snapshot_chain
from ..wal.log import resolve_wal_directory
from .tailer import WalTail


class Follower:
    """One read replica tailing a leader's snapshot directory + WAL.

    Parameters
    ----------
    snapshot_dir:
        The leader's snapshot directory (base + deltas live here).
    wal_dir:
        The leader's journal; resolved like every other entry point
        (explicit beats ``config.wal_dir`` beats ``<snapshot_dir>/wal``).
    config:
        Configuration for the replica's own system (and the source of
        ``replica_poll_interval`` / ``max_staleness_seconds`` defaults).
    name:
        Identifier used in stats and routing output.
    clock:
        Monotonic-seconds source, injectable for staleness tests.
    record_applied_seqs:
        Keep the set of every sequence number ever applied (the
        concurrency harness asserts no loss and no duplication with it).
        Off by default — it grows without bound.
    """

    def __init__(
        self,
        snapshot_dir: str | Path,
        wal_dir: str | Path | None = None,
        config: CrypTextConfig = DEFAULT_CONFIG,
        name: str = "follower",
        clock: Callable[[], float] = time.monotonic,
        record_applied_seqs: bool = False,
    ) -> None:
        self.name = name
        self.config = config
        self.snapshot_dir = Path(snapshot_dir)
        self.wal_dir = resolve_wal_directory(config, self.snapshot_dir, wal_dir)
        self.system = CrypText.empty(config=config, seed_lexicon=False)
        self._tail = WalTail(self.wal_dir)
        self._clock = clock
        self._lock = tracked_rlock("follower.state")
        self._applied_seq = 0
        self._applied_records = 0
        self._applied_seq_log: set[int] | None = set() if record_applied_seqs else None
        self._skipped_records = 0
        self._rehydrations = 0
        self._hydrated = False
        self._mapped: "MappedSnapshot | None" = None
        self._last_sync: float | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._closed = False
        # Resilience: transient tail-read retries, per-replica breaker,
        # bounded records-per-poll backpressure, poll-failure accounting.
        self.breaker = CircuitBreaker(
            config.breaker_failure_threshold,
            config.breaker_recovery_seconds,
            clock=clock,
            name=name,
        )
        self._retry = RetryPolicy(
            attempts=config.retry_attempts,
            base_delay=config.retry_base_delay,
            retry_on=(OSError,),
        )
        self._catchup_batch = config.replica_catchup_batch
        self._polls = 0
        self._poll_errors = 0
        self._consecutive_poll_failures = 0
        self._last_poll_error: str | None = None
        self._throttled_polls = 0

    # ------------------------------------------------------------------ #
    # hydration & polling
    # ------------------------------------------------------------------ #
    @property
    def applied_seq(self) -> int:
        """Position of the last WAL record folded into this replica."""
        with self._lock:
            return self._applied_seq

    @property
    def applied_seqs(self) -> frozenset[int]:
        """Every sequence number ever applied (requires ``record_applied_seqs``)."""
        with self._lock:
            return frozenset(self._applied_seq_log or ())

    def hydrate(self) -> bool:
        """(Re)install the leader's snapshot chain; returns whether one loaded.

        Safe to call on a live replica — a re-hydration replaces the whole
        state and moves the applied position to the chain tip, after which
        polling resumes from there.  With no usable chain the replica keeps
        its current state (initially empty) and position.

        A v2 sharded base with no pending deltas is opened through ``mmap``
        (``prefer_mapped``): trie rows materialize per bucket on first
        query, and every follower of the same snapshot version in the
        process shares the same mapped pages instead of a private heap
        copy.  The replica holds the mapping for as long as that hydration
        is live (``mapped_snapshot``).
        """
        with self._lock:
            try:
                chain = resolve_snapshot_chain(
                    self.snapshot_dir, strict=False, prefer_mapped=True
                )
            except SnapshotError:
                # A broken delta link: the base alone may still be stale vs.
                # our position; replaying the WAL from 0 over the base risks
                # double-apply.  Treat as unusable and keep the current state.
                chain = None
            if chain is None:
                return False
            self.system.dictionary.hydrate_snapshot(chain.snapshot)
            self._applied_seq = chain.snapshot.wal_seq
            self._hydrated = True
            self._mapped = chain.mapped
            return True

    def poll(self) -> int:
        """One tail round: apply every new complete record; returns how many.

        A detected gap triggers one re-hydration attempt, then a re-tail
        from the new position inside the same call.  Raises nothing on a
        quiet log — zero is a normal return.

        At most ``config.replica_catchup_batch`` records are applied per
        call (backpressure: a follower many segments behind catches up in
        bounded slices instead of monopolizing its lock and the leader's
        disk).  Failures are counted, feed the replica's circuit breaker,
        and re-raise; use :meth:`poll_safely` where an exception must not
        escape (the background tail thread does).
        """
        if OBS.armed:
            with OBS.span("follower.poll"):
                return self._poll_round()
        return self._poll_round()

    def _poll_round(self) -> int:
        with self._lock:
            if self._closed:
                return 0
            self._polls += 1
            try:
                if FAULTS.armed:
                    FAULTS.hit("follower.poll")
                applied = self._poll_locked()
            except Exception as exc:
                self._poll_errors += 1
                self._consecutive_poll_failures += 1
                self._last_poll_error = f"{type(exc).__name__}: {exc}"
                self.breaker.record_failure()
                raise
            self._consecutive_poll_failures = 0
            self.breaker.record_success()
            return applied

    def _read_tail(self, after_seq: int):
        """Tail read with transient-IO retries and the catch-up bound."""
        return self._retry.call(self._tail.read_after, after_seq, self._catchup_batch)

    def _poll_locked(self) -> int:
        batch = self._read_tail(self._applied_seq)
        if batch.gap:
            self._rehydrations += 1
            if self.hydrate():
                batch = self._read_tail(self._applied_seq)
            if batch.gap:
                # Still unreachable (no usable chain yet — e.g. the
                # leader is mid-save).  Stay stale; the routing layer
                # will exclude us until a later poll succeeds.
                return 0
        if batch.truncated:
            self._throttled_polls += 1
        applied = 0
        for record in batch.records:
            if record.seq <= self._applied_seq:
                continue
            if self.system.dictionary.apply_wal_record(record):
                self._applied_records += 1
            else:
                self._skipped_records += 1
            # Unknown operations advance the position too — they were
            # journaled by a newer writer and will be equally unknown
            # on every future poll.
            self._applied_seq = record.seq
            if self._applied_seq_log is not None:
                self._applied_seq_log.add(record.seq)
            applied += 1
        self._last_sync = self._clock()
        return applied

    def poll_safely(self) -> int | None:
        """:meth:`poll`, but swallow the exception (it is already counted).

        Returns the applied count, or ``None`` when the round failed.
        """
        try:
            return self.poll()
        except Exception:  # lint: allow=swallowed-exception (poll() already counted and recorded it)
            return None

    def catch_up(self) -> int:
        """Hydrate (once, if never done) and poll until the tail runs dry.

        Each poll applies a bounded slice and releases the replica's lock,
        so concurrent reads interleave with a long catch-up instead of
        stalling behind it.
        """
        if OBS.armed:
            with OBS.span("follower.catchup"):
                return self._catch_up()
        return self._catch_up()

    def _catch_up(self) -> int:
        with self._lock:
            if not self._hydrated:
                self.hydrate()
        total = 0
        while True:
            applied = self.poll()
            total += applied
            if applied == 0:
                return total
            time.sleep(0)  # yield between slices: readers and the leader's disk go first

    # ------------------------------------------------------------------ #
    # background tailing
    # ------------------------------------------------------------------ #
    def start(self, poll_interval: float | None = None) -> None:
        """Tail continuously on a daemon thread every ``poll_interval`` seconds.

        The thread never dies to an exception: a failing poll is counted
        (``stats()["poll_errors"]``), feeds the circuit breaker, and backs
        the loop off exponentially (capped) until a round succeeds again —
        a transient disk error must not leave a forever-stale replica that
        still looks healthy.
        """
        interval = (
            poll_interval if poll_interval is not None else self.config.replica_poll_interval
        )
        if interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {interval!r}")
        if self._thread is not None:
            return
        self._stop.clear()
        backoff_cap = max(2.0, interval * 8)

        def run() -> None:
            while not self._stop.is_set():
                if self.poll_safely() is not None:
                    wait = interval
                else:
                    with self._lock:
                        failures = self._consecutive_poll_failures
                    wait = min(interval * (2 ** min(failures, 10)), backoff_cap)
                self._stop.wait(wait)

        self._thread = threading.Thread(
            target=run, name=f"cryptext-{self.name}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background tail (the replica keeps serving reads)."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join()

    def close(self) -> None:
        """Stop tailing; later polls apply nothing."""
        self.stop()
        with self._lock:
            self._closed = True

    # ------------------------------------------------------------------ #
    # staleness & stats
    # ------------------------------------------------------------------ #
    def lag_seconds(self) -> float | None:
        """Seconds since the last successful tail round (``None``: never)."""
        with self._lock:
            if self._last_sync is None:
                return None
            return max(0.0, self._clock() - self._last_sync)

    def is_fresh(self, max_staleness_seconds: float | None = None) -> bool:
        """Whether this replica is inside the staleness bound."""
        bound = (
            max_staleness_seconds
            if max_staleness_seconds is not None
            else self.config.max_staleness_seconds
        )
        lag = self.lag_seconds()
        return lag is not None and lag <= bound

    @property
    def hydrated(self) -> bool:
        """Whether a snapshot chain has ever been installed."""
        with self._lock:
            return self._hydrated

    @property
    def mapped_snapshot(self) -> "MappedSnapshot | None":
        """The ``mmap``-backed base of the current hydration, if any.

        ``None`` when the last hydration read a v1 file, merged deltas, or
        nothing has hydrated yet.  Two followers of the same snapshot
        version return views over the *same* shard readers — the
        page-sharing property the replication tests pin down.
        """
        with self._lock:
            return self._mapped

    def stats(self) -> dict[str, object]:
        """Replication counters (the ``/v1/replication`` per-follower view)."""
        with self._lock:
            lag = None if self._last_sync is None else max(0.0, self._clock() - self._last_sync)
            return {
                "name": self.name,
                "applied_seq": self._applied_seq,
                "applied_records": self._applied_records,
                "skipped_records": self._skipped_records,
                "rehydrations": self._rehydrations,
                "hydrated": self._hydrated,
                "mapped_bytes": 0 if self._mapped is None else self._mapped.mapped_bytes,
                "replication_lag_seconds": lag,
                "tailing": self._thread is not None,
                "tokens": len(self.system.dictionary),
                "polls": self._polls,
                "poll_errors": self._poll_errors,
                "consecutive_poll_failures": self._consecutive_poll_failures,
                "last_poll_error": self._last_poll_error,
                "throttled_polls": self._throttled_polls,
                "catchup_batch": self._catchup_batch,
                "breaker": self.breaker.status(),
            }
