"""The project's declared lock-order hierarchy and analysis allowlists.

A dozen modules hold :class:`threading.Lock`/``RLock``s today — across the
dictionary write path, the WAL, delta snapshots, follower tailing, and
breaker-aware routing — and PRs 5-7 each spent review passes hand-hunting
lock-order and IO-under-lock bugs.  This module writes the hard-won
acquisition order down *once*, as data, so that

* the static lint pass (:mod:`repro.analysis.lint`) can reject a ``with``
  nesting that acquires locks against the declared order, and
* the runtime sanitizer (:mod:`repro.analysis.sanitizer`) can verify the
  same order on every acquisition the test suites actually perform.

**The rule:** a thread holding a lock may only acquire locks of strictly
greater rank.  Smaller rank = outer lock.  Locks are identified by *name*
(one name per lock role, not per instance — every query cache's lock
shares the rank of ``storage.cache``), and every lock constructed through
:func:`repro.analysis.sanitizer.tracked_lock` /
:func:`~repro.analysis.sanitizer.tracked_rlock` carries its name in the
source, which is also how the linter learns which attribute holds which
lock.

The declared order (outermost first), as established by PRs 1-7:

1.  ``maintenance.save`` wraps the whole snapshot-save pipeline
    (dictionary snapshot lock, WAL truncation, state counters).
2.  ``maintenance.state`` is taken inside saves but also wraps
    ``dictionary.write`` / ``wal.segment`` reads in ``status()``.
3.  ``replica.route`` (routing decisions) wraps follower state and
    breaker scans.
4.  ``follower.state`` wraps the whole replay path: tail reads, then
    ``dictionary.write`` via ``apply_wal_record``.
5.  ``dictionary.snapshot`` serializes saves and wraps ``dictionary.write``.
6.  ``dictionary.write`` journals before applying: it wraps
    ``wal.segment`` (journal-before-apply), the compiled-bucket LRU (the
    version bump and bucket drop of a write), and — via the observer
    notification every write sends while holding it — every cache owner's
    ``storage.cache``.  The dictionary's token store itself has no lock:
    writes under ``dictionary.write`` replace its documents and bucket
    tuples, and full scans copy its document table under the same hold.
    ``social.posts`` guards the simulated social platform's post list and
    its token index; nothing is acquired while it is held.
7.  Leaf-side locks: the query cache, the compiled-bucket LRU, trie
    registry/family locks, the fault registry (hit from inside
    ``wal.segment``), and the per-replica breaker.
"""

from __future__ import annotations

#: Lock name -> rank.  A thread holding lock A may acquire lock B only when
#: ``rank(B) > rank(A)``.  Gaps of 10 leave room for future subsystems.
LOCK_RANKS: dict[str, int] = {
    "maintenance.save": 10,
    "maintenance.state": 20,
    "replica.route": 30,
    "follower.state": 40,
    "dictionary.snapshot": 90,
    "dictionary.write": 100,
    "wal.segment": 110,
    "social.posts": 120,
    "storage.cache": 130,
    "dictionary.compiled": 140,
    "matcher.registry": 150,
    "matcher.family": 160,
    # The SymSpell delete-index build lock ranks under matcher.family: a
    # lazily mapped family drains its mmap loader under the family lock and
    # parks delete rows under matcher.deletes inside that hold.
    "matcher.deletes": 165,
    # The process-wide mmap'd shard cache: family loaders read through it
    # while holding matcher.family, so it must rank below (acquire-after)
    # every matcher lock.
    "snapshot.mmap": 168,
    "faults.registry": 180,
    "breaker.state": 190,
    # The observability registry and its per-histogram locks are leaf-most:
    # span exits record timings while WAL/replication locks are held, and
    # collect() copies state then *releases* obs.registry before invoking
    # any adapter, so neither lock is ever held across a foreign acquire.
    "obs.registry": 200,
    "obs.metric": 210,
}

#: Locks on the serving hot path: holding one of these across blocking file
#: IO or a sleep stalls reads/writes behind disk latency, so the
#: ``io-under-lock`` lint rule fires inside their ``with`` blocks unless the
#: site is allowlisted below.  Slow-path locks (saves, routing, follower
#: state) are deliberately absent — a snapshot save *is* IO under its lock.
HOT_PATH_LOCKS: frozenset[str] = frozenset(
    {
        "dictionary.write",
        "dictionary.compiled",
        "social.posts",
        "storage.cache",
        "matcher.registry",
        "matcher.family",
        "matcher.deletes",
        "wal.segment",
    }
)

#: Static-lint allowlist for ``io-under-lock``: ``(path suffix, function)``
#: sites where blocking IO under a hot-path lock is the design, with the
#: reason recorded here so the exemption is auditable.  The WAL's append
#: path is the canonical case — journal-before-apply *requires* the write
#: to happen inside the segment lock, and the persistent O_APPEND handle
#: exists precisely to keep that IO to one write+flush.
ALLOWED_IO_UNDER_LOCK: frozenset[tuple[str, str]] = frozenset(
    {
        # Appending a frame (and group-commit fsync) inside wal.segment is
        # the journal's contract: acknowledge only what is replayable.
        # (``append`` is the span-timing wrapper; ``_append`` holds the
        # lock and performs the IO.)
        ("wal/log.py", "_append"),
        ("wal/log.py", "_inject_append_fault_locked"),
        ("wal/log.py", "_tail_handle_locked"),
        # Torn-tail repair re-reads and truncates the tail under the lock
        # so a concurrent append cannot interleave with the truncate.
        ("wal/log.py", "repair"),
        ("wal/log.py", "sync"),
        # Rotation/truncation/reset rewrite the segment list atomically.
        ("wal/log.py", "truncate_through"),
        ("wal/log.py", "reset"),
        ("wal/log.py", "close"),
    }
)

#: Sanitizer allowlist for lock-held-across-IO events: ``(fault point,
#: lock name)`` pairs that are by-design.  Any other (point, held-lock)
#: combination observed at runtime is reported.
SANITIZER_IO_ALLOWLIST: frozenset[tuple[str, str]] = frozenset(
    {
        # Journal-before-apply: the append (and its fsync) happens inside
        # both the dictionary write lock and the WAL segment lock.
        ("wal.append", "dictionary.write"),
        ("wal.append", "wal.segment"),
        ("wal.fsync", "dictionary.write"),
        ("wal.fsync", "wal.segment"),
        # Follower replay journals nothing, but a leader-side learn under
        # the follower harness still tails within follower.state.
        ("tailer.read", "follower.state"),
        ("follower.poll", "follower.state"),
        # Snapshot saves serialize under dictionary.snapshot and may journal
        # (e.g. a learn applied mid-save by the same thread's reentrant
        # write hold) — a slow path where IO under the lock is the design.
        ("wal.append", "dictionary.snapshot"),
        ("wal.fsync", "dictionary.snapshot"),
        # Snapshot writes run under the save/snapshot locks (slow path) and
        # under the write lock only for the brief dirty-set swap.
        ("snapshot.write", "maintenance.save"),
        ("snapshot.write", "dictionary.snapshot"),
        ("snapshot.write", "dictionary.write"),
        ("snapshot.write", "maintenance.state"),
        ("wal.append", "maintenance.save"),
        ("wal.fsync", "maintenance.save"),
    }
)


def rank_of(name: str) -> int | None:
    """The declared rank of lock ``name`` (``None``: not in the hierarchy)."""
    return LOCK_RANKS.get(name)


def order_allows(held: str, acquiring: str) -> bool:
    """Whether a thread holding ``held`` may acquire ``acquiring``.

    Unranked locks are never constrained (the linter and sanitizer report
    them separately so new locks get ranked instead of silently skipped);
    re-acquiring the same name is the RLock case and is always allowed.
    """
    if held == acquiring:
        return True
    held_rank = LOCK_RANKS.get(held)
    acquiring_rank = LOCK_RANKS.get(acquiring)
    if held_rank is None or acquiring_rank is None:
        return True
    return acquiring_rank > held_rank
