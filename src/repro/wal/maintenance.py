"""Background maintenance: auto-save, delta compaction, WAL truncation.

A durable deployment has three recurring chores:

* **auto-save** — refresh the snapshot every ``autosave_interval`` seconds
  so the WAL tail (what recovery must replay) stays short; incremental by
  default, so steady-state saves cost proportionally to what changed;
* **compaction** — after ``compact_every`` delta links, fold the chain back
  into one full snapshot so resolution never walks an unbounded chain;
* **WAL truncation** — after each full save, drop the segments it covers.

:class:`MaintenanceScheduler` runs them two ways at once:

* **cooperatively** — :meth:`tick` is cheap when nothing is due, so hot
  loops call it inline: :meth:`StreamCrawler.crawl_once
  <repro.social.crawler.StreamCrawler.crawl_once>` after each ingest round
  (the ROADMAP's crawler auto-save hook) and the batch engine's streaming
  generators between chunks — a long enrichment or streaming job persists
  warm state periodically without any extra thread;
* **in the background** — :meth:`start` spawns a daemon thread waking every
  few seconds, for services whose request loops should never pay a save
  inline.  Saves run concurrently with readers (the dictionary snapshots
  its state under its own write lock), so reads keep being served while a
  snapshot is written.

Truncation safety: the WAL is truncated only through positions covered by a
**full** snapshot.  Delta saves leave the log alone, so a broken delta
chain can always degrade to base + full replay.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..analysis.sanitizer import tracked_rlock
from ..errors import CrypTextError, SnapshotError, WalError
from ..storage.snapshot import SNAPSHOT_FILE_NAME
from .log import ChangeLog, gc_superseded_segments, resolve_wal_directory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dictionary import PerturbationDictionary, SnapshotSaveReport


@dataclass(frozen=True)
class MaintenancePolicy:
    """Tunables of the maintenance loop.

    ``autosave_interval`` of ``None`` disables interval-driven saves (the
    scheduler then only acts on explicit :meth:`MaintenanceScheduler.run_now`
    triggers).  ``compact_every`` bounds the delta-chain length; 0 disables
    compaction entirely (chains grow until an explicit trigger).
    ``superseded_retention`` is how long (seconds) sidelined
    ``*.seg.superseded`` journals are kept for operator salvage before the
    scheduler deletes them; ``None`` disables the GC.
    """

    autosave_interval: float | None = 300.0
    incremental: bool = True
    compact_every: int = 8
    truncate_wal: bool = True
    superseded_retention: float | None = 604800.0

    def __post_init__(self) -> None:
        if self.autosave_interval is not None and self.autosave_interval <= 0:
            raise CrypTextError(
                f"autosave_interval must be positive (or None), "
                f"got {self.autosave_interval!r}"
            )
        if self.compact_every < 0:
            raise CrypTextError(
                f"compact_every must be >= 0, got {self.compact_every!r}"
            )
        if self.superseded_retention is not None and self.superseded_retention < 0:
            raise CrypTextError(
                f"superseded_retention must be >= 0 (or None), "
                f"got {self.superseded_retention!r}"
            )

    def to_dict(self) -> dict[str, object]:
        """Serialize for the maintenance status surface."""
        return {
            "autosave_interval": self.autosave_interval,
            "incremental": self.incremental,
            "compact_every": self.compact_every,
            "truncate_wal": self.truncate_wal,
            "superseded_retention": self.superseded_retention,
        }


class MaintenanceScheduler:
    """Drives snapshot refresh, compaction, and WAL truncation.

    Parameters
    ----------
    dictionary:
        The dictionary to persist.
    snapshot_dir:
        Directory of the base + delta chain (default
        ``config.snapshot_dir``; one of the two must be set).
    wal_dir / wal:
        Where the change log lives — pass an open :class:`ChangeLog` to
        share one, or a directory (default ``config.wal_dir``, else
        ``<snapshot_dir>/wal``) to open one.  The log is attached to the
        dictionary so every write between saves is journaled.
    policy:
        The :class:`MaintenancePolicy`; when omitted, one is derived from
        the dictionary's config (``snapshot_autosave_interval``).
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        dictionary: "PerturbationDictionary",
        snapshot_dir: str | Path | None = None,
        wal_dir: str | Path | None = None,
        wal: ChangeLog | None = None,
        policy: MaintenancePolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        config = dictionary.config
        if snapshot_dir is not None:
            self.snapshot_dir = Path(snapshot_dir)
        elif config.snapshot_dir is not None:
            self.snapshot_dir = Path(config.snapshot_dir)
        else:
            raise CrypTextError(
                "maintenance needs a snapshot directory: pass snapshot_dir "
                "or set config.snapshot_dir"
            )
        self.dictionary = dictionary
        if policy is not None:
            self.policy = policy
        elif config.snapshot_autosave_interval is not None:
            self.policy = MaintenancePolicy(
                autosave_interval=config.snapshot_autosave_interval,
                superseded_retention=config.wal_superseded_retention,
            )
        else:
            # An unset config interval means "use the scheduler default",
            # not "never save" — a scheduler whose every tick is a no-op
            # would silently void the durability the caller asked for.
            # Interval-driven saves are disabled only explicitly, by
            # passing MaintenancePolicy(autosave_interval=None).
            self.policy = MaintenancePolicy(
                superseded_retention=config.wal_superseded_retention
            )
        if wal is None:
            wal_dir = resolve_wal_directory(config, self.snapshot_dir, wal_dir)
            wal = dictionary.wal
            if wal is None or Path(wal.directory) != Path(wal_dir):
                wal = ChangeLog(wal_dir, segment_bytes=config.wal_segment_bytes)
        self.wal = wal
        if dictionary.wal is not wal:
            dictionary.attach_wal(wal)
        self._clock = clock
        # Two locks so observers never wait on a save: ``_save_lock``
        # serializes the actual snapshot work (potentially seconds), while
        # ``_state_lock`` guards only counters and anchors — ``status()``,
        # ``due_in()``, and a not-yet-due ``tick()`` stay O(1) even while a
        # background save is running.  Ordering: _save_lock outer,
        # _state_lock inner.
        self._save_lock = tracked_rlock("maintenance.save")
        self._state_lock = tracked_rlock("maintenance.state")  # reentrant: status() reads due_in()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_save_at: float | None = None
        self._started_at = clock()
        # Counters (the /v1/admin/maintenance status surface).
        self._ticks = 0
        self._autosaves = 0
        self._incremental_saves = 0
        self._full_saves = 0
        self._compactions = 0
        self._wal_truncations = 0
        self._superseded_removed = 0
        self._last_report: "SnapshotSaveReport | None" = None
        self._last_error: str | None = None

    # ------------------------------------------------------------------ #
    # the work items
    # ------------------------------------------------------------------ #
    def _snapshot_path(self) -> Path:
        return self.snapshot_dir / SNAPSHOT_FILE_NAME

    def save(self, incremental: bool | None = None) -> "SnapshotSaveReport":
        """Persist now: a delta when allowed and due, else a full rewrite.

        A full rewrite is forced every ``policy.compact_every`` saves —
        that *is* the compaction step, since a full save supersedes and
        removes the delta files — and is followed by WAL truncation
        through the snapshot's recorded position.
        """
        with self._save_lock:
            wants_delta = self.policy.incremental if incremental is None else incremental
            forced_compaction = False
            if (
                wants_delta
                and self.policy.compact_every
                and self.dictionary.dirty_state()["chain_deltas"]
                >= self.policy.compact_every
            ):
                wants_delta = False
                forced_compaction = True
            report = self.dictionary.save_snapshot(
                self._snapshot_path(), incremental=wants_delta
            )
            truncated = False
            if not report.incremental and self.policy.truncate_wal:
                self.wal.truncate_through(report.wal_seq)
                truncated = True
            if not report.incremental:
                # Full saves are the natural cadence for retiring sidelined
                # journals too — frequent enough to bound disk growth,
                # infrequent enough to stay off the ingest hot path.
                self.gc_superseded()
            with self._state_lock:
                self._last_save_at = self._clock()
                self._last_report = report
                if report.incremental:
                    self._incremental_saves += 1
                else:
                    self._full_saves += 1
                    if forced_compaction:
                        self._compactions += 1
                    if truncated:
                        self._wal_truncations += 1
            return report

    def compact(self) -> "SnapshotSaveReport":
        """Fold the delta chain into one full snapshot and truncate the WAL."""
        with self._save_lock:
            report = self.save(incremental=False)
            with self._state_lock:
                self._compactions += 1
            return report

    def truncate_wal(self) -> int:
        """Drop WAL segments covered by the last *full* snapshot on disk.

        Uses the base snapshot's recorded position (never a delta's), so a
        broken chain can still degrade to base + replay.  Returns segments
        deleted; 0 when no usable base exists.
        """
        from ..storage.snapshot import read_snapshot

        with self._save_lock:
            try:
                base = read_snapshot(self._snapshot_path())
            except SnapshotError:
                return 0
            deleted = self.wal.truncate_through(base.wal_seq)
            if deleted:
                with self._state_lock:
                    self._wal_truncations += 1
            return deleted

    def gc_superseded(self) -> int:
        """Delete ``*.seg.superseded`` journals older than the retention window.

        Returns how many were removed; 0 when the policy disables the GC
        (``superseded_retention=None``) or nothing has aged out yet.
        """
        retention = self.policy.superseded_retention
        if retention is None:
            return 0
        removed = gc_superseded_segments(self.wal.directory, retention)
        if removed:
            with self._state_lock:
                self._superseded_removed += removed
        return removed

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def due_in(self) -> float | None:
        """Seconds until the next interval-driven save (``None`` = disabled)."""
        interval = self.policy.autosave_interval
        if interval is None:
            return None
        with self._state_lock:
            anchor = self._last_save_at if self._last_save_at is not None else self._started_at
            return max(0.0, anchor + interval - self._clock())

    def tick(self) -> "SnapshotSaveReport | None":
        """Run whatever is due; cheap no-op otherwise.

        The cooperative hook called inline by the crawler loop and the
        batch engine's streaming generators.  Never waits on a save another
        thread is already performing (the work is being done; blocking the
        hot loop behind it would defeat the hook's purpose), and errors are
        recorded in the status surface instead of propagating.
        """
        with self._state_lock:
            self._ticks += 1
        due = self.due_in()
        if due is None or due > 0:
            return None
        if not self._save_lock.acquire(blocking=False):
            return None
        try:
            due = self.due_in()  # may have just been satisfied by the holder
            if due is None or due > 0:
                return None
            try:
                report = self.save()
            except (CrypTextError, WalError) as exc:
                with self._state_lock:
                    self._last_error = str(exc)
                    # Push the next attempt one interval out instead of
                    # retrying (and failing) on every subsequent tick.
                    self._last_save_at = self._clock()
                return None
            with self._state_lock:
                self._autosaves += 1
                self._last_error = None
            return report
        finally:
            self._save_lock.release()

    def run_now(self, task: str = "save") -> dict[str, object]:
        """Explicit trigger (the ``/v1/admin/maintenance`` POST surface).

        ``task`` is one of ``save`` (respects the incremental policy),
        ``full_save``, ``compact``, ``truncate_wal``, or ``gc_superseded``.
        """
        if task == "save":
            return {"task": task, "report": self.save().to_dict()}
        if task == "full_save":
            return {"task": task, "report": self.save(incremental=False).to_dict()}
        if task == "compact":
            return {"task": task, "report": self.compact().to_dict()}
        if task == "truncate_wal":
            return {"task": task, "segments_deleted": self.truncate_wal()}
        if task == "gc_superseded":
            return {"task": task, "segments_deleted": self.gc_superseded()}
        raise CrypTextError(
            f"unknown maintenance task {task!r} "
            "(expected save, full_save, compact, truncate_wal, or gc_superseded)"
        )

    def start(self, poll_interval: float = 1.0) -> None:
        """Spawn the background daemon thread (idempotent)."""
        if poll_interval <= 0:
            raise CrypTextError(f"poll_interval must be positive, got {poll_interval}")
        with self._state_lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop,
                args=(poll_interval,),
                name="cryptext-maintenance",
                daemon=True,
            )
            self._thread.start()

    def _loop(self, poll_interval: float) -> None:
        while not self._stop.wait(poll_interval):
            self.tick()

    def stop(self) -> None:
        """Stop the background thread (the cooperative hooks keep working)."""
        self._stop.set()
        with self._state_lock:
            thread = self._thread
        # Join outside the lock: the loop's tick() takes the save/state
        # locks, so joining while holding one could deadlock the shutdown.
        if thread is not None:
            thread.join(timeout=5.0)
        with self._state_lock:
            # Clear only our own handle — a concurrent start() may already
            # have installed a fresh thread we must not orphan.
            if self._thread is thread:
                self._thread = None

    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def status(self) -> dict[str, object]:
        """Counters + due times + WAL/dirty state (the admin status surface).

        Takes only the state lock — readable mid-save (the admin "is it
        still running?" probe must not block behind the save itself).
        """
        with self._state_lock:
            return {
                "snapshot_dir": str(self.snapshot_dir),
                "policy": self.policy.to_dict(),
                "running": self.running,
                "ticks": self._ticks,
                "autosaves": self._autosaves,
                "incremental_saves": self._incremental_saves,
                "full_saves": self._full_saves,
                "compactions": self._compactions,
                "wal_truncations": self._wal_truncations,
                "superseded_removed": self._superseded_removed,
                "due_in_seconds": self.due_in(),
                "last_error": self._last_error,
                "last_save": (
                    self._last_report.to_dict() if self._last_report is not None else None
                ),
                "dirty": self.dictionary.dirty_state(),
                "wal": self.wal.stats().to_dict(),
            }
