"""Segmented append-only change log (WAL) for dictionary mutations.

Every recorded mutation of the perturbation dictionary is journaled here
before the write is acknowledged, so a process killed mid-ingest can replay
exactly the tail of mutations its last snapshot missed.  ``add_token``
writes one ``add_token`` record; every batch write (``add_text`` /
``add_corpus`` / ``learn_from`` / crawler enrichment / lexicon seeding)
writes one compound ``learn_batch`` record listing its tokens in
first-occurrence order with their counts.

On-disk layout
--------------
A log is a directory of segment files named ``wal-<first_seq>.seg``::

    wal/
        wal-00000000000000000001.seg
        wal-00000000000000004096.seg      <- active segment

Each segment is a sequence of framed records.  One record is::

    <length:8 hex chars><crc32:8 hex chars><payload bytes>\\n

where ``length`` is the byte length of the UTF-8 JSON payload and ``crc32``
covers exactly those payload bytes.  The payload is a JSON object carrying
the record's global sequence number plus the operation::

    {"seq": 17, "op": "add_token", "token": "vacc1ne", "source": "s", "count": 1}

The frame makes the tail self-validating: after a crash mid-append the last
record is cut short (truncated header, short payload, missing newline, or a
checksum mismatch), and :meth:`ChangeLog.iter_records` stops cleanly at the
last complete record instead of propagating garbage — that is the torn-tail
detection.  :meth:`ChangeLog.repair` physically truncates the torn bytes so
subsequent appends start from a clean frame boundary.

Replay is idempotent at the applier: every record carries a strictly
increasing ``seq``, the snapshot it complements records the last ``seq`` it
covers (:attr:`repro.storage.snapshot.Snapshot.wal_seq`), and
:meth:`iter_records` takes ``after_seq`` — so a record is applied exactly
once no matter how many times recovery runs over the same files.

Truncation (:meth:`ChangeLog.truncate_through`) removes whole segments whose
records are all covered by a full snapshot; the active tail segment is never
deleted in place, so appends continue seamlessly after maintenance.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

try:  # pragma: no cover - fcntl is present on every POSIX build
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..analysis.sanitizer import tracked_rlock
from ..errors import TornWrite, WalError
from ..obs.registry import OBS
from ..resilience.faults import FAULTS

#: Segment file name pattern: ``wal-<first_seq:020d>.seg``.
WAL_SEGMENT_GLOB = "wal-*.seg"

#: Frame header size: 8 hex chars of payload length + 8 hex chars of CRC-32.
_HEADER_BYTES = 16

#: Largest payload a frame may declare; a header pointing past this is
#: treated as corruption (a torn or foreign tail), not an allocation request.
_MAX_PAYLOAD_BYTES = 1 << 28


def wal_directory_for(snapshot_dir: str | Path) -> Path:
    """Conventional WAL location next to a snapshot directory (``<dir>/wal``)."""
    return Path(snapshot_dir) / "wal"


def resolve_wal_directory(
    config, snapshot_dir: str | Path, override: str | Path | None = None
) -> Path:
    """The one WAL-location rule every entry point shares.

    Precedence: an explicit ``override`` beats ``config.wal_dir`` beats the
    conventional ``<snapshot_dir>/wal`` sibling.  Recovery, the maintenance
    scheduler, and the CLI all resolve through here so they can never
    disagree about which journal belongs to a snapshot directory.
    """
    if override is not None:
        return Path(override)
    configured = getattr(config, "wal_dir", None)
    if configured is not None:
        return Path(configured)
    return wal_directory_for(snapshot_dir)


def supersede_wal_segments(wal_dir: str | Path) -> int:
    """Sideline every segment file in ``wal_dir``; returns how many.

    For superseding a journal when a base snapshot recording ``wal_seq=0``
    is written over the directory (a rebuild, a WAL-less full save): old
    segments must not replay on top of the new base.  Segments are
    *renamed* (``.superseded`` suffix) rather than deleted — replay and
    ``scan`` no longer see them, but if the save that triggered this was
    itself working from stale inputs (e.g. a JSONL fallback behind a
    corrupt base), the journaled history is still on disk for an operator
    to salvage.  Never use on a log that is currently attached — truncate
    through a covered position instead.
    """
    sidelined = 0
    base = Path(wal_dir)
    if base.is_dir():
        for segment in sorted(base.glob(WAL_SEGMENT_GLOB)):
            segment.rename(segment.with_name(segment.name + ".superseded"))
            sidelined += 1
    return sidelined


def gc_superseded_segments(
    wal_dir: str | Path, retention_seconds: float, now: float | None = None
) -> int:
    """Delete ``*.seg.superseded`` files older than the retention window.

    Sidelined segments exist for operator salvage, not forever; once their
    modification time is more than ``retention_seconds`` in the past they
    are deleted.  Returns how many were removed.  ``now`` (wall-clock
    seconds, as from :func:`time.time`) is injectable for tests; files at
    *exactly* the retention boundary are kept — only strictly older ones go.
    """
    if retention_seconds < 0:
        raise WalError(
            f"retention_seconds must be >= 0, got {retention_seconds!r}"
        )
    cutoff = (time.time() if now is None else now) - retention_seconds
    removed = 0
    base = Path(wal_dir)
    if base.is_dir():
        for path in sorted(base.glob(WAL_SEGMENT_GLOB + ".superseded")):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # raced with another collector; nothing to do
            if mtime < cutoff:
                try:
                    path.unlink()
                except OSError as exc:
                    raise WalError(f"failed to delete {path}: {exc}") from exc
                removed += 1
    return removed


class SingleWriterGuard:
    """An ``flock``-based exclusive lock on a WAL directory.

    Two processes appending to the same journal interleave frames and
    corrupt the sequence ordering silently; this guard makes the second
    writer fail loudly instead.  The lock file (``wal.lock``) lives inside
    the WAL directory and is held for the guard's lifetime — use as a
    context manager or call :meth:`release` explicitly.  ``flock`` locks
    conflict between file descriptors even within one process, so acquire
    exactly one guard per leader, at the replication/CLI entry point, not
    per :class:`ChangeLog` handle.

    On platforms without :mod:`fcntl` the guard degrades to a no-op (the
    reproduction targets POSIX; Windows users lose the loud failure, not
    correctness of a single-writer deployment).
    """

    LOCK_FILE_NAME = "wal.lock"

    def __init__(self, wal_dir: str | Path) -> None:
        self.directory = Path(wal_dir)
        self.path = self.directory / self.LOCK_FILE_NAME
        self._handle = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            handle = self.path.open("a")
        except OSError as exc:
            raise WalError(f"cannot open WAL lock file {self.path}: {exc}") from exc
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            handle.close()
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise WalError(
                f"WAL directory {self.directory} already has an active writer "
                f"(lock {self.path} is held); refusing to start a second one"
            ) from None
        self._handle = handle

    @property
    def held(self) -> bool:
        """Whether this guard currently holds the lock."""
        return self._handle is not None

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - unlock failures are benign
                pass
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SingleWriterGuard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


@dataclass(frozen=True)
class WalRecord:
    """One journaled mutation."""

    seq: int
    op: str
    payload: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """Serialize (the exact payload object written to disk)."""
        body = {"seq": self.seq, "op": self.op}
        body.update(self.payload)
        return body

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "WalRecord":
        """Rebuild a record from a decoded payload; raises on malformed shape."""
        try:
            seq = int(body["seq"])
            op = str(body["op"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WalError(f"malformed WAL record payload: {exc}") from exc
        payload = {key: value for key, value in body.items() if key not in ("seq", "op")}
        return cls(seq=seq, op=op, payload=payload)


@dataclass(frozen=True)
class WalStats:
    """Aggregate state of one change log (the ``wal info`` view)."""

    directory: str
    segments: int
    records: int
    first_seq: int
    last_seq: int
    total_bytes: int
    torn_bytes: int

    def to_dict(self) -> dict[str, object]:
        """Serialize for the CLI, the service stats, and monitoring."""
        return {
            "directory": self.directory,
            "segments": self.segments,
            "records": self.records,
            "first_seq": self.first_seq,
            "last_seq": self.last_seq,
            "total_bytes": self.total_bytes,
            "torn_bytes": self.torn_bytes,
        }


def encode_record(record: WalRecord) -> bytes:
    """Frame one record: length + CRC-32 header, payload, newline."""
    payload = json.dumps(
        record.to_dict(), ensure_ascii=False, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    header = f"{len(payload):08x}{zlib.crc32(payload) & 0xFFFFFFFF:08x}".encode("ascii")
    return header + payload + b"\n"


def decode_segment(data: bytes) -> tuple[list[WalRecord], int]:
    """Decode every complete record of a segment's bytes.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the offset
    of the first incomplete/corrupt frame (== ``len(data)`` for a clean
    segment).  Everything from ``valid_bytes`` on is the torn tail a crash
    mid-append left behind; it is reported, never parsed.
    """
    records: list[WalRecord] = []
    position = 0
    total = len(data)
    while position < total:
        header = data[position : position + _HEADER_BYTES]
        if len(header) < _HEADER_BYTES:
            break
        try:
            length = int(header[:8], 16)
            recorded_crc = int(header[8:], 16)
        except ValueError:
            break
        if length > _MAX_PAYLOAD_BYTES:
            break
        payload_start = position + _HEADER_BYTES
        payload_end = payload_start + length
        if payload_end + 1 > total:
            break
        payload = data[payload_start:payload_end]
        if data[payload_end : payload_end + 1] != b"\n":
            break
        if zlib.crc32(payload) & 0xFFFFFFFF != recorded_crc:
            break
        try:
            body = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(body, dict):
            break
        try:
            record = WalRecord.from_dict(body)
        except WalError:
            break
        records.append(record)
        position = payload_end + 1
    return records, position


@dataclass
class _Segment:
    """In-memory bookkeeping for one segment file."""

    path: Path
    first_seq: int  # seq the segment was opened at (== its name)
    last_seq: int  # last complete record's seq (first_seq - 1 when empty)
    size: int  # valid (non-torn) bytes
    records: int


class ChangeLog:
    """Append-only, segmented, checksummed journal of dictionary mutations.

    Parameters
    ----------
    directory:
        Directory holding the segment files (created as needed).
    segment_bytes:
        Rotation threshold: a new segment starts once the active one
        reaches this size.
    fsync:
        Force an ``os.fsync`` after every append.  Off by default — the
        reproduction favors throughput, and the frame format already
        guarantees a torn tail is detected rather than misread.
    fsync_batch:
        Group-commit middle ground: ``os.fsync`` once every N appends
        (and whenever the active segment handle is released) instead of
        on every one.  ``0`` (the default) disables batching; ignored
        when ``fsync`` is set, which already syncs every append.  Because
        appends go through a single ``O_APPEND`` handle in order, a crash
        between batch syncs can only lose a suffix of unsynced frames —
        the decoded log is always a contiguous prefix, never a log with
        an interior gap.

    Opening a directory scans existing segments, validates their frames,
    and — when the last segment carries a torn tail — truncates it
    (:meth:`repair`) so appends resume from a clean boundary.  A torn frame
    in the *interior* of the segment list (a non-final segment that does not
    end cleanly) raises :class:`~repro.errors.WalError`: records after a
    tear cannot be trusted, and only a crash on the final segment is a
    normal outcome.
    """

    def __init__(
        self,
        directory: str | Path,
        segment_bytes: int = 1 << 20,
        fsync: bool = False,
        fsync_batch: int = 0,
    ) -> None:
        if segment_bytes < 1:
            raise WalError(f"segment_bytes must be >= 1, got {segment_bytes}")
        if fsync_batch < 0:
            raise WalError(f"fsync_batch must be >= 0, got {fsync_batch}")
        self.directory = Path(directory)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self.fsync_batch = fsync_batch
        self._unsynced_appends = 0
        self._lock = tracked_rlock("wal.segment")
        self._closed = False
        self._torn_bytes_repaired = 0
        # Persistent O_APPEND handle on the active segment: journaling runs
        # inside the dictionary's write lock, so paying an open/close pair
        # of syscalls per record would serialize the entire ingest hot
        # path.  Invalidated whenever the active segment changes or is
        # deleted (rotation, truncation, reset).
        self._handle = None
        self._handle_path: Path | None = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise WalError(f"cannot create WAL directory {self.directory}: {exc}") from exc
        self._segments: list[_Segment] = []
        self._scan()
        self.repair()

    # ------------------------------------------------------------------ #
    # discovery & repair
    # ------------------------------------------------------------------ #
    def _segment_paths(self) -> list[Path]:
        return sorted(self.directory.glob(WAL_SEGMENT_GLOB))

    @staticmethod
    def _segment_path(directory: Path, first_seq: int) -> Path:
        return directory / f"wal-{first_seq:020d}.seg"

    def _scan(self) -> None:  # lint: allow=unguarded-write (runs in __init__, pre-sharing)
        segments: list[_Segment] = []
        paths = self._segment_paths()
        for index, path in enumerate(paths):
            stem = path.stem  # "wal-<digits>"
            try:
                first_seq = int(stem.split("-", 1)[1])
            except (IndexError, ValueError) as exc:
                raise WalError(f"foreign file in WAL directory: {path}") from exc
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise WalError(f"failed to read WAL segment {path}: {exc}") from exc
            records, valid = decode_segment(data)
            if valid < len(data) and index < len(paths) - 1:
                raise WalError(
                    f"WAL segment {path} is corrupt mid-log ({len(data) - valid} "
                    f"bad bytes before the final segment); refusing to replay past it"
                )
            for previous, record in zip([first_seq - 1] + [r.seq for r in records], records):
                if record.seq != previous + 1:
                    raise WalError(
                        f"WAL segment {path}: sequence gap ({previous} -> {record.seq})"
                    )
            segments.append(
                _Segment(
                    path=path,
                    first_seq=first_seq,
                    last_seq=records[-1].seq if records else first_seq - 1,
                    size=valid,
                    records=len(records),
                )
            )
        for left, right in zip(segments, segments[1:]):
            if right.first_seq != left.last_seq + 1:
                raise WalError(
                    f"WAL segments are not contiguous: {left.path.name} ends at "
                    f"seq {left.last_seq} but {right.path.name} starts at "
                    f"{right.first_seq}"
                )
        self._segments = segments

    def repair(self) -> int:
        """Truncate the torn tail of the final segment, if any.

        Returns the number of bytes discarded (0 for a clean log).  Called
        automatically on open; safe to call again at any time.  The tail is
        re-read and re-decoded *at repair time* — truncating from stale
        scan-time bookkeeping could cut off complete frames another handle
        appended in between (a read-only command opening the log of a
        still-running writer), so only bytes that do not decode right now
        are ever discarded, and the in-memory bookkeeping is refreshed to
        whatever the fresh decode found.
        """
        with self._lock:
            if not self._segments:
                return 0
            tail = self._segments[-1]
            try:
                data = tail.path.read_bytes()
            except OSError as exc:
                raise WalError(f"failed to read WAL segment {tail.path}: {exc}") from exc
            records, valid = decode_segment(data)
            torn = len(data) - valid
            if torn > 0:
                try:
                    with tail.path.open("r+b") as handle:
                        handle.truncate(valid)
                except OSError as exc:
                    raise WalError(
                        f"failed to repair WAL segment {tail.path}: {exc}"
                    ) from exc
                self._torn_bytes_repaired += torn
            tail.size = valid
            tail.records = len(records)
            tail.last_seq = records[-1].seq if records else tail.first_seq - 1
            return max(0, torn)

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    @property
    def last_seq(self) -> int:
        """Sequence number of the last complete record (0 when empty)."""
        with self._lock:
            return self._segments[-1].last_seq if self._segments else 0

    def append(self, op: str, payload: Mapping[str, Any]) -> WalRecord:
        """Journal one mutation; returns the record with its assigned ``seq``.

        Thread-safe; rotates to a fresh segment once the active one has
        reached :attr:`segment_bytes`.
        """
        if OBS.armed:
            with OBS.span("wal.append"):
                return self._append(op, payload)
        return self._append(op, payload)

    def _append(self, op: str, payload: Mapping[str, Any]) -> WalRecord:
        with self._lock:
            if self._closed:
                raise WalError("cannot append to a closed change log")
            next_seq = self.last_seq + 1
            record = WalRecord(seq=next_seq, op=op, payload=dict(payload))
            frame = encode_record(record)
            if not self._segments or self._segments[-1].size >= self.segment_bytes:
                path = self._segment_path(self.directory, next_seq)
                self._segments.append(
                    _Segment(
                        path=path,
                        first_seq=next_seq,
                        last_seq=next_seq - 1,
                        size=0,
                        records=0,
                    )
                )
            tail = self._segments[-1]
            try:
                handle = self._tail_handle_locked(tail.path)
                if FAULTS.armed:
                    self._inject_append_fault_locked(handle, frame, tail)
                handle.write(frame)
                handle.flush()
                if self.fsync:
                    self._fsync_locked(handle)
                elif self.fsync_batch:
                    self._unsynced_appends += 1
                    if self._unsynced_appends >= self.fsync_batch:
                        self._fsync_locked(handle)
                        self._unsynced_appends = 0
            except OSError as exc:
                self._drop_handle_locked()
                # A failed write may have left a partial frame *mid-segment*;
                # later appends landing after it would be acknowledged yet
                # unreachable (decoding stops at the tear).  Roll the file
                # back to the last known-good boundary — and if even that
                # fails, refuse all further appends rather than acknowledge
                # writes that recovery would silently destroy.
                try:
                    if tail.path.exists():
                        with tail.path.open("r+b") as rollback:
                            rollback.truncate(tail.size)
                    # else: the segment file was never created (the open
                    # itself failed) — nothing on disk to roll back, and the
                    # log stays usable for a retry.
                except OSError:
                    self._closed = True
                raise WalError(f"failed to append to {tail.path}: {exc}") from exc
            tail.last_seq = next_seq
            tail.size += len(frame)
            tail.records += 1
            return record

    def _fsync_locked(self, handle) -> None:
        """Fsync ``handle`` through the fault point and the timing span.

        Callers hold the segment lock; the fsync itself stays a single
        syscall so the lock is held no longer than before.
        """
        if FAULTS.armed:
            FAULTS.hit("wal.fsync")
        if OBS.armed:
            with OBS.span("wal.fsync"):
                os.fsync(handle.fileno())
            return
        os.fsync(handle.fileno())

    def _inject_append_fault_locked(self, handle, frame: bytes, tail: "_Segment") -> None:
        """Trigger the ``wal.append`` fault point (armed registries only).

        Plain injected IO errors raise :class:`InjectedIOError` and flow
        through the ordinary ``except OSError`` rollback below.  A
        :class:`TornWrite` is cooperative: persist a genuine partial frame,
        then fail the log as if the process died mid-append — the next
        ``ChangeLog`` over this directory must repair the torn tail.
        """
        try:
            FAULTS.hit("wal.append")
        except TornWrite as fault:
            keep = fault.keep_bytes if fault.keep_bytes is not None else len(frame) // 2
            keep = max(0, min(keep, len(frame) - 1))
            handle.write(frame[:keep])
            handle.flush()
            self._drop_handle_locked()
            self._closed = True
            raise WalError(
                f"injected torn write: {keep} of {len(frame)} bytes reached "
                f"{tail.path.name} before the simulated crash"
            ) from fault

    def _tail_handle_locked(self, path: Path):
        """The persistent append handle for the active segment."""
        if self._handle is None or self._handle_path != path:
            self._drop_handle_locked()
            self._handle = path.open("ab")
            self._handle_path = path
        return self._handle

    def _drop_handle_locked(self) -> None:
        if self._handle is not None:
            try:
                if self._unsynced_appends:
                    # Best-effort: releasing the handle (rotation, close,
                    # truncation) flushes a pending batch so group commit
                    # never widens the loss window past the configured N.
                    os.fsync(self._handle.fileno())
            except OSError:  # pragma: no cover - sync-on-release is advisory
                pass
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close failures are benign
                pass
        self._handle = None
        self._handle_path = None
        self._unsynced_appends = 0

    def sync(self) -> None:
        """Flush any batched, not-yet-fsynced appends to stable storage."""
        with self._lock:
            if self._handle is not None and self._unsynced_appends:
                try:
                    self._fsync_locked(self._handle)
                except OSError as exc:
                    raise WalError(
                        f"failed to sync {self._handle_path}: {exc}"
                    ) from exc
                self._unsynced_appends = 0

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def iter_records(self, after_seq: int = 0) -> Iterator[WalRecord]:
        """Yield every complete record with ``seq > after_seq``, in order.

        Reads segment files fresh from disk (so an external reader sees
        appends made by another handle) and stops silently at a torn tail
        on the final segment — the crash-recovery contract.
        """
        with self._lock:
            segments = [
                segment for segment in self._segments if segment.last_seq > after_seq
            ]
        for segment in segments:
            try:
                data = segment.path.read_bytes()
            except OSError as exc:
                raise WalError(f"failed to read WAL segment {segment.path}: {exc}") from exc
            records, _ = decode_segment(data)
            for record in records:
                if record.seq > after_seq:
                    yield record

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def truncate_through(self, seq: int) -> int:
        """Delete whole segments whose records are all covered by ``seq``.

        The maintenance hook run after a full snapshot: records with
        ``seq' <= seq`` are folded into the snapshot and never replayed
        again.  Only complete segments are removed — the frame format has
        no in-place splice — so some covered records may survive in the
        first retained segment; replay skips them by sequence anyway.
        Returns the number of segments deleted.
        """
        with self._lock:
            self._drop_handle_locked()
            deleted = 0
            while len(self._segments) > 1 and self._segments[0].last_seq <= seq:
                segment = self._segments[0]
                try:
                    segment.path.unlink()
                except OSError as exc:
                    raise WalError(f"failed to delete {segment.path}: {exc}") from exc
                self._segments.pop(0)
                deleted += 1
            # The final segment may be fully covered too — drop it only when
            # completely consumed, keeping the seq counter monotonic by
            # rotating to a fresh segment that starts past it.
            if (
                self._segments
                and self._segments[0].last_seq <= seq
                and self._segments[0].records > 0
            ):
                segment = self._segments[0]
                next_seq = segment.last_seq + 1
                try:
                    segment.path.unlink()
                except OSError as exc:
                    raise WalError(f"failed to delete {segment.path}: {exc}") from exc
                self._segments.pop(0)
                deleted += 1
                fresh = self._segment_path(self.directory, next_seq)
                try:
                    fresh.touch()
                except OSError as exc:
                    raise WalError(f"failed to create {fresh}: {exc}") from exc
                self._segments.append(
                    _Segment(
                        path=fresh,
                        first_seq=next_seq,
                        last_seq=next_seq - 1,
                        size=0,
                        records=0,
                    )
                )
            return deleted

    def reset(self, next_seq_floor: int | None = None) -> None:
        """Delete every segment (a new epoch: the journal no longer applies).

        Called when the dictionary is wholesale replaced from a snapshot
        that did not come from this log's history — replaying the old
        records over the new state would corrupt it.  ``next_seq_floor``
        guarantees the next assigned sequence number exceeds it: a loaded
        snapshot recording ``wal_seq=K`` (from whatever journal produced
        it) must never shadow future records, which replay filters with
        ``seq > K``.
        """
        with self._lock:
            self._drop_handle_locked()
            floor = max(self.last_seq, next_seq_floor or 0)
            for segment in self._segments:
                try:
                    segment.path.unlink()
                except OSError as exc:
                    raise WalError(f"failed to delete {segment.path}: {exc}") from exc
            self._segments = []
            if floor:
                fresh = self._segment_path(self.directory, floor + 1)
                try:
                    fresh.touch()
                except OSError as exc:
                    raise WalError(f"failed to create {fresh}: {exc}") from exc
                self._segments = [
                    _Segment(
                        path=fresh,
                        first_seq=floor + 1,
                        last_seq=floor,
                        size=0,
                        records=0,
                    )
                ]

    def ensure_seq_at_least(self, seq: int) -> None:
        """Guarantee the next assigned sequence number exceeds ``seq``.

        No-op when the log is already past ``seq``.  Otherwise every
        existing record has ``seq' <= seq`` — covered by the snapshot that
        recorded ``seq``, hence skippable — so the log is reset with the
        floor raised.
        """
        with self._lock:
            if self.last_seq < seq:
                self.reset(next_seq_floor=seq)

    def close(self) -> None:
        """Refuse further appends (reads keep working)."""
        with self._lock:
            self._drop_handle_locked()
            self._closed = True

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> WalStats:
        """Aggregate counters over the current segment list."""
        with self._lock:
            records = sum(segment.records for segment in self._segments)
            populated = [s for s in self._segments if s.records]
            return WalStats(
                directory=str(self.directory),
                segments=len(self._segments),
                records=records,
                first_seq=populated[0].first_seq if populated else 0,
                last_seq=self.last_seq,
                total_bytes=sum(segment.size for segment in self._segments),
                torn_bytes=self._torn_bytes_repaired,
            )

    @classmethod
    def scan(cls, directory: str | Path) -> WalStats:
        """Read-only inspection of a WAL directory (the ``wal info`` path).

        Unlike opening a :class:`ChangeLog`, this never repairs the tail or
        creates the directory; the torn byte count reports what a repair
        *would* discard.
        """
        base = Path(directory)
        if not base.is_dir():
            raise WalError(f"no such WAL directory: {base}")
        segments = 0
        records = 0
        first_seq = 0
        last_seq = 0
        total_bytes = 0
        torn = 0
        for path in sorted(base.glob(WAL_SEGMENT_GLOB)):
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise WalError(f"failed to read WAL segment {path}: {exc}") from exc
            decoded, valid = decode_segment(data)
            segments += 1
            records += len(decoded)
            total_bytes += len(data)
            torn += len(data) - valid
            if decoded:
                if first_seq == 0:
                    first_seq = decoded[0].seq
                last_seq = decoded[-1].seq
        return WalStats(
            directory=str(base),
            segments=segments,
            records=records,
            first_seq=first_seq,
            last_seq=last_seq,
            total_bytes=total_bytes,
            torn_bytes=torn,
        )
