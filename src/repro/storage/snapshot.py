"""Versioned warm-start snapshots: token documents plus frozen trie structures.

The compiled-matcher stack (PR 2/3) makes Look Up / Normalization fast only
*after* its tries are built; a process restart used to pay full Soundex
bucketing and trie compilation from scratch.  A snapshot captures everything
a warm engine needs in one on-disk artifact:

* the dictionary's token **documents** (with their ``_id``\\ s,
  so the str(``_id``)-sorted bucket order every matcher relies on survives a
  reload byte for byte);
* the **trie families** — each distinct token sequence serialized once, with
  every trie variant it had materialized (see
  :meth:`repro.core.matcher.TrieFamily.to_payload`);
* the **bucket table** mapping each ``(phonetic_level, soundex_key)`` bucket
  to its family, which is how level-shared families are persisted without
  duplicating tries.

The on-disk layout is a two-line envelope — a small header object followed
by the body on its own line::

    {"checksum": "<crc32 of the body line>", "format_version": 1}
    {"buckets": [...], "documents": [...], "families": [...], ...}

Keeping the body on one raw line lets the checksum be computed over the
exact bytes on disk (one C-speed CRC pass) instead of re-serializing a
multi-megabyte object graph on every load.  The writer streams that line:
it encodes the body piece by piece in key order, feeding each piece through
the CRC into a temp file, and rewrites the fixed-width header at the end.
A save hands it its trie families as :class:`LazyPayloads`, so only one
family's tries and payload exist at a time, and the body never exists as
one string.  :func:`read_snapshot` refuses
anything with the wrong format version, a
checksum mismatch, or a structurally malformed body by raising
:class:`~repro.errors.SnapshotError`; callers that asked for a graceful load
(the dictionary, the CLI/DB auto-hydrate) catch it and
fall back to recompilation, so a corrupt or stale snapshot can never take a
service down — it only costs the warm start.

This module deliberately knows nothing about the dictionary or the matcher:
it stores opaque family payloads, keeping the storage layer below the core
layer.  The save/load orchestration lives in
:meth:`repro.core.dictionary.PerturbationDictionary.save_snapshot` /
``load_snapshot``.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..analysis.sanitizer import tracked_lock
from ..errors import PersistenceError, SnapshotError, TornWrite
from ..resilience.faults import FAULTS
from .persistence import write_bytes_atomic

#: Version of the on-disk snapshot envelope/body layout.  Bump whenever the
#: body structure or the trie node-row format changes; readers refuse other
#: versions and fall back to recompilation.
SNAPSHOT_FORMAT_VERSION = 1

#: Version of the sharded (v2) snapshot layout: a ``manifest.json`` envelope
#: plus ``shard-NN.bin`` flat offset-table files.  The v1 single-file format
#: stays readable forever; v2 readers refuse other v2 versions.
SNAPSHOT_V2_FORMAT_VERSION = 2

#: Conventional file name for a dictionary snapshot inside a ``--db`` /
#: ``config.snapshot_dir`` directory.
SNAPSHOT_FILE_NAME = "dictionary.snapshot.json"

#: Conventional directory name of the sharded v2 layout next to (instead of)
#: the v1 file, and the manifest inside it.
SNAPSHOT_DIR_SUFFIX = ".d"
SNAPSHOT_MANIFEST_NAME = "manifest.json"


#: Elements of a list-valued body field encoded per ``json.dumps`` call.
_ARRAY_CHUNK = 512


def _checksum_hex(crc: int) -> str:
    return format(crc & 0xFFFFFFFF, "08x")


def snapshot_checksum(body_text: str) -> str:
    """CRC-32 (hex) over the serialized body line exactly as stored."""
    return _checksum_hex(zlib.crc32(body_text.encode("utf-8")))


def _envelope_header(checksum: str, version: int) -> bytes:
    # The checksum is always 8 hex digits, so the header has a fixed width
    # and can be rewritten in place once the body's CRC is known.
    header = json.dumps({"checksum": checksum, "format_version": version}, sort_keys=True)
    return (header + "\n").encode("utf-8")


class LazyPayloads:
    """Body items built one at a time, as the envelope writer reaches them.

    ``build`` turns each of ``sources`` into one JSON-ready item.  Iterating
    builds every item afresh and keeps none of them; ``len`` needs no build.
    A save passes its trie families this way, so the family it is writing
    is the only one whose tries and payload exist; ``tuple(payloads)`` is
    the materialized form.
    """

    __slots__ = ("_build", "_sources")

    def __init__(self, build: Callable[[Any], Any], sources: Sequence[Any]) -> None:
        self._build = build
        self._sources = sources

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self) -> Iterator[Any]:
        return map(self._build, self._sources)


def _write_canonical(
    path: Path, body: Mapping[str, Any], write: Callable[[bytes], None]
) -> None:
    """Pass ``body``'s canonical JSON as UTF-8 to ``write``, piece by piece.

    The pieces concatenate to ``json.dumps(body, ensure_ascii=False,
    sort_keys=True, separators=(",", ":")).encode("utf-8")``.  Each piece
    comes from one C-encoder ``json.dumps`` call: a list or tuple field is
    encoded :data:`_ARRAY_CHUNK` elements at a time, a :class:`LazyPayloads`
    field one item at a time, any other field whole.
    """

    def encode(value: Any) -> bytes:
        try:
            return json.dumps(
                value, ensure_ascii=False, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:  # ValueError: a lone surrogate
            raise SnapshotError(
                f"snapshot for {path} is not JSON-serializable: {exc}"
            ) from exc

    write(b"{")
    for position, key in enumerate(sorted(body)):
        write((b"," if position else b"") + encode(key) + b":")
        value = body[key]
        if isinstance(value, (list, tuple)):
            write(b"[")
            for start in range(0, len(value), _ARRAY_CHUNK):
                chunk = encode(value[start : start + _ARRAY_CHUNK])[1:-1]
                write((b"," if start else b"") + chunk)
            write(b"]")
        elif isinstance(value, LazyPayloads):
            write(b"[")
            separator = b""
            for item in value:
                write(separator + encode(item))
                separator = b","
                # Unbind before the next item is built, so two items are
                # never alive at once.
                del item
            write(b"]")
        else:
            write(encode(value))
    write(b"}")


def write_envelope(
    path: str | Path,
    body: Mapping[str, Any],
    version: int = SNAPSHOT_FORMAT_VERSION,
) -> Path:
    """Write ``body`` atomically inside the checksummed two-line envelope.

    The shared on-disk frame of every snapshot-family artifact (full
    snapshots, the WAL subsystem's delta snapshots, and the v2 manifest —
    which passes its own ``version``): one header line carrying the checksum
    and format version, one raw body line the checksum covers byte for byte.

    The body line is canonical JSON (sorted keys, no spaces), streamed: it
    goes through ``zlib.crc32`` into ``<path>.tmp`` piece by piece (see
    :func:`_write_canonical`), the header is rewritten in place once the
    CRC is known, and the temp file is renamed over ``path``.  Peak memory
    is ``body``'s own objects plus one piece, never the whole body string:
    with a :class:`LazyPayloads` field, not even the whole body.  A field
    that fails to encode, or a failed write, removes the temp file and
    leaves ``path`` as it was; both raise
    :class:`~repro.errors.SnapshotError`.

    The ``snapshot.write`` fault point fires once, after the body is
    written: an injected ``OSError`` fails the save the same way, and a
    :class:`~repro.errors.TornWrite` renames the first ``keep_bytes`` bytes
    (half the file by default) over ``path`` and raises.
    """
    target = Path(path)
    scratch = target.with_name(target.name + ".tmp")
    crc = 0
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(scratch, "wb") as handle:
            handle.write(_envelope_header(_checksum_hex(0), version))

            def write(data: bytes) -> None:
                nonlocal crc
                crc = zlib.crc32(data, crc)
                handle.write(data)

            _write_canonical(target, body, write)
            handle.write(b"\n")
            size = handle.tell()
            handle.seek(0)
            handle.write(_envelope_header(_checksum_hex(crc), version))
        if FAULTS.armed:
            try:
                FAULTS.hit("snapshot.write")
            except TornWrite as fault:
                # Cooperative torn write: land a genuinely truncated envelope
                # for checksum validation to catch, bypassing atomicity.
                keep = fault.keep_bytes if fault.keep_bytes is not None else size // 2
                keep = max(0, min(keep, size - 1))
                os.truncate(scratch, keep)
                os.replace(scratch, target)
                raise SnapshotError(
                    f"injected torn write: {keep} of {size} bytes reached "
                    f"{path} before the simulated crash"
                ) from fault
        os.replace(scratch, target)
    except BaseException as exc:
        try:
            scratch.unlink()
        except OSError:  # lint: allow=swallowed-exception (best-effort cleanup)
            pass
        if isinstance(exc, OSError):
            raise SnapshotError(f"failed to write {target}: {exc}") from exc
        raise
    return target


def read_envelope(
    path: str | Path, version: int = SNAPSHOT_FORMAT_VERSION
) -> dict[str, Any]:
    """Read and validate a two-line envelope; returns the parsed body.

    The file is read once, as bytes: the checksum runs over the body bytes
    in place, and only the body is decoded (strict UTF-8) for parsing.
    Raises :class:`~repro.errors.SnapshotError` when the file is missing,
    unreadable, not UTF-8, unparseable, carries a format version other than
    ``version``, or fails its checksum.
    """
    source = Path(path)
    if not source.exists():
        raise SnapshotError(f"no such file: {source}")
    try:
        data = source.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"failed to read {source}: {exc}") from exc
    newline = data.find(b"\n")
    if newline < 0:
        raise SnapshotError(f"{source}: snapshot must be a two-line envelope")
    end = len(data)
    while end > newline + 1 and data[end - 1] in b"\r\n":
        end -= 1
    body_bytes = memoryview(data)[newline + 1 : end]
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{source}: invalid snapshot header: {exc}") from exc
    if not isinstance(header, Mapping):
        raise SnapshotError(f"{source}: snapshot header must be a JSON object")
    recorded_version = header.get("format_version")
    if recorded_version != version:
        raise SnapshotError(
            f"{source}: snapshot format version {recorded_version!r} is not "
            f"supported (expected {version})"
        )
    recorded = header.get("checksum")
    actual = _checksum_hex(zlib.crc32(body_bytes))
    if recorded != actual:
        raise SnapshotError(
            f"{source}: checksum mismatch (recorded {recorded!r}, computed {actual!r})"
        )
    try:
        body = json.loads(str(body_bytes, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{source}: invalid snapshot body: {exc}") from exc
    if not isinstance(body, dict):
        raise SnapshotError(f"{source}: snapshot body must be a JSON object")
    return body


@dataclass(frozen=True)
class Snapshot:
    """In-memory form of one warm-start snapshot.

    ``buckets`` rows are ``[phonetic_level, soundex_key, family_index]``
    triples (a list, not a mapping, so soundex keys never need escaping);
    ``family_index`` addresses :attr:`families`.
    """

    dictionary_version: int
    fingerprint: str
    config: Mapping[str, Any] = field(default_factory=dict)
    documents: tuple[Mapping[str, Any], ...] = ()
    #: Family payloads: a tuple, or — in a snapshot a save only writes —
    #: :class:`LazyPayloads` the envelope writer builds one at a time.
    families: "tuple[Mapping[str, Any], ...] | LazyPayloads" = ()
    buckets: tuple[tuple[int, str, int], ...] = ()
    #: Sequence number of the last change-log record this snapshot covers.
    #: Crash recovery replays only WAL records *after* this position; 0
    #: (the default, and what pre-WAL snapshots read back as) means
    #: "replay everything".
    wal_seq: int = 0

    @property
    def levels(self) -> tuple[int, ...]:
        """Phonetic levels with at least one bucket in the snapshot."""
        return tuple(sorted({level for level, _, _ in self.buckets}))

    def body(self) -> dict[str, Any]:
        """The checksummed payload written as the envelope's body line.

        Fields are passed through, not copied (JSON writes a tuple as an
        array), so lazy families stay lazy until the writer reaches them.
        """
        return {
            "dictionary_version": self.dictionary_version,
            "fingerprint": self.fingerprint,
            "config": dict(self.config),
            "documents": self.documents,
            "families": self.families,
            "buckets": self.buckets,
            "wal_seq": self.wal_seq,
        }

    @classmethod
    def from_body(cls, body: Mapping[str, Any]) -> "Snapshot":
        """Rebuild a snapshot from a parsed body; raises on malformed shape.

        Documents and families are kept by reference (the parsed JSON is
        owned by the loader, and a 10k-entry snapshot would pay dearly for
        ~16k defensive dict copies); per-row structure of families is
        validated lazily by the trie hydration.
        """
        try:
            buckets = tuple(
                (int(level), str(key), int(family_index))
                for level, key, family_index in body["buckets"]
            )
            documents = tuple(body["documents"])
            families = tuple(body["families"])
            snapshot = cls(
                dictionary_version=int(body["dictionary_version"]),
                fingerprint=str(body["fingerprint"]),
                config=dict(body.get("config", {})),
                documents=documents,
                families=families,
                buckets=buckets,
                wal_seq=int(body.get("wal_seq", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot body: {exc}") from exc
        # Parsed JSON objects are always plain dicts; concrete checks keep
        # this validation pass off the warm-start critical path.
        if not all(type(document) is dict for document in documents):
            raise SnapshotError("snapshot documents must be objects")
        if not all(type(family) is dict for family in families):
            raise SnapshotError("snapshot families must be objects")
        for level, key, family_index in snapshot.buckets:
            if not 0 <= family_index < len(families):
                raise SnapshotError(
                    f"bucket ({level}, {key!r}) references family "
                    f"{family_index} of {len(families)}"
                )
        return snapshot


def write_snapshot(path: str | Path, snapshot: Snapshot) -> Path:
    """Persist ``snapshot`` atomically; returns the path written.

    Streams through :func:`write_envelope`, so a snapshot whose families
    are :class:`LazyPayloads` is written one family at a time.
    """
    return write_envelope(path, snapshot.body())


def read_snapshot(path: str | Path) -> Snapshot:
    """Load and validate a snapshot written by :func:`write_snapshot`.

    Raises :class:`~repro.errors.SnapshotError` when the file is missing,
    unparseable, carries a different format version, fails its checksum, or
    has a malformed body — every one of which graceful loaders treat as
    "no usable snapshot, recompile".  A delta-snapshot file (``kind`` marker
    in the body, see :mod:`repro.wal.delta`) is refused too: a delta is not
    loadable on its own, only through its chain.
    """
    body = read_envelope(path)
    kind = body.get("kind")
    if kind is not None and kind != "snapshot":
        raise SnapshotError(
            f"{path}: not a full snapshot (kind={kind!r}); deltas load only "
            f"through their chain"
        )
    return Snapshot.from_body(body)


def resolve_snapshot(
    source: "str | Path | Snapshot", strict: bool = True, mapped: bool = False
) -> Snapshot | None:
    """Normalize a path-or-snapshot argument to a :class:`Snapshot`.

    Shared by every ``from_snapshot=...`` entry point.  With ``strict``
    false, a :class:`SnapshotError` is swallowed and ``None`` returned so
    the caller can fall back to recompilation.

    A path resolves to the **v2 sharded layout** when its sibling
    ``*.d/manifest.json`` directory (or the directory itself, if ``source``
    points at one) is readable, falling back to the v1 single file — so
    callers keep passing the conventional ``dictionary.snapshot.json`` path
    regardless of which format the last save wrote.  With ``mapped`` true
    the v2 layout is opened through ``mmap`` with lazy trie materialization
    (see :func:`open_sharded_snapshot`); v1 files ignore the flag.
    """
    if isinstance(source, Snapshot):
        return source
    path = Path(source)
    try:
        if path.is_dir() and (path / SNAPSHOT_MANIFEST_NAME).is_file():
            shard_dir = path
        else:
            shard_dir = sharded_snapshot_dir(path)
        if (shard_dir / SNAPSHOT_MANIFEST_NAME).is_file():
            try:
                if mapped:
                    return open_sharded_snapshot(shard_dir).snapshot
                return read_sharded_snapshot(shard_dir)
            except SnapshotError:
                # A corrupt v2 layout degrades to the v1 file when one
                # exists beside it; otherwise the v2 error is the answer.
                if not path.is_file():
                    raise
        return read_snapshot(path)
    except SnapshotError:
        if strict:
            raise
        return None


# --------------------------------------------------------------------- #
# v2: sharded, memory-mappable layout
# --------------------------------------------------------------------- #
#
# A v2 snapshot is a directory (``dictionary.snapshot.d/`` by convention)
# holding one ``manifest.json`` — the familiar checksummed two-line envelope
# with ``format_version`` 2, carrying the snapshot's identity (fingerprint,
# version, config, wal_seq) and the shard table — plus N ``shard-NN.bin``
# files in a flat offset-table format:
#
#     magic "CTSNAP2\0" | u32 version | u32 record_count
#     u64 offsets[record_count]        (absolute file positions)
#     u64 lengths[record_count]
#     u32 crc32s[record_count]
#     records...                       (raw UTF-8 JSON blobs)
#
# Record 0 is the shard header: its documents (assigned by
# ``shard_of(str(_id))``), its bucket rows (assigned by ``shard_of(key)``,
# pointing at *global* family ids), the global ids of the family records
# that follow, and their token sequences.  Records 1..F are the family trie
# payloads — one record per family, which is the unit of lazy
# materialization: :func:`open_sharded_snapshot` maps the file and hands
# each family a loader that parses *only its own record* on first use, so a
# warm start touches the pages of the families it actually queries.
# Families referenced from buckets in several shards are duplicated into
# each (reads stay shard-local); the readers deduplicate by global id.


def shard_of(key: str, num_shards: int) -> int:
    """Stable shard assignment for a key (``crc32 % num_shards``).

    CRC-32 rather than ``hash()`` so the assignment survives
    ``PYTHONHASHSEED`` randomization across processes and restarts: a v2
    snapshot written by one process places every key in the shard file
    another process will look for it in.
    """
    return zlib.crc32(key.encode("utf-8")) % num_shards


def sharded_snapshot_dir(path: str | Path) -> Path:
    """The v2 layout directory conventionally paired with a v1 path.

    ``dictionary.snapshot.json`` pairs with ``dictionary.snapshot.d/`` in
    the same directory; non-``.json`` names just gain the suffix.
    """
    base = Path(path)
    name = base.name
    if name.endswith(".json"):
        name = name[: -len(".json")]
    return base.with_name(name + SNAPSHOT_DIR_SUFFIX)


_SHARD_MAGIC = b"CTSNAP2\x00"
_SHARD_HEADER = struct.Struct("<8sII")


def _shard_file_name(index: int) -> str:
    return f"shard-{index:02d}.bin"


def _encode_record(payload: Mapping[str, Any]) -> bytes:
    try:
        return json.dumps(
            payload, ensure_ascii=False, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"shard record is not JSON-serializable: {exc}") from exc


def _pack_shard(records: "list[bytes]") -> bytes:
    count = len(records)
    cursor = _SHARD_HEADER.size + count * 20
    offsets: list[int] = []
    lengths: list[int] = []
    crcs: list[int] = []
    for blob in records:
        offsets.append(cursor)
        lengths.append(len(blob))
        crcs.append(zlib.crc32(blob) & 0xFFFFFFFF)
        cursor += len(blob)
    parts = [_SHARD_HEADER.pack(_SHARD_MAGIC, SNAPSHOT_V2_FORMAT_VERSION, count)]
    if count:
        parts.append(struct.pack(f"<{count}Q", *offsets))
        parts.append(struct.pack(f"<{count}Q", *lengths))
        parts.append(struct.pack(f"<{count}I", *crcs))
    parts.extend(records)
    return b"".join(parts)


class _ShardReader:
    """Parsed view over one shard file's buffer (``bytes`` or ``mmap``).

    Structural validation (magic, version, table bounds) happens here, at
    open; per-record CRC validation happens in :meth:`record_bytes`, which
    is what keeps a lazily mapped open O(header pages) while still catching
    corruption before any record is trusted.
    """

    __slots__ = (
        "source",
        "data",
        "record_count",
        "_offsets",
        "_lengths",
        "_crcs",
        "__weakref__",
    )

    def __init__(self, source: str, data) -> None:
        self.source = source
        self.data = data
        size = len(data)
        if size < _SHARD_HEADER.size:
            raise SnapshotError(f"{source}: shard file shorter than its header")
        magic, version, count = _SHARD_HEADER.unpack_from(data, 0)
        if magic != _SHARD_MAGIC:
            raise SnapshotError(f"{source}: not a snapshot shard file")
        if version != SNAPSHOT_V2_FORMAT_VERSION:
            raise SnapshotError(
                f"{source}: shard format version {version} is not supported "
                f"(expected {SNAPSHOT_V2_FORMAT_VERSION})"
            )
        table = _SHARD_HEADER.size
        if table + count * 20 > size:
            raise SnapshotError(f"{source}: shard record table exceeds the file")
        self.record_count = count
        self._offsets = struct.unpack_from(f"<{count}Q", data, table)
        self._lengths = struct.unpack_from(f"<{count}Q", data, table + 8 * count)
        self._crcs = struct.unpack_from(f"<{count}I", data, table + 16 * count)
        for offset, length in zip(self._offsets, self._lengths):
            if offset + length > size:
                raise SnapshotError(f"{source}: shard record exceeds the file")

    def record_bytes(self, index: int) -> bytes:
        offset = self._offsets[index]
        blob = bytes(self.data[offset : offset + self._lengths[index]])
        if zlib.crc32(blob) & 0xFFFFFFFF != self._crcs[index]:
            raise SnapshotError(f"{self.source}: record {index} failed its checksum")
        return blob

    def record(self, index: int) -> dict[str, Any]:
        try:
            payload = json.loads(self.record_bytes(index).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"{self.source}: record {index} is invalid: {exc}") from exc
        if not isinstance(payload, dict):
            raise SnapshotError(f"{self.source}: record {index} must be a JSON object")
        return payload


#: Process-wide cache of mapped shard readers, keyed by file identity
#: (realpath, size, mtime_ns).  Every follower hydrating the same snapshot
#: version receives the *same* reader — hence the same ``mmap`` object and
#: the same physical pages; the cache holds weak references so unmapping
#: happens when the last hydrated family lets go.
_MAPPED_SHARDS: "weakref.WeakValueDictionary[tuple[str, int, int], _ShardReader]" = (
    weakref.WeakValueDictionary()
)
_MAPPED_SHARDS_LOCK = tracked_lock("snapshot.mmap")


def _mapped_shard(path: Path, expected_bytes: int) -> _ShardReader:
    try:
        stat = path.stat()
    except OSError as exc:
        raise SnapshotError(f"no such shard file: {path}") from exc
    if expected_bytes >= 0 and stat.st_size != expected_bytes:
        raise SnapshotError(
            f"{path}: shard size {stat.st_size} does not match the manifest "
            f"({expected_bytes})"
        )
    cache_key = (os.path.realpath(path), stat.st_size, stat.st_mtime_ns)
    with _MAPPED_SHARDS_LOCK:
        reader = _MAPPED_SHARDS.get(cache_key)
        if reader is None:
            try:
                with open(path, "rb") as handle:
                    data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:
                raise SnapshotError(f"failed to map {path}: {exc}") from exc
            reader = _ShardReader(str(path), data)
            _MAPPED_SHARDS[cache_key] = reader
    return reader


class LazyFamilyPayload(Mapping):
    """A family payload whose trie rows stay in the mapped shard file.

    Presents the :meth:`TrieFamily.to_payload` mapping shape (``tokens``
    eagerly, ``tries``/``deletes`` parsed from the shard record on demand)
    and exposes the ``lazy_tries`` loader attribute
    :meth:`repro.core.matcher.TrieFamily.from_payload` recognizes, so
    hydrating a mapped snapshot allocates tokens and nothing else.
    """

    __slots__ = ("_tokens", "_loader", "_record")

    def __init__(
        self, tokens, loader: "Callable[[], Mapping[str, Any]]"
    ) -> None:
        self._tokens = [str(token) for token in tokens]
        self._loader = loader
        self._record: "Mapping[str, Any] | None" = None

    @property
    def lazy_tries(self) -> "Callable[[], Mapping[str, Any]]":
        """The record loader (drained by the family on first trie use)."""
        return self._load

    def _load(self) -> Mapping[str, Any]:
        if self._record is None:
            record = self._loader()
            self._record = record if isinstance(record, Mapping) else {}
        return self._record

    def _keys(self) -> "list[str]":
        keys = ["tokens", "tries"]
        if "deletes" in self._load():
            keys.append("deletes")
        return keys

    def __getitem__(self, key: str):
        if key == "tokens":
            return self._tokens
        record = self._load()
        if key == "tries":
            return record.get("tries", {})
        if key == "deletes" and "deletes" in record:
            return record["deletes"]
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys())

    def __len__(self) -> int:
        return len(self._keys())


@dataclass(frozen=True)
class MappedSnapshot:
    """A v2 snapshot opened read-only through ``mmap``.

    ``snapshot`` carries :class:`LazyFamilyPayload` families whose loaders
    keep the shard readers (and their maps) alive; ``shards`` exposes the
    readers for introspection — two processes-worth of followers in one
    process hydrate the *same* reader objects (see ``_MAPPED_SHARDS``),
    which is the page-sharing property the replication tests assert.
    """

    snapshot: Snapshot
    directory: str
    shards: tuple[_ShardReader, ...] = ()

    @property
    def mapped_bytes(self) -> int:
        return sum(len(reader.data) for reader in self.shards)


def write_sharded_snapshot(
    directory: str | Path, snapshot: Snapshot, num_shards: int
) -> Path:
    """Persist ``snapshot`` in the v2 sharded layout under ``directory``.

    Shard files are written first, the manifest last (atomically) — the
    manifest is the commit point, so a crash mid-save leaves either the old
    layout or the new one readable, never a torn hybrid.  Stale shard files
    from a previous (larger) shard count are removed after the manifest
    lands.  Returns the manifest path.
    """
    if num_shards < 1:
        raise SnapshotError(f"a sharded snapshot needs >= 1 shard, got {num_shards}")
    target = Path(directory)
    # Materialize lazy payloads (a re-save of a mapped snapshot) into plain
    # dicts; Mapping views serialize through dict().
    families = [dict(family) for family in snapshot.families]
    shard_documents: "list[list[Mapping[str, Any]]]" = [[] for _ in range(num_shards)]
    for document in snapshot.documents:
        shard_documents[shard_of(str(document.get("_id")), num_shards)].append(
            document
        )
    shard_buckets: "list[list[list]]" = [[] for _ in range(num_shards)]
    referenced: "list[set[int]]" = [set() for _ in range(num_shards)]
    for position, (level, key, family_index) in enumerate(snapshot.buckets):
        shard = shard_of(key, num_shards)
        # The leading position preserves the builder's bucket order across
        # the shard split, so a round trip reproduces the body byte for byte.
        shard_buckets[shard].append([position, level, key, family_index])
        referenced[shard].add(family_index)
    # A family no bucket references (possible after aggressive pruning)
    # still round-trips: park it on a deterministic shard.
    all_referenced = set().union(*referenced)
    for family_index in range(len(families)):
        if family_index not in all_referenced:
            referenced[family_index % num_shards].add(family_index)
    entries: "list[dict[str, Any]]" = []
    for index in range(num_shards):
        family_ids = sorted(referenced[index])
        header = {
            "documents": shard_documents[index],
            "buckets": shard_buckets[index],
            "families": family_ids,
            "tokens": [families[gid].get("tokens", []) for gid in family_ids],
        }
        records = [_encode_record(header)]
        for gid in family_ids:
            family = families[gid]
            record: "dict[str, Any]" = {"tries": family.get("tries", {})}
            if family.get("deletes"):
                record["deletes"] = family["deletes"]
            records.append(_encode_record(record))
        blob = _pack_shard(records)
        name = _shard_file_name(index)
        try:
            write_bytes_atomic(target / name, blob)
        except PersistenceError as exc:
            raise SnapshotError(str(exc)) from exc
        entries.append({"file": name, "bytes": len(blob), "records": len(records)})
    manifest = {
        "kind": "snapshot",
        "layout": "sharded",
        "shard_count": num_shards,
        "dictionary_version": snapshot.dictionary_version,
        "fingerprint": snapshot.fingerprint,
        "config": dict(snapshot.config),
        "wal_seq": snapshot.wal_seq,
        "families": len(families),
        "shards": entries,
    }
    manifest_path = write_envelope(
        target / SNAPSHOT_MANIFEST_NAME, manifest, version=SNAPSHOT_V2_FORMAT_VERSION
    )
    current = {entry["file"] for entry in entries}
    for stale in target.glob("shard-*.bin"):
        if stale.name not in current:
            try:
                stale.unlink()
            except OSError:  # lint: allow=swallowed-exception (best-effort GC)
                pass
    return manifest_path


def sharded_manifest_info(directory: str | Path) -> dict[str, Any]:
    """The validated manifest body of a v2 layout (identity + shard table).

    For callers that need metadata without loading any shard — compaction
    (to keep the shard width), the CLI ``snapshot --info`` view, and tests.
    """
    return _read_manifest(Path(directory))


def _read_manifest(directory: Path) -> dict[str, Any]:
    body = read_envelope(
        directory / SNAPSHOT_MANIFEST_NAME, version=SNAPSHOT_V2_FORMAT_VERSION
    )
    if body.get("kind") != "snapshot":
        raise SnapshotError(
            f"{directory}: not a sharded snapshot (kind={body.get('kind')!r})"
        )
    shards = body.get("shards")
    if not isinstance(shards, list) or not shards:
        raise SnapshotError(f"{directory}: manifest carries no shard table")
    return body


def _assemble_sharded(
    body: Mapping[str, Any], readers: "list[_ShardReader]", lazy: bool
) -> Snapshot:
    documents: "dict[str, Mapping[str, Any]]" = {}
    bucket_rows: "dict[int, tuple[int, str, int]]" = {}
    families_by_id: "dict[int, Mapping[str, Any]]" = {}
    try:
        for reader in readers:
            header = reader.record(0)
            family_ids = header["families"]
            tokens_rows = header["tokens"]
            if len(family_ids) != len(tokens_rows):
                raise SnapshotError(
                    f"{reader.source}: family id / token row count mismatch"
                )
            if reader.record_count != len(family_ids) + 1:
                raise SnapshotError(
                    f"{reader.source}: {reader.record_count} records for "
                    f"{len(family_ids)} families"
                )
            for document in header["documents"]:
                if type(document) is not dict:
                    raise SnapshotError(f"{reader.source}: documents must be objects")
                documents[str(document.get("_id"))] = document
            for position, level, key, family_index in header["buckets"]:
                bucket_rows[int(position)] = (int(level), str(key), int(family_index))
            for position, raw_id in enumerate(family_ids):
                gid = int(raw_id)
                if gid in families_by_id:
                    continue
                tokens = tokens_rows[position]
                if not isinstance(tokens, list):
                    raise SnapshotError(f"{reader.source}: token rows must be lists")
                if lazy:
                    families_by_id[gid] = LazyFamilyPayload(
                        tokens,
                        lambda reader=reader, index=position + 1: reader.record(index),
                    )
                else:
                    record = reader.record(position + 1)
                    family: "dict[str, Any]" = {
                        "tokens": tokens,
                        "tries": record.get("tries", {}),
                    }
                    if record.get("deletes"):
                        family["deletes"] = record["deletes"]
                    families_by_id[gid] = family
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed shard record: {exc}") from exc
    declared = body.get("families")
    if isinstance(declared, int) and declared != len(families_by_id):
        raise SnapshotError(
            f"manifest declares {declared} families, shards carry "
            f"{len(families_by_id)}"
        )
    ordered_ids = sorted(families_by_id)
    remap = {gid: position for position, gid in enumerate(ordered_ids)}
    for level, key, gid in bucket_rows.values():
        if gid not in remap:
            raise SnapshotError(
                f"bucket ({level}, {key!r}) references missing family {gid}"
            )
    try:
        return Snapshot(
            dictionary_version=int(body["dictionary_version"]),
            fingerprint=str(body["fingerprint"]),
            config=dict(body.get("config", {})),
            documents=tuple(documents[doc_id] for doc_id in sorted(documents)),
            families=tuple(families_by_id[gid] for gid in ordered_ids),
            buckets=tuple(
                (level, key, remap[gid])
                for _, (level, key, gid) in sorted(bucket_rows.items())
            ),
            wal_seq=int(body.get("wal_seq", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed sharded manifest: {exc}") from exc


def read_sharded_snapshot(directory: str | Path) -> Snapshot:
    """Eagerly load a v2 sharded snapshot (every record CRC-validated).

    The strict-validation counterpart of :func:`open_sharded_snapshot`,
    used wherever the full object graph is needed anyway — delta-chain
    merging, compaction, CLI inspection — and as the fallback when mapping
    is unavailable.
    """
    target = Path(directory)
    body = _read_manifest(target)
    readers: "list[_ShardReader]" = []
    for entry in body["shards"]:
        path = target / str(entry.get("file", ""))
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise SnapshotError(f"failed to read shard {path}: {exc}") from exc
        expected = entry.get("bytes")
        if isinstance(expected, int) and expected != len(data):
            raise SnapshotError(
                f"{path}: shard size {len(data)} does not match the manifest "
                f"({expected})"
            )
        reader = _ShardReader(str(path), data)
        for index in range(reader.record_count):
            reader.record_bytes(index)
        readers.append(reader)
    return _assemble_sharded(body, readers, lazy=False)


def open_sharded_snapshot(directory: str | Path) -> MappedSnapshot:
    """Open a v2 sharded snapshot read-only through ``mmap``.

    Only the manifest and each shard's header record are parsed now; every
    family's trie rows stay on disk until the family is first queried, so
    hydration cost is O(families) allocations plus the page faults of the
    records actually touched.  Readers come from a process-wide cache keyed
    by file identity — concurrent followers of one snapshot share maps
    (and physical pages) instead of private heap copies.
    """
    target = Path(directory)
    body = _read_manifest(target)
    readers: "list[_ShardReader]" = []
    for entry in body["shards"]:
        expected = entry.get("bytes")
        readers.append(
            _mapped_shard(
                target / str(entry.get("file", "")),
                expected if isinstance(expected, int) else -1,
            )
        )
    snapshot = _assemble_sharded(body, readers, lazy=True)
    return MappedSnapshot(
        snapshot=snapshot, directory=str(target), shards=tuple(readers)
    )
