"""Incremental delta snapshots: persist only what changed since the base.

A full warm-start snapshot (:mod:`repro.storage.snapshot`) re-serializes
every document and every trie family on every save — pure waste when a crawl
round touched forty buckets of forty thousand.  A **delta snapshot** captures
exactly the dirty slice:

* the **documents** (with their ``_id``\\ s) of every token written since the
  last save — replaced documents overwrite their base version by ``_id``,
  new documents append, so the ``str(_id)`` bucket order of a live
  dictionary survives resolution byte for byte;
* the re-serialized **trie families** of the dirty ``(level, key)`` buckets
  only, plus the bucket-table rows pointing at them;
* the **parent fingerprint** — the content fingerprint the dictionary had
  when the previous link (base or delta) was written.  Resolution refuses a
  chain whose fingerprints do not connect, which is how a delta written
  against a different base, or a base swapped underneath its deltas, is
  detected and degraded to full recompilation instead of silently merging
  wrong tries.

On disk a delta uses the same checksummed two-line envelope as a full
snapshot (:func:`repro.storage.snapshot.write_envelope`, which streams it)
with a ``kind`` marker, named ``dictionary.delta-NNNN.json`` next to the
base file.
:func:`resolve_snapshot_chain` folds base + deltas into one in-memory
:class:`~repro.storage.snapshot.Snapshot`; :func:`compact_chain` writes that
merged snapshot back as the new base and removes the delta files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..errors import SnapshotError
from ..storage.snapshot import (
    SNAPSHOT_FILE_NAME,
    SNAPSHOT_MANIFEST_NAME,
    LazyPayloads,
    MappedSnapshot,
    Snapshot,
    open_sharded_snapshot,
    read_envelope,
    read_snapshot,
    read_sharded_snapshot,
    sharded_manifest_info,
    sharded_snapshot_dir,
    write_envelope,
    write_sharded_snapshot,
    write_snapshot,
)

#: Delta file name pattern next to ``dictionary.snapshot.json``.
DELTA_FILE_GLOB = "dictionary.delta-*.json"

_DELTA_FILE_RE = re.compile(r"^dictionary\.delta-(\d{4,})\.json$")


def delta_path(directory: str | Path, index: int) -> Path:
    """Path of the ``index``-th delta file inside a snapshot directory."""
    if index < 1:
        raise SnapshotError(f"delta index must be >= 1, got {index}")
    return Path(directory) / f"dictionary.delta-{index:04d}.json"


def list_delta_paths(directory: str | Path) -> list[Path]:
    """Delta files of a snapshot directory in chain order.

    Raises :class:`~repro.errors.SnapshotError` when the numbering has a
    gap — a missing middle link makes every later delta unusable.
    """
    base = Path(directory)
    found: list[tuple[int, Path]] = []
    if base.is_dir():
        for path in base.glob(DELTA_FILE_GLOB):
            match = _DELTA_FILE_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
    found.sort()
    for expected, (index, path) in enumerate(found, start=1):
        if index != expected:
            raise SnapshotError(
                f"delta chain in {base} has a gap: expected delta {expected:04d}, "
                f"found {path.name}"
            )
    return [path for _, path in found]


@dataclass(frozen=True)
class DeltaSnapshot:
    """In-memory form of one delta link.

    Shapes mirror :class:`~repro.storage.snapshot.Snapshot`: ``documents``
    are full documents (upserted by ``_id`` at resolution), ``families`` are
    opaque trie payloads (a tuple, or the
    :class:`~repro.storage.snapshot.LazyPayloads` of a delta being saved),
    ``buckets`` rows are ``(level, key, family_index)`` with
    ``family_index`` addressing *this delta's* family list.
    """

    parent_fingerprint: str
    fingerprint: str
    dictionary_version: int
    wal_seq: int = 0
    documents: tuple[Mapping[str, Any], ...] = ()
    families: "tuple[Mapping[str, Any], ...] | LazyPayloads" = ()
    buckets: tuple[tuple[int, str, int], ...] = ()
    config: Mapping[str, Any] = field(default_factory=dict)

    def body(self) -> dict[str, Any]:
        """The checksummed envelope body (fields passed through, not copied)."""
        return {
            "kind": "delta",
            "parent_fingerprint": self.parent_fingerprint,
            "fingerprint": self.fingerprint,
            "dictionary_version": self.dictionary_version,
            "wal_seq": self.wal_seq,
            "documents": self.documents,
            "families": self.families,
            "buckets": self.buckets,
            "config": dict(self.config),
        }

    @classmethod
    def from_body(cls, body: Mapping[str, Any], source: str = "<delta>") -> "DeltaSnapshot":
        """Rebuild a delta from a parsed envelope body; raises on bad shape."""
        if body.get("kind") != "delta":
            raise SnapshotError(f"{source}: not a delta snapshot (kind={body.get('kind')!r})")
        try:
            buckets = tuple(
                (int(level), str(key), int(family_index))
                for level, key, family_index in body["buckets"]
            )
            delta = cls(
                parent_fingerprint=str(body["parent_fingerprint"]),
                fingerprint=str(body["fingerprint"]),
                dictionary_version=int(body["dictionary_version"]),
                wal_seq=int(body.get("wal_seq", 0)),
                documents=tuple(body["documents"]),
                families=tuple(body["families"]),
                buckets=buckets,
                config=dict(body.get("config", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"{source}: malformed delta body: {exc}") from exc
        if not all(type(document) is dict for document in delta.documents):
            raise SnapshotError(f"{source}: delta documents must be objects")
        if not all(type(family) is dict for family in delta.families):
            raise SnapshotError(f"{source}: delta families must be objects")
        for level, key, family_index in delta.buckets:
            if not 0 <= family_index < len(delta.families):
                raise SnapshotError(
                    f"{source}: bucket ({level}, {key!r}) references family "
                    f"{family_index} of {len(delta.families)}"
                )
        return delta


def write_delta(path: str | Path, delta: DeltaSnapshot) -> Path:
    """Persist one delta atomically inside the standard envelope.

    Streams like :func:`~repro.storage.snapshot.write_snapshot`: lazy
    families are built and written one at a time.
    """
    return write_envelope(path, delta.body())


def read_delta(path: str | Path) -> DeltaSnapshot:
    """Load and validate one delta file."""
    return DeltaSnapshot.from_body(read_envelope(path), source=str(path))


@dataclass(frozen=True)
class SnapshotChain:
    """A resolved base + delta chain.

    ``snapshot`` is the merged view (what a full snapshot written at the
    chain tip would contain); ``deltas_applied`` counts the links folded in.
    """

    snapshot: Snapshot
    base_path: str
    deltas_applied: int
    delta_paths: tuple[str, ...] = ()
    #: Set when the base was opened through ``mmap`` (v2 layout, no deltas,
    #: ``prefer_mapped``); holding the chain keeps the maps alive.
    mapped: MappedSnapshot | None = None


def _merge_chain(base: Snapshot, deltas: list[tuple[str, DeltaSnapshot]]) -> Snapshot:
    """Fold deltas into the base; validates fingerprint continuity."""
    tip_fingerprint = base.fingerprint
    documents: dict[str, Mapping[str, Any]] = {
        str(document.get("_id")): document for document in base.documents
    }
    # Family payloads accumulate; bucket rows point into the accumulated
    # list.  Orphaned families (their last referencing bucket re-pointed by
    # a later delta) are pruned at the end.
    families: list[Mapping[str, Any]] = list(base.families)
    bucket_rows: dict[tuple[int, str], int] = {
        (level, key): family_index for level, key, family_index in base.buckets
    }
    version = base.dictionary_version
    wal_seq = base.wal_seq
    config = dict(base.config)
    for source, delta in deltas:
        if delta.parent_fingerprint != tip_fingerprint:
            raise SnapshotError(
                f"{source}: delta chain fingerprint mismatch (parent "
                f"{delta.parent_fingerprint!r} does not continue {tip_fingerprint!r})"
            )
        offset = len(families)
        families.extend(delta.families)
        for document in delta.documents:
            documents[str(document.get("_id"))] = document
        for level, key, family_index in delta.buckets:
            bucket_rows[(level, key)] = offset + family_index
        tip_fingerprint = delta.fingerprint
        version = delta.dictionary_version
        wal_seq = delta.wal_seq
        if delta.config:
            config.update(delta.config)
    # Prune families no bucket references anymore and re-index the rows.
    referenced = sorted({family_index for family_index in bucket_rows.values()})
    remap = {old: new for new, old in enumerate(referenced)}
    merged_families = tuple(families[old] for old in referenced)
    merged_buckets = tuple(
        (level, key, remap[family_index])
        for (level, key), family_index in sorted(bucket_rows.items())
    )
    merged_documents = tuple(
        documents[doc_id] for doc_id in sorted(documents)
    )
    return Snapshot(
        dictionary_version=version,
        fingerprint=tip_fingerprint,
        config=config,
        documents=merged_documents,
        families=merged_families,
        buckets=merged_buckets,
        wal_seq=wal_seq,
    )


def resolve_snapshot_chain(
    directory: str | Path, strict: bool = True, prefer_mapped: bool = False
) -> SnapshotChain | None:
    """Resolve the snapshot base in ``directory`` plus its deltas.

    The base is the v2 sharded layout (``dictionary.snapshot.d/``) when a
    readable one exists, else the v1 ``dictionary.snapshot.json`` file —
    matching what the last save wrote.  With ``prefer_mapped`` true *and* no
    deltas pending, a v2 base is opened through ``mmap`` with lazy family
    materialization (the follower fast path); any delta forces the eager
    read because merging needs the full object graph anyway.

    Returns the merged chain, or — with ``strict`` false — ``None`` when no
    usable base exists.  A broken delta (corrupt file, fingerprint that does
    not continue the chain, numbering gap) always raises
    :class:`~repro.errors.SnapshotError` naming the offending link; callers
    that can degrade (crash recovery) catch it and retry base-only.
    """
    base_path = Path(directory) / SNAPSHOT_FILE_NAME
    shard_dir = sharded_snapshot_dir(base_path)
    delta_files = list_delta_paths(directory)
    mapped: MappedSnapshot | None = None
    try:
        if (shard_dir / SNAPSHOT_MANIFEST_NAME).is_file():
            try:
                if prefer_mapped and not delta_files:
                    mapped = open_sharded_snapshot(shard_dir)
                    base = mapped.snapshot
                else:
                    base = read_sharded_snapshot(shard_dir)
                base_source = str(shard_dir)
            except SnapshotError:
                if not base_path.is_file():
                    raise
                base = read_snapshot(base_path)
                base_source = str(base_path)
        else:
            base = read_snapshot(base_path)
            base_source = str(base_path)
    except SnapshotError:
        if strict:
            raise
        return None
    deltas = [(str(path), read_delta(path)) for path in delta_files]
    merged = base if mapped is not None else _merge_chain(base, deltas)
    return SnapshotChain(
        snapshot=merged,
        base_path=base_source,
        deltas_applied=len(deltas),
        delta_paths=tuple(source for source, _ in deltas),
        mapped=mapped,
    )


def remove_delta_files(directory: str | Path) -> int:
    """Delete every delta file in ``directory``; returns how many.

    Run after a full save or a compaction — stale deltas reference a base
    fingerprint that no longer exists and would fail (loudly) on the next
    resolution.
    """
    removed = 0
    base = Path(directory)
    if base.is_dir():
        for path in base.glob(DELTA_FILE_GLOB):
            if _DELTA_FILE_RE.match(path.name):
                path.unlink()
                removed += 1
    return removed


def compact_chain(directory: str | Path) -> SnapshotChain:
    """Fold the delta chain back into one full snapshot file.

    Pure file-level maintenance: resolves the chain, writes the merged
    snapshot over ``dictionary.snapshot.json`` (atomically), then deletes
    the delta files.  The WAL is *not* touched here — the caller truncates
    it through the merged snapshot's ``wal_seq`` once the new base is
    safely on disk.
    """
    chain = resolve_snapshot_chain(directory, strict=True)
    assert chain is not None
    base = Path(chain.base_path)
    if base.is_dir():
        # Sharded base: compact back into the same layout at the same width.
        shard_count = int(sharded_manifest_info(base).get("shard_count", 1))
        write_sharded_snapshot(base, chain.snapshot, max(1, shard_count))
    else:
        write_snapshot(base, chain.snapshot)
    remove_delta_files(directory)
    return chain
