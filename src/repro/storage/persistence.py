"""JSONL and atomic-file persistence.

The original CrypText keeps its dictionary in MongoDB, which persists to
disk; this reproduction writes the dictionary's token documents as a
JSON-lines file (the CLI's ``tokens.jsonl``) so a dictionary built from a
large crawl can be saved once and reloaded quickly by examples, tests, and
benchmarks.  The atomic writers here also back the warm-start snapshots.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from ..errors import PersistenceError


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The write hook shared by JSONL dumps and warm-start snapshots:
    a crash mid-write leaves either the old file or the new one on disk,
    never a truncated hybrid — which is what lets snapshot loading treat
    "unparseable" strictly as corruption rather than a normal race.
    Parent directories are created as needed.
    """
    target = Path(path)
    scratch = target.with_name(target.name + ".tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch.write_text(text, encoding="utf-8")
        os.replace(scratch, target)
    except OSError as exc:
        try:
            scratch.unlink()
        except OSError:
            pass
        raise PersistenceError(f"failed to write {target}: {exc}") from exc
    return target


def write_bytes_atomic(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    The binary sibling of :func:`write_text_atomic`, used by the sharded
    snapshot layout's shard files.
    """
    target = Path(path)
    scratch = target.with_name(target.name + ".tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch.write_bytes(data)
        os.replace(scratch, target)
    except OSError as exc:
        try:
            scratch.unlink()
        except OSError:
            pass
        raise PersistenceError(f"failed to write {target}: {exc}") from exc
    return target


def write_json_atomic(path: str | Path, payload: Any) -> Path:
    """Serialize ``payload`` as JSON and write it atomically to ``path``."""
    try:
        text = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"payload for {path} is not JSON-serializable: {exc}") from exc
    return write_text_atomic(path, text)


def read_json(path: str | Path) -> Any:
    """Read one JSON document from ``path`` (the snapshot load hook).

    A missing or unreadable file, bytes that are not UTF-8, or text that is
    not JSON raise :class:`~repro.errors.PersistenceError`.
    """
    source = Path(path)
    if not source.exists():
        raise PersistenceError(f"no such file: {source}")
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise PersistenceError(f"failed to read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PersistenceError(f"{source}: not valid UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"{source}: invalid JSON: {exc}") from exc


def write_jsonl(path: str | Path, documents: Iterable[Mapping[str, Any]]) -> int:
    """Write ``documents`` to ``path`` as JSON lines; returns how many.

    The one JSONL writer, behind the CLI's ``tokens.jsonl``.  Parent
    directories are created as needed; the file is written atomically (temp
    file + rename) so a crash mid-dump cannot truncate a previously good
    dump.
    """
    target = Path(path)
    try:
        lines = [
            json.dumps(document, ensure_ascii=False, sort_keys=True)
            for document in documents
        ]
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"cannot serialize a document for {target}: {exc}") from exc
    lines.append("")
    write_text_atomic(target, "\n".join(lines))
    return len(lines) - 1


def iter_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield the JSON object on each non-blank line of ``path``.

    The one JSONL reader, behind the CLI's ``tokens.jsonl`` load.  A missing
    or unreadable file, a line that is not UTF-8 or not JSON, or a line
    holding anything but an object raises
    :class:`~repro.errors.PersistenceError` naming the file and line.
    """
    source = Path(path)
    if not source.exists():
        raise PersistenceError(f"no such file: {source}")
    try:
        # surrogateescape decodes a bad byte to a lone surrogate instead of
        # failing the whole read-ahead chunk, so the check below can name
        # the line that holds it.
        with source.open("r", encoding="utf-8", errors="surrogateescape") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise PersistenceError(
                            f"{source}:{line_number}: not valid UTF-8"
                        ) from exc
                try:
                    document = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise PersistenceError(
                        f"{source}:{line_number}: invalid JSON: {exc}"
                    ) from exc
                if not isinstance(document, dict):
                    raise PersistenceError(
                        f"{source}:{line_number}: expected an object, got "
                        f"{type(document).__name__}"
                    )
                yield document
    except OSError as exc:
        raise PersistenceError(f"failed to read {source}: {exc}") from exc

