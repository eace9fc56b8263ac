"""Command-line interface to the CrypText reproduction.

The deployed CrypText is driven from a web GUI; an open-source library
release needs the equivalent one-shot commands.  The CLI exposes the four
paper functions plus database construction and persistence::

    cryptext-repro build --posts 1500 --out ./db          # build + save the dictionary
    cryptext-repro lookup democrats vaccine --db ./db      # Look Up (§III-B)
    cryptext-repro normalize "the demokrats push the vacc1ne" --db ./db
    cryptext-repro perturb "the democrats support the vaccine" --ratio 0.5 --db ./db
    cryptext-repro listen vaccine --posts 1500             # Social Listening (§III-E)
    cryptext-repro batch normalize --input docs.jsonl      # batch engine over JSONL
    cryptext-repro stats --db ./db

Every command can either load a previously built dictionary (``--db DIR``)
or build one on the fly from the synthetic corpus (``--posts N --seed S``).
Output is plain text by default or JSON with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .core.pipeline import CrypText
from .datasets import build_social_corpus, corpus_texts
from .errors import CrypTextError, SnapshotError
from .social import SocialListener, SocialPlatform
from .storage import SNAPSHOT_FILE_NAME, iter_jsonl, write_jsonl
from .viz import build_word_cloud

#: File name used inside a ``--db`` directory for the token documents.
DB_FILE_NAME = "tokens.jsonl"


# --------------------------------------------------------------------------- #
# system construction helpers
# --------------------------------------------------------------------------- #
def _build_system(args: argparse.Namespace, train_scorer: bool = True) -> CrypText:
    """Build or load the CrypText system an invocation should run against.

    A ``--db`` directory that contains a warm-start snapshot hydrates the
    *whole durability state* — base snapshot, delta chain, and the WAL
    tail past it — via ``recover()``, so a database maintained by a
    scheduler-driven service is never served stale by a one-shot command
    (and ``snapshot save --db`` extends the real chain instead of
    rewriting a stale base over it).  A missing, corrupt, or stale
    snapshot silently falls back to the plain JSONL load followed by lazy
    recompilation, so old databases keep working unchanged.
    """
    if getattr(args, "db", None):
        db_dir = Path(args.db)
        snapshot_path = db_dir / SNAPSHOT_FILE_NAME
        db_path = db_dir / DB_FILE_NAME
        from .storage.snapshot import SNAPSHOT_MANIFEST_NAME, sharded_snapshot_dir

        system = CrypText.empty(seed_lexicon=False)
        has_sharded = (
            sharded_snapshot_dir(snapshot_path) / SNAPSHOT_MANIFEST_NAME
        ).is_file()
        if snapshot_path.exists() or has_sharded:
            report = system.recover(db_dir)
            if report.loaded:
                return system
            # Unusable snapshot: discard whatever partial WAL replay the
            # recovery attempt applied and fall back to the JSONL dump.
            system = CrypText.empty(seed_lexicon=False)
        if not db_path.exists():
            raise CrypTextError(
                f"no dictionary found at {db_path}; run 'build --out {args.db}' first"
            )
        system.dictionary.replace_documents(iter_jsonl(db_path))
        return system
    posts = build_social_corpus(num_posts=args.posts, seed=args.seed)
    return CrypText.from_corpus(corpus_texts(posts), train_scorer=train_scorer)


def _emit(payload: dict[str, object], args: argparse.Namespace, text_lines: list[str]) -> None:
    """Print either the JSON payload or the human-readable lines."""
    if args.json:
        print(json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def _cmd_build(args: argparse.Namespace) -> int:
    posts = build_social_corpus(num_posts=args.posts, seed=args.seed)
    system = CrypText.from_corpus(corpus_texts(posts), train_scorer=False)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = write_jsonl(out_dir / DB_FILE_NAME, system.dictionary.documents())
    # A rebuild starts a fresh history: journal segments from the previous
    # life of this directory must not replay over the new dictionary (the
    # fresh snapshot records wal_seq=0).
    from .wal import resolve_wal_directory, supersede_wal_segments

    wal_dir = resolve_wal_directory(system.config, out_dir)
    stale_segments = supersede_wal_segments(wal_dir)
    stats = system.stats()
    payload = {
        "written_entries": written,
        "db_path": str(out_dir / DB_FILE_NAME),
        "stats": stats.to_dict(),
    }
    lines = [
        f"built dictionary from {args.posts} synthetic posts (seed {args.seed})",
        f"saved {written} entries to {out_dir / DB_FILE_NAME}",
        f"tokens={stats.total_tokens} unique-sounds(k=1)={stats.unique_keys[1]}",
    ]
    if stale_segments:
        lines.append(
            f"sidelined {stale_segments} stale change-log segment(s) in {wal_dir} "
            f"(renamed *.superseded)"
        )
    from .storage.snapshot import SNAPSHOT_MANIFEST_NAME, sharded_snapshot_dir

    snapshot_path = out_dir / SNAPSHOT_FILE_NAME
    shard_dir = sharded_snapshot_dir(snapshot_path)
    if args.snapshot or system.config.snapshot_on_save:
        report = system.save_snapshot(snapshot_path)
        payload["snapshot"] = report.to_dict()
        lines.append(
            f"saved warm-start snapshot ({report.buckets} buckets, "
            f"{report.families} trie families) to {report.path}"
        )
    elif snapshot_path.exists() or (shard_dir / SNAPSHOT_MANIFEST_NAME).is_file():
        # A rebuild without --snapshot must not leave a stale snapshot (or
        # its delta chain, or a v2 sharded layout) shadowing the fresh JSONL
        # dump (--db loading prefers snapshots).
        from .core.dictionary import PerturbationDictionary
        from .wal.delta import remove_delta_files

        snapshot_path.unlink(missing_ok=True)
        PerturbationDictionary._remove_sharded_layout(shard_dir)
        remove_delta_files(out_dir)
        lines.append(f"removed stale warm-start snapshot {snapshot_path}")
    _emit(payload, args, lines)
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """The ``snapshot`` subcommand: save / load / info on warm-start snapshots."""
    path = Path(args.file) if args.file else (Path(args.db) / SNAPSHOT_FILE_NAME if args.db else None)
    if path is None:
        raise CrypTextError("snapshot requires --file or --db")
    if args.action == "save":
        system = _build_system(args, train_scorer=False)
        shards = getattr(args, "shards", None)
        if getattr(args, "incremental", False):
            # An incremental save extends the chain last saved into this
            # directory; with no prior save this process knows about, it
            # falls back to a full rewrite (and says so).
            report = system.save_snapshot(path, incremental=True, shards=shards)
        else:
            report = system.save_snapshot(path, shards=shards)
        if report.incremental:
            lines = [
                f"saved delta {report.delta_index or '(none: nothing dirty)'} "
                f"to {report.path}: {report.documents} changed documents, "
                f"{report.buckets} dirty buckets sharing {report.families} trie families"
            ]
        else:
            lines = [
                f"saved snapshot to {report.path}: {report.documents} documents, "
                f"{report.buckets} buckets sharing {report.families} trie families "
                f"(levels {', '.join(map(str, report.levels))})"
            ]
        _emit({"snapshot": report.to_dict()}, args, lines)
        return 0
    if args.action == "load":
        system = CrypText.empty(seed_lexicon=False)
        report = system.load_snapshot(path)
        stats = system.stats()
        _emit(
            {"snapshot": report.to_dict(), "stats": stats.to_dict()},
            args,
            [
                (
                    f"loaded snapshot from {path}: {report.documents} documents, "
                    f"{report.buckets} warm buckets"
                    if report.loaded
                    else f"snapshot unusable ({report.reason}); nothing loaded"
                ),
            ],
        )
        return 0 if report.loaded else 2
    # info: read and validate without building a system.  Resolution is
    # format-aware: a v2 sharded layout beside (or instead of) the v1 file
    # is preferred, exactly like loading.
    from .storage.snapshot import (
        SNAPSHOT_MANIFEST_NAME,
        resolve_snapshot,
        sharded_manifest_info,
        sharded_snapshot_dir,
    )

    try:
        snapshot = resolve_snapshot(path, strict=True)
    except SnapshotError as exc:
        raise CrypTextError(str(exc)) from exc
    payload = {
        "path": str(path),
        "dictionary_version": snapshot.dictionary_version,
        "fingerprint": snapshot.fingerprint,
        "documents": len(snapshot.documents),
        "families": len(snapshot.families),
        "buckets": len(snapshot.buckets),
        "levels": list(snapshot.levels),
    }
    layout_line = ""
    shard_dir = path if path.is_dir() else sharded_snapshot_dir(path)
    if (shard_dir / SNAPSHOT_MANIFEST_NAME).is_file():
        try:
            manifest = sharded_manifest_info(shard_dir)
        except SnapshotError:
            manifest = None
        if manifest is not None:
            shard_table = manifest.get("shards", [])
            total_bytes = sum(
                entry.get("bytes", 0)
                for entry in shard_table
                if isinstance(entry, dict)
            )
            payload["layout"] = {
                "format": "sharded-v2",
                "directory": str(shard_dir),
                "shard_count": manifest.get("shard_count"),
                "bytes": total_bytes,
            }
            layout_line = (
                f" [v2: {manifest.get('shard_count')} shard(s), "
                f"{total_bytes} bytes in {shard_dir}]"
            )
    _emit(
        payload,
        args,
        [
            f"{path}: {len(snapshot.documents)} documents, "
            f"{len(snapshot.buckets)} buckets sharing {len(snapshot.families)} "
            f"trie families, levels {list(snapshot.levels)}, "
            f"fingerprint {snapshot.fingerprint}" + layout_line
        ],
    )
    return 0


def _wal_directory(args: argparse.Namespace) -> Path:
    """Resolve the change-log directory for the ``wal`` subcommand.

    Shares the library-wide precedence rule (explicit override, else
    ``config.wal_dir``, else the ``<db>/wal`` sibling) so ``wal info``
    always reports the same journal recovery would replay.
    """
    from .config import DEFAULT_CONFIG
    from .wal import resolve_wal_directory

    override = getattr(args, "wal_dir", None) or None
    if override is None and not getattr(args, "db", None):
        raise CrypTextError("wal requires --wal-dir or --db")
    return resolve_wal_directory(DEFAULT_CONFIG, args.db or ".", override)


def _cmd_wal(args: argparse.Namespace) -> int:
    """The ``wal`` subcommand: inspect / replay / compact the durability layer."""
    from .errors import WalError
    from .wal import ChangeLog, MaintenancePolicy, MaintenanceScheduler, list_delta_paths

    wal_dir = _wal_directory(args)
    if args.action == "info":
        try:
            stats = ChangeLog.scan(wal_dir)
        except WalError as exc:
            raise CrypTextError(str(exc)) from exc
        payload: dict[str, object] = {"wal": stats.to_dict()}
        lines = [
            f"{stats.directory}: {stats.records} records in {stats.segments} "
            f"segments (seq {stats.first_seq}..{stats.last_seq}, "
            f"{stats.total_bytes} bytes"
            + (f", {stats.torn_bytes} torn tail bytes)" if stats.torn_bytes else ")")
        ]
        if getattr(args, "db", None):
            db_dir = Path(args.db)
            snapshot_path = db_dir / SNAPSHOT_FILE_NAME
            try:
                from .storage.snapshot import resolve_snapshot
                from .wal import read_delta

                base = resolve_snapshot(snapshot_path, strict=True)
                deltas = list_delta_paths(db_dir)
                # Recovery replays past the chain *tip* (the last delta's
                # recorded position), not past the base.
                tip_seq = read_delta(deltas[-1]).wal_seq if deltas else base.wal_seq
                pending = max(0, stats.last_seq - tip_seq)
                payload["chain"] = {
                    "base": str(snapshot_path),
                    "base_wal_seq": base.wal_seq,
                    "tip_wal_seq": tip_seq,
                    "deltas": [str(path) for path in deltas],
                    "replay_pending": pending,
                }
                lines.append(
                    f"chain: base covers seq <= {base.wal_seq}, "
                    f"{len(deltas)} delta(s) extending to seq <= {tip_seq}, "
                    f"{pending} records to replay"
                )
            except SnapshotError as exc:
                payload["chain"] = {"error": str(exc)}
                lines.append(f"chain: no usable snapshot chain ({exc})")
        _emit(payload, args, lines)
        return 0

    if not getattr(args, "db", None):
        raise CrypTextError(f"wal {args.action} requires --db (the snapshot directory)")
    db_dir = Path(args.db)
    system = CrypText.empty(seed_lexicon=False)
    report = system.recover(db_dir, wal_dir=wal_dir)
    stats = system.stats()
    if args.action == "replay":
        payload = {"recovery": report.to_dict(), "stats": stats.to_dict()}
        lines = [
            f"recovered {stats.total_tokens} tokens: snapshot "
            f"{'loaded' if report.loaded else 'missing'} "
            f"({report.deltas_applied} delta(s)), {report.replayed_records} WAL "
            f"records replayed past seq {report.snapshot_wal_seq}"
        ]
        if report.torn_bytes:
            lines.append(f"discarded {report.torn_bytes} torn tail bytes")
        for reason in report.degraded:
            lines.append(f"degraded: {reason}")
        _emit(payload, args, lines)
        return 0
    # compact: recovery above reconstructed the full state; fold it into a
    # fresh full snapshot and drop the WAL segments it covers.
    scheduler = MaintenanceScheduler(
        system.dictionary,
        snapshot_dir=db_dir,
        wal_dir=wal_dir,
        policy=MaintenancePolicy(autosave_interval=None, incremental=False),
    )
    save = scheduler.compact()
    payload = {"recovery": report.to_dict(), "snapshot": save.to_dict()}
    _emit(
        payload,
        args,
        [
            f"compacted {report.deltas_applied} delta(s) + "
            f"{report.replayed_records} WAL records into {save.path} "
            f"({save.documents} documents, {save.buckets} buckets); "
            f"WAL truncated through seq {save.wal_seq}"
        ],
    )
    return 0


def _run_follow_only(args: argparse.Namespace, db_dir: Path, wal_dir: Path) -> int:
    """A single read-only follower worker process (``replica run --follow-only``).

    No leader, no single-writer guard: the worker hydrates from the
    snapshot chain, tails the WAL, and — when ``--status-file`` is given —
    rewrites an atomic JSON heartbeat (pid, applied seq, content
    fingerprint, poll counters) every ``--status-interval`` seconds.  This
    is the worker the :class:`~repro.resilience.ReplicaSupervisor` spawns
    and health-checks; SIGTERM/SIGINT stop it cleanly after a final
    heartbeat.
    """
    import os
    import signal
    import threading
    import time

    from .config import DEFAULT_CONFIG
    from .replication import Follower

    config = DEFAULT_CONFIG
    if getattr(args, "catchup_batch", None):
        config = config.with_overrides(replica_catchup_batch=args.catchup_batch)
    name = getattr(args, "name", None) or f"worker-{os.getpid()}"
    interval = (
        args.poll_interval
        if args.poll_interval is not None
        else config.replica_poll_interval
    )
    status_interval = getattr(args, "status_interval", None) or 0.2
    status_path = (
        Path(args.status_file) if getattr(args, "status_file", None) else None
    )
    follower = Follower(db_dir, wal_dir=wal_dir, config=config, name=name)
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _request_stop)
        except ValueError:  # pragma: no cover - not on the main thread
            pass

    fingerprint = ""
    fingerprint_seq = -1

    def write_status() -> None:
        nonlocal fingerprint, fingerprint_seq
        if status_path is None:
            return
        stats = follower.stats()
        applied = int(stats["applied_seq"])  # type: ignore[arg-type]
        if applied != fingerprint_seq:
            # Fingerprinting hashes the whole dictionary — only pay for it
            # when the applied position moved.
            fingerprint = follower.system.dictionary.content_fingerprint()
            fingerprint_seq = applied
        payload = {
            "pid": os.getpid(),
            "name": name,
            "applied_seq": applied,
            "tokens": stats["tokens"],
            "fingerprint": fingerprint,
            "hydrated": stats["hydrated"],
            "polls": stats["polls"],
            "poll_errors": stats["poll_errors"],
            "throttled_polls": stats["throttled_polls"],
            "updated_at": time.time(),
        }
        tmp = status_path.with_name(status_path.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, status_path)

    try:
        follower.catch_up()
    except CrypTextError:
        pass  # counted in poll stats; the loop keeps trying
    write_status()
    last_status = time.monotonic()
    next_poll = last_status + interval
    wait = min(interval, status_interval)
    while not stop.is_set():
        stop.wait(wait)
        now = time.monotonic()
        if now >= next_poll:
            follower.poll_safely()
            next_poll = now + interval
        if now - last_status >= status_interval:
            write_status()
            last_status = now
    write_status()
    follower.close()
    return 0


def _cmd_replica(args: argparse.Namespace) -> int:
    """The ``replica`` subcommand: replicated read-scaling operations.

    ``status`` inspects a leader directory read-only: journal position,
    snapshot-chain tip, and how many records a fresh follower would replay.
    ``run`` starts a leader (behind the single-writer guard) plus N
    follower replicas, catches them up, and either reports convergence and
    exits (the default, used by scripts and tests) or keeps serving over
    the asyncio front (``--serve``).  ``run --follow-only`` instead runs a
    single read-only worker (no leader) — see :func:`_run_follow_only`.
    ``supervise`` runs N such workers as real OS processes under a
    restart-with-backoff supervisor.
    """
    from .config import DEFAULT_CONFIG
    from .errors import WalError
    from .wal import ChangeLog, SingleWriterGuard, resolve_wal_directory
    from .wal.delta import resolve_snapshot_chain

    if not getattr(args, "db", None):
        raise CrypTextError("replica requires --db (the leader's snapshot directory)")
    db_dir = Path(args.db)
    wal_dir = resolve_wal_directory(
        DEFAULT_CONFIG, db_dir, getattr(args, "wal_dir", None) or None
    )

    if args.action == "run" and getattr(args, "follow_only", False):
        return _run_follow_only(args, db_dir, wal_dir)

    if args.action == "supervise":
        from .resilience import ReplicaSupervisor

        supervisor = ReplicaSupervisor(
            db_dir,
            wal_dir=wal_dir,
            workers=args.workers,
            poll_interval=args.poll_interval,
            status_interval=args.status_interval,
            catchup_batch=getattr(args, "catchup_batch", None),
        )
        supervisor.start()
        try:
            supervisor.run(rounds=args.rounds, interval=args.check_interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            payload = supervisor.status()
            supervisor.stop()
        lines = []
        for member in payload["workers"]:
            heartbeat = member["heartbeat"] or {}
            lines.append(
                f"{member['name']}: pid {member['pid']}, "
                f"{'healthy' if member['healthy'] else 'unhealthy'}, "
                f"applied seq {heartbeat.get('applied_seq', '?')}, "
                f"{member['restarts']} restart(s)"
            )
        _emit({"supervisor": payload}, args, lines)
        return 0

    if args.action == "status":
        payload: dict[str, object] = {"wal_dir": str(wal_dir)}
        lines: list[str] = []
        try:
            wal_stats = ChangeLog.scan(wal_dir)
            payload["wal"] = wal_stats.to_dict()
            leader_seq = wal_stats.last_seq
            lines.append(
                f"journal {wal_dir}: {wal_stats.records} records, "
                f"last seq {wal_stats.last_seq}"
            )
        except WalError as exc:
            payload["wal"] = {"error": str(exc)}
            leader_seq = 0
            lines.append(f"journal {wal_dir}: unreadable ({exc})")
        try:
            chain = resolve_snapshot_chain(db_dir, strict=False)
        except SnapshotError as exc:
            chain = None
            payload["chain"] = {"error": str(exc)}
            lines.append(f"chain: broken ({exc})")
        if chain is not None:
            tip_seq = chain.snapshot.wal_seq
            pending = max(0, leader_seq - tip_seq)
            payload["chain"] = {
                "base": chain.base_path,
                "deltas": chain.deltas_applied,
                "tip_wal_seq": tip_seq,
                "replay_pending": pending,
            }
            lines.append(
                f"chain: base + {chain.deltas_applied} delta(s) covering "
                f"seq <= {tip_seq}; a fresh follower replays {pending} record(s)"
            )
        elif "chain" not in payload:
            payload["chain"] = None
            lines.append(
                f"chain: no usable snapshot in {db_dir}; a fresh follower "
                f"replays the whole journal"
            )
        _emit(payload, args, lines)
        return 0

    # run: leader behind the single-writer guard, N tailing followers.
    from .api import AsyncCrypTextService, CrypTextService
    from .replication import Follower, ReplicaSet

    with SingleWriterGuard(wal_dir):
        leader = CrypText.empty(seed_lexicon=False)
        recovery = leader.recover(db_dir, wal_dir=wal_dir)
        followers = [
            Follower(db_dir, wal_dir=wal_dir, name=f"follower-{index}")
            for index in range(args.followers)
        ]
        replica_set = ReplicaSet(leader, followers)
        try:
            for follower in followers:
                follower.catch_up()
            if args.serve:
                service = CrypTextService(leader, replica_set=replica_set)
                token = service.issue_token("cli")
                front = AsyncCrypTextService(service)

                async def serve() -> None:
                    host, port = await front.start(args.host, args.port)
                    print(f"serving on http://{host}:{port} (token: {token.token})")
                    replica_set.start(args.poll_interval)
                    try:
                        await front.serve_forever()
                    finally:
                        replica_set.stop()
                        await front.stop()

                try:
                    import asyncio

                    asyncio.run(serve())
                except KeyboardInterrupt:  # pragma: no cover - interactive exit
                    pass
                return 0
            status = replica_set.status()
            payload = {"recovery": recovery.to_dict(), "replication": status}
            lines = [
                f"leader recovered {len(leader.dictionary)} tokens "
                f"(wal seq {recovery.wal_seq})"
            ]
            # Per-follower lag in *seconds* comes from the observability
            # gauges (the same series a Prometheus scrape sees), not from a
            # second ad-hoc computation.
            from .obs.adapters import replication_samples

            lag_seconds = {
                sample[3]["follower"]: float(sample[4])
                for sample in replication_samples(replica_set)
                if sample[0] == "cryptext_replication_lag_seconds"
            }
            payload["lag_seconds"] = lag_seconds
            for member in status["followers"]:
                seconds = lag_seconds.get(str(member["name"]))
                behind = (
                    "never synced" if seconds is None else f"{seconds:.3f}s behind"
                )
                lines.append(
                    f"{member['name']}: applied seq {member['applied_seq']}, "
                    f"{member['tokens']} tokens, "
                    f"lag {member['replication_lag_seqs']} seq(s), {behind}"
                )
            converged = all(
                member["applied_seq"] == status["leader_seq"]
                for member in status["followers"]
            )
            lines.append(
                "all followers converged" if converged else "followers still behind"
            )
            _emit(payload, args, lines)
            return 0 if converged else 2
        finally:
            replica_set.close()


def _cmd_metrics(args: argparse.Namespace) -> int:
    """One-shot (or ``--watch``) view of the observability surface.

    Builds/loads the system the same way every other one-shot command does,
    arms the registry for the invocation (a metrics command that reports
    everything disarmed would be useless), and prints either the Prometheus
    exposition text or (``--json``) the registry snapshot.
    """
    import time as _time

    from .obs.adapters import sanitizer_samples, system_samples
    from .obs.expose import render_text
    from .obs.registry import OBS

    OBS.arm()
    system = _build_system(args, train_scorer=False)

    def collected():
        extra = system_samples(system)
        extra.extend(sanitizer_samples())
        return OBS.collect(extra)

    if args.watch:
        try:
            while True:
                print("\x1b[2J\x1b[H", end="")  # clear the terminal between frames
                print(render_text(collected()), end="", flush=True)
                _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0
    if args.json:
        print(
            json.dumps(
                OBS.snapshot(system_samples(system)),
                indent=2,
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    else:
        print(render_text(collected()), end="")
    return 0


def _cmd_lookup(args: argparse.Namespace) -> int:
    system = _build_system(args, train_scorer=False)
    payload: dict[str, object] = {}
    lines: list[str] = []
    for word in args.words:
        result = system.look_up(
            word,
            phonetic_level=args.phonetic_level,
            max_edit_distance=args.edit_distance,
            case_sensitive=not args.case_insensitive,
            use_transpositions=args.transpositions,
        )
        payload[word] = result.to_dict()
        perturbations = ", ".join(result.perturbation_tokens()[: args.limit]) or "(none)"
        lines.append(f"{word}: {perturbations}")
        if args.word_cloud and result.matches:
            cloud = build_word_cloud(result, max_items=args.limit)
            payload[f"{word}_word_cloud"] = [item.to_dict() for item in cloud]
    _emit(payload, args, lines)
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    system = _build_system(args)
    result = system.normalize(args.text)
    payload = result.to_dict()
    lines = [result.normalized_text]
    if args.explain:
        for correction in result.perturbed_corrections:
            lines.append(
                f"  {correction.original!r} -> {correction.corrected!r} "
                f"({correction.category.value})"
            )
    _emit(payload, args, lines)
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    system = _build_system(args, train_scorer=False)
    outcome = system.perturber.perturb(
        args.text, ratio=args.ratio, fill_target=args.fill_target
    )
    payload = outcome.to_dict()
    lines = [outcome.perturbed_text]
    if args.explain:
        for replacement in outcome.replacements:
            lines.append(
                f"  {replacement.original!r} -> {replacement.perturbed!r} "
                f"({replacement.category.value})"
            )
    _emit(payload, args, lines)
    return 0


def _cmd_listen(args: argparse.Namespace) -> int:
    posts = build_social_corpus(num_posts=args.posts, seed=args.seed)
    system = CrypText.from_corpus(corpus_texts(posts), train_scorer=False)
    platform = SocialPlatform(args.platform)
    platform.ingest_posts(posts, only_matching_platform=True)
    listener = SocialListener(platform, system.lookup_engine)
    usage = listener.monitor_keyword(args.keyword)
    payload = usage.to_dict()
    lines = [
        f"keyword {args.keyword!r} on {args.platform}: {usage.total_posts} posts, "
        f"{usage.perturbed_posts} reached via perturbations "
        f"({usage.perturbed_share:.0%})",
    ]
    for point in usage.timeline:
        lines.append(
            f"  {point.date}: {point.frequency:>3} posts  "
            f"sentiment {point.average_sentiment:+.2f}  "
            f"negative {point.negative_share:.0%}"
        )
    _emit(payload, args, lines)
    return 0


def _iter_jsonl_values(path: str, field: str):
    """Yield one string per JSONL line of ``path`` (``-`` reads stdin).

    Each line is either a JSON object holding ``field`` or a bare JSON
    string; blank lines are skipped.
    """
    if path == "-":
        handle = sys.stdin
    else:
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise CrypTextError(f"cannot read {path}: {exc}") from exc
    try:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CrypTextError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
            if isinstance(payload, str):
                yield payload
            elif isinstance(payload, dict) and field in payload:
                yield str(payload[field])
            else:
                raise CrypTextError(
                    f"{path}:{line_number}: expected a JSON string or an object "
                    f"with a {field!r} field"
                )
    finally:
        if handle is not sys.stdin:
            handle.close()


def _cmd_batch(args: argparse.Namespace) -> int:
    system = _build_system(args, train_scorer=args.mode == "normalize")
    engine = system.make_batch_engine(chunk_size=args.chunk_size)
    if args.output is None:
        out = sys.stdout
    else:
        try:
            out = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            raise CrypTextError(f"cannot write {args.output}: {exc}") from exc
    processed = 0
    try:
        if args.mode == "lookup":
            field = "query"
            stream = engine.stream_look_up(_iter_jsonl_values(args.input, field))
            for result in stream:
                record = {
                    "query": result.query,
                    "soundex_key": result.soundex_key,
                    "perturbations": list(result.perturbation_tokens()[: args.limit]),
                }
                print(json.dumps(record, ensure_ascii=False), file=out)
                processed += 1
        else:
            field = "text"
            stream = engine.stream_normalize(_iter_jsonl_values(args.input, field))
            for result in stream:
                record = {
                    "text": result.original_text,
                    "normalized": result.normalized_text,
                    "num_corrected": result.num_corrected,
                }
                print(json.dumps(record, ensure_ascii=False), file=out)
                processed += 1
    finally:
        if out is not sys.stdout:
            out.close()
    print(
        f"processed {processed} documents "
        f"({args.mode}, chunk size {args.chunk_size})",
        file=sys.stderr,
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import LOCK_RANKS
    from .analysis.lint import lint_paths
    from .analysis.sanitizer import active

    rule_names = None
    if args.rules:
        rule_names = [part.strip() for part in args.rules.split(",") if part.strip()]
    paths = [Path(path) for path in args.paths] or None
    try:
        findings = lint_paths(paths, rule_names)
    except ValueError as exc:
        raise CrypTextError(str(exc)) from exc
    payload: dict[str, object] = {
        "findings": [
            {"rule": f.rule, "path": f.path, "line": f.line, "message": f.message}
            for f in findings
        ],
        "count": len(findings),
    }
    lines = [finding.describe() for finding in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    if args.show_hierarchy:
        payload["hierarchy"] = dict(LOCK_RANKS)
        lines.append("lock hierarchy (outermost first):")
        lines.extend(
            f"  {rank:4d}  {name}" for name, rank in sorted(LOCK_RANKS.items(), key=lambda kv: kv[1])
        )
    sanitizer = active()
    if sanitizer is not None:
        payload["sanitizer"] = {"violations": len(sanitizer.report().violations)}
        lines.append(sanitizer.report().describe())
    _emit(payload, args, lines)
    return 1 if findings else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    system = _build_system(args, train_scorer=False)
    stats = system.stats()
    payload = {"stats": stats.to_dict()}
    lines = [
        f"raw tokens          : {stats.total_tokens}",
        f"total occurrences   : {stats.total_occurrences}",
        f"lexicon tokens      : {stats.lexicon_tokens}",
        f"perturbation tokens : {stats.perturbation_tokens}",
    ]
    for level, count in sorted(stats.unique_keys.items()):
        lines.append(f"unique sounds (k={level}) : {count}")
    _emit(payload, args, lines)
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", help="directory of a dictionary saved by the 'build' command"
    )
    parser.add_argument(
        "--posts", type=int, default=800, help="synthetic corpus size when no --db is given"
    )
    parser.add_argument("--seed", type=int, default=20230116, help="corpus seed")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="cryptext-repro",
        description="CrypText reproduction: human-written text perturbations in the wild",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    commands = parser.add_subparsers(dest="command", required=True)

    build_cmd = commands.add_parser("build", help="build and save the token dictionary")
    build_cmd.add_argument("--posts", type=int, default=1500)
    build_cmd.add_argument("--seed", type=int, default=20230116)
    build_cmd.add_argument("--out", required=True, help="output directory")
    build_cmd.add_argument(
        "--snapshot",
        action="store_true",
        help="also write a warm-start snapshot (compiled tries) next to the JSONL dump",
    )
    build_cmd.set_defaults(handler=_cmd_build)

    lookup_cmd = commands.add_parser("lookup", help="Look Up perturbations of words")
    lookup_cmd.add_argument("words", nargs="+")
    lookup_cmd.add_argument("--phonetic-level", type=int, default=None)
    lookup_cmd.add_argument("--edit-distance", type=int, default=None)
    lookup_cmd.add_argument("--case-insensitive", action="store_true")
    lookup_cmd.add_argument(
        "--transpositions",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="override the distance policy: --transpositions counts an adjacent "
        "swap as one edit (OSA), --no-transpositions as two (plain Levenshtein); "
        "omitted keeps the configured policy",
    )
    lookup_cmd.add_argument("--limit", type=int, default=15)
    lookup_cmd.add_argument("--word-cloud", action="store_true", help="include word-cloud data")
    _add_source_arguments(lookup_cmd)
    lookup_cmd.set_defaults(handler=_cmd_lookup)

    snapshot_cmd = commands.add_parser(
        "snapshot",
        help="save, load, or inspect a warm-start snapshot (dictionary + compiled tries)",
    )
    snapshot_cmd.add_argument("action", choices=("save", "load", "info"))
    snapshot_cmd.add_argument(
        "--file", help=f"snapshot path (default: <--db>/{SNAPSHOT_FILE_NAME})"
    )
    snapshot_cmd.add_argument(
        "--incremental",
        action="store_true",
        help="(save only) write a delta covering only the buckets changed "
        "since the last save into this directory, instead of a full rewrite",
    )
    snapshot_cmd.add_argument(
        "--shards",
        type=int,
        default=None,
        help="(save only) write the v2 sharded, mmap-friendly layout with "
        "this many shard files (overrides config.snapshot_shards; 0 forces "
        "the v1 single file)",
    )
    _add_source_arguments(snapshot_cmd)
    snapshot_cmd.set_defaults(handler=_cmd_snapshot)

    wal_cmd = commands.add_parser(
        "wal",
        help="inspect, replay, or compact the durability layer (change log + deltas)",
    )
    wal_cmd.add_argument(
        "action",
        choices=("info", "replay", "compact"),
        help="info: segment/record/torn-tail summary; replay: rebuild the "
        "dictionary from snapshot chain + WAL tail and report; compact: fold "
        "deltas and the WAL tail into one full snapshot and truncate the log",
    )
    wal_cmd.add_argument(
        "--db", help="snapshot-chain directory (wal defaults to <db>/wal)"
    )
    wal_cmd.add_argument("--wal-dir", help="change-log directory override")
    wal_cmd.set_defaults(handler=_cmd_wal)

    replica_cmd = commands.add_parser(
        "replica",
        help="replicated read scaling: run follower replicas or inspect lag",
    )
    replica_cmd.add_argument(
        "action",
        choices=("run", "status", "supervise"),
        help="run: leader (single-writer guarded) + N WAL-tailing followers, "
        "converge and report, or keep serving with --serve; status: journal "
        "position, chain tip, and pending replay for a fresh follower; "
        "supervise: N read-only follower worker processes under a "
        "restart-with-backoff supervisor",
    )
    replica_cmd.add_argument(
        "--db", help="leader snapshot-chain directory (wal defaults to <db>/wal)"
    )
    replica_cmd.add_argument("--wal-dir", help="change-log directory override")
    replica_cmd.add_argument(
        "--followers", type=int, default=2, help="number of follower replicas (run)"
    )
    replica_cmd.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        help="follower poll interval in seconds (default: config value)",
    )
    replica_cmd.add_argument(
        "--serve",
        action="store_true",
        help="keep running and serve the asyncio HTTP front over the replica set",
    )
    replica_cmd.add_argument("--host", default="127.0.0.1", help="bind host (--serve)")
    replica_cmd.add_argument(
        "--port", type=int, default=0, help="bind port, 0 picks a free one (--serve)"
    )
    replica_cmd.add_argument(
        "--follow-only",
        action="store_true",
        help="run a single read-only follower worker (no leader, no writer "
        "guard) — the process the supervisor spawns",
    )
    replica_cmd.add_argument(
        "--name", default=None, help="worker name in heartbeats (--follow-only)"
    )
    replica_cmd.add_argument(
        "--status-file",
        default=None,
        help="atomic JSON heartbeat path (--follow-only)",
    )
    replica_cmd.add_argument(
        "--status-interval",
        type=float,
        default=0.2,
        help="seconds between heartbeat writes (--follow-only / supervise)",
    )
    replica_cmd.add_argument(
        "--catchup-batch",
        type=int,
        default=None,
        help="max WAL records applied per poll (backpressure; default: config)",
    )
    replica_cmd.add_argument(
        "--workers", type=int, default=2, help="worker processes (supervise)"
    )
    replica_cmd.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="supervision checks before exiting (supervise; default: run "
        "until interrupted)",
    )
    replica_cmd.add_argument(
        "--check-interval",
        type=float,
        default=0.5,
        help="seconds between supervision checks (supervise)",
    )
    replica_cmd.add_argument(
        "--json",
        action="store_true",
        # SUPPRESS keeps this subparser flag from clobbering a globally
        # passed --json with its own False default: absent here means
        # "whatever the top-level parser decided".
        default=argparse.SUPPRESS,
        help="emit JSON (same as the global --json, placed after the subcommand)",
    )
    replica_cmd.set_defaults(handler=_cmd_replica)

    metrics_cmd = commands.add_parser(
        "metrics",
        help="print the Prometheus exposition text for a system (or --json)",
    )
    metrics_cmd.add_argument(
        "--watch",
        action="store_true",
        help="refresh the exposition text in place until interrupted",
    )
    metrics_cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch refreshes",
    )
    _add_source_arguments(metrics_cmd)
    metrics_cmd.set_defaults(handler=_cmd_metrics)

    normalize_cmd = commands.add_parser("normalize", help="detect and de-perturb a text")
    normalize_cmd.add_argument("text")
    normalize_cmd.add_argument("--explain", action="store_true")
    _add_source_arguments(normalize_cmd)
    normalize_cmd.set_defaults(handler=_cmd_normalize)

    perturb_cmd = commands.add_parser("perturb", help="perturb a text at a ratio")
    perturb_cmd.add_argument("text")
    perturb_cmd.add_argument("--ratio", type=float, default=0.25)
    perturb_cmd.add_argument("--fill-target", action="store_true")
    perturb_cmd.add_argument("--explain", action="store_true")
    _add_source_arguments(perturb_cmd)
    perturb_cmd.set_defaults(handler=_cmd_perturb)

    listen_cmd = commands.add_parser("listen", help="monitor a keyword's perturbations")
    listen_cmd.add_argument("keyword")
    listen_cmd.add_argument("--platform", default="twitter", choices=("twitter", "reddit"))
    listen_cmd.add_argument("--posts", type=int, default=1200)
    listen_cmd.add_argument("--seed", type=int, default=20230116)
    listen_cmd.set_defaults(handler=_cmd_listen)

    batch_cmd = commands.add_parser(
        "batch",
        help="run Look Up or Normalization over a JSONL stream via the batch engine",
    )
    batch_cmd.add_argument("mode", choices=("lookup", "normalize"))
    batch_cmd.add_argument(
        "--input",
        required=True,
        help="JSONL file of {'query': ...} / {'text': ...} objects (or bare "
        "strings); '-' reads stdin",
    )
    batch_cmd.add_argument("--output", help="output JSONL path (default: stdout)")
    batch_cmd.add_argument("--chunk-size", type=int, default=256, help="documents per chunk")
    batch_cmd.add_argument("--limit", type=int, default=15, help="perturbations kept per query")
    _add_source_arguments(batch_cmd)
    batch_cmd.set_defaults(handler=_cmd_batch)

    stats_cmd = commands.add_parser("stats", help="dictionary statistics")
    _add_source_arguments(stats_cmd)
    stats_cmd.set_defaults(handler=_cmd_stats)

    check_cmd = commands.add_parser(
        "check",
        help="run the project-aware concurrency lint pass (exit 1 on findings)",
    )
    check_cmd.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    check_cmd.add_argument("--rules", help="comma-separated subset of rules to run")
    check_cmd.add_argument(
        "--show-hierarchy",
        action="store_true",
        help="also print the declared lock-order hierarchy",
    )
    check_cmd.set_defaults(handler=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    from .analysis.sanitizer import maybe_enable_from_env
    from .obs.registry import maybe_arm_from_env
    from .resilience.faults import install_env_faults

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Before any system construction: locks built after this point come
        # out tracked when CRYPTEXT_SANITIZE=1 is set.
        if maybe_enable_from_env() is not None:
            print("sanitizer: lock-order sanitizer enabled", file=sys.stderr)
        if maybe_arm_from_env():
            print(
                "observability: metrics registry armed via CRYPTEXT_OBS=1",
                file=sys.stderr,
            )
        armed = install_env_faults()
        if armed:
            print(
                f"chaos: armed fault point(s) from CRYPTEXT_FAULTS: "
                f"{', '.join(armed)}",
                file=sys.stderr,
            )
        return int(args.handler(args))
    except CrypTextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
