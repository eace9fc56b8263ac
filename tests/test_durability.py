"""Tests for delta snapshots, crash recovery, and the maintenance scheduler.

The contract under test: a process killed at *any* point after a write was
acknowledged — mid-ingest, mid-append (torn tail), between delta saves —
recovers to a dictionary observably identical to an uninterrupted run; a
broken delta chain degrades to base + full WAL replay instead of wrong
answers; and the scheduler drives saves/compaction/truncation from both the
cooperative (crawler/stream) and background paths.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrypText, CrypTextConfig
from repro.core.dictionary import PerturbationDictionary
from repro.core.lookup import LookupEngine
from repro.errors import SnapshotError
from repro.storage import SNAPSHOT_FILE_NAME, read_snapshot
from repro.wal import (
    ChangeLog,
    MaintenancePolicy,
    MaintenanceScheduler,
    compact_chain,
    list_delta_paths,
    read_delta,
    resolve_snapshot_chain,
    wal_directory_for,
)

CONFIG = CrypTextConfig(cache_enabled=False)

CORPUS = [
    "the demokrats hate the vacc1ne",
    "the dirrty republicans lie",
    "teh vaccine works",
    "the democRATs and the repubLIEcans argue online",
]

LATER = [
    "fresh amaz0n chatter tonight",
    "mus-lim families moved into the neighborhood",
]

PROBES = ("vaccine", "democrats", "republicans", "amazon", "muslim", "the", "zzzz")


def _journaled_dictionary(tmp_path: Path) -> PerturbationDictionary:
    dictionary = PerturbationDictionary(config=CONFIG)
    dictionary.attach_wal(ChangeLog(wal_directory_for(tmp_path)))
    return dictionary


def _assert_equivalent(left: PerturbationDictionary, right: PerturbationDictionary):
    assert left.content_fingerprint() == right.content_fingerprint()
    assert left.token_counts() == right.token_counts()
    left_engine = LookupEngine(left, config=CONFIG)
    right_engine = LookupEngine(right, config=CONFIG)
    for probe in PROBES:
        for distance in (1, 3):
            assert left_engine.look_up(probe, max_edit_distance=distance) == (
                right_engine.look_up(probe, max_edit_distance=distance)
            ), probe


class TestDeltaSnapshots:
    def test_incremental_without_base_falls_back_to_full(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        report = dictionary.save_snapshot(
            tmp_path / SNAPSHOT_FILE_NAME, incremental=True
        )
        assert not report.incremental
        assert list_delta_paths(tmp_path) == []

    def test_delta_covers_only_dirty_buckets(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        full = dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        dictionary.add_text(LATER[0], source="later")
        delta_report = dictionary.save_snapshot(
            tmp_path / SNAPSHOT_FILE_NAME, incremental=True
        )
        assert delta_report.incremental and delta_report.delta_index == 1
        assert 0 < delta_report.documents < full.documents
        assert 0 < delta_report.buckets < full.buckets
        delta = read_delta(Path(delta_report.path))
        assert delta.parent_fingerprint == read_snapshot(
            tmp_path / SNAPSHOT_FILE_NAME
        ).fingerprint
        assert delta.fingerprint == dictionary.content_fingerprint()

    def test_nothing_dirty_writes_no_file(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        report = dictionary.save_snapshot(
            tmp_path / SNAPSHOT_FILE_NAME, incremental=True
        )
        assert report.incremental and report.delta_index is None
        assert report.documents == 0
        assert list_delta_paths(tmp_path) == []

    def test_chain_resolution_matches_full_save(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        for text in LATER:
            dictionary.add_text(text, source="later")
            dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        chain = resolve_snapshot_chain(tmp_path)
        assert chain.deltas_applied == 2
        reference = dictionary.build_snapshot()
        assert chain.snapshot.fingerprint == reference.fingerprint
        assert {d["token"] for d in chain.snapshot.documents} == {
            d["token"] for d in reference.documents
        }
        assert {
            (level, key) for level, key, _ in chain.snapshot.buckets
        } == {(level, key) for level, key, _ in reference.buckets}

    def test_full_save_supersedes_deltas(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        dictionary.add_text(LATER[0], source="later")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        assert len(list_delta_paths(tmp_path)) == 1
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        assert list_delta_paths(tmp_path) == []

    def test_compact_chain_folds_deltas(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        dictionary.add_text(LATER[0], source="later")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        chain = compact_chain(tmp_path)
        assert list_delta_paths(tmp_path) == []
        compacted = read_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        assert compacted.fingerprint == chain.snapshot.fingerprint
        hydrated = PerturbationDictionary(config=CONFIG)
        assert hydrated.load_snapshot(tmp_path / SNAPSHOT_FILE_NAME).loaded
        _assert_equivalent(dictionary, hydrated)

    def test_delta_numbering_gap_is_refused(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        for text in LATER:
            dictionary.add_text(text, source="later")
            dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        list_delta_paths(tmp_path)[0].unlink()
        with pytest.raises(SnapshotError):
            resolve_snapshot_chain(tmp_path)


class TestCrashRecovery:
    def _ingest_with_midpoint_save(self, tmp_path: Path) -> PerturbationDictionary:
        """The crash victim: base saved mid-ingest, later writes only in the WAL."""
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        for text in LATER:
            dictionary.add_text(text, source="later")
        return dictionary

    def _uninterrupted_reference(self) -> PerturbationDictionary:
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        for text in LATER:
            dictionary.add_text(text, source="later")
        return dictionary

    def test_kill_after_acknowledged_writes_loses_nothing(self, tmp_path):
        victim = self._ingest_with_midpoint_save(tmp_path)
        # Simulated kill -9: the process state is simply dropped; only the
        # files survive.
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert report.loaded and report.replayed_records > 0
        assert report.degraded == ()
        _assert_equivalent(victim, recovered)
        _assert_equivalent(self._uninterrupted_reference(), recovered)
        # Replay reassigned the exact document ids, so bucket order — and
        # therefore every downstream ranking — is byte-identical.
        assert [d["_id"] for d in victim.documents()] == [
            d["_id"] for d in recovered.documents()
        ]

    def test_recovery_is_idempotent(self, tmp_path):
        self._ingest_with_midpoint_save(tmp_path)
        first = PerturbationDictionary(config=CONFIG)
        first.recover(tmp_path)
        second = PerturbationDictionary(config=CONFIG)
        second.recover(tmp_path)
        _assert_equivalent(first, second)

    def test_torn_tail_mid_append_is_discarded(self, tmp_path):
        victim = self._ingest_with_midpoint_save(tmp_path)
        segment = sorted(wal_directory_for(tmp_path).glob("wal-*.seg"))[-1]
        with segment.open("ab") as handle:
            handle.write(b"000000a1" + b"00bada55" + b'{"seq": 99')  # cut short
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert report.torn_bytes > 0
        # The torn record was never acknowledged; everything before it is
        # intact.
        _assert_equivalent(victim, recovered)

    def test_recovery_resumes_journaling_and_incremental_saves(self, tmp_path):
        self._ingest_with_midpoint_save(tmp_path)
        recovered = PerturbationDictionary(config=CONFIG)
        recovered.recover(tmp_path)
        assert recovered.wal is not None
        # The replayed tail is dirty on top of the on-disk chain tip: the
        # next incremental save persists it as a delta...
        report = recovered.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        assert report.incremental and report.delta_index == 1
        # ...and a second crash+recovery still reconstructs the same state.
        recovered.add_text("another totalitarian surveillance post", source="later2")
        twice = PerturbationDictionary(config=CONFIG)
        twice.recover(tmp_path)
        _assert_equivalent(recovered, twice)

    def test_broken_delta_chain_degrades_to_base_plus_replay(self, tmp_path):
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        for text in LATER:
            dictionary.add_text(text, source="later")
            dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        # Corrupt the first delta's fingerprint linkage.
        delta_file = list_delta_paths(tmp_path)[0]
        body = json.loads(delta_file.read_text().splitlines()[1])
        body["parent_fingerprint"] = "deadbeef"
        from repro.storage import write_envelope

        write_envelope(delta_file, body)
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert report.loaded and report.deltas_applied == 0
        assert any("fingerprint" in reason for reason in report.degraded)
        # The WAL retained everything past the *full* save, so the state is
        # still complete.
        _assert_equivalent(dictionary, recovered)
        with pytest.raises(SnapshotError):
            PerturbationDictionary(config=CONFIG).recover(tmp_path, strict=True)

    def test_no_snapshot_at_all_replays_from_scratch(self, tmp_path):
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert not report.loaded
        assert report.replayed_records > 0
        _assert_equivalent(dictionary, recovered)

    def test_pure_replay_recovery_replaces_existing_state(self, tmp_path):
        """WAL-only recovery must reconstruct, not accumulate: pre-existing
        documents are dropped and a repeat recover() is idempotent."""
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        target = PerturbationDictionary(config=CONFIG)
        target.add_token("preexisting", source="x")
        target.recover(tmp_path)
        assert "preexisting" not in target.token_counts()
        counts_once = target.token_counts()
        target.recover(tmp_path)  # live re-recovery: same WAL, same result
        assert target.token_counts() == counts_once
        assert counts_once == dictionary.token_counts()

    def test_wal_attached_after_snapshot_load_is_not_shadowed(self, tmp_path):
        # A snapshot whose recorded wal_seq came from an earlier journal...
        victim = self._ingest_with_midpoint_save(tmp_path)
        snapshot_seq = read_snapshot(tmp_path / SNAPSHOT_FILE_NAME).wal_seq
        assert snapshot_seq > 0
        # ...is loaded by a process with no WAL, which only then attaches a
        # *fresh* log somewhere else.  Its sequences must start past the
        # snapshot's position, or replay would skip the acknowledged writes.
        fresh = PerturbationDictionary(config=CONFIG)
        assert fresh.load_snapshot(tmp_path / SNAPSHOT_FILE_NAME).loaded
        other_wal = tmp_path / "relocated-wal"
        fresh.attach_wal(ChangeLog(other_wal))
        fresh.add_text(LATER[1], source="after-attach")
        assert fresh.wal.last_seq > snapshot_seq
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path, wal_dir=other_wal)
        assert report.replayed_records > 0
        _assert_equivalent(fresh, recovered)

    def test_delta_with_an_invalid_utf8_byte_degrades_to_base_plus_replay(
        self, tmp_path
    ):
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        dictionary.add_text(LATER[0], source="later")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        delta_file = list_delta_paths(tmp_path)[0]
        data = bytearray(delta_file.read_bytes())
        data[len(data) // 2] = 0xFF
        delta_file.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            read_delta(delta_file)
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert report.loaded and report.deltas_applied == 0
        assert any("checksum" in reason for reason in report.degraded)
        _assert_equivalent(dictionary, recovered)

    def test_base_with_an_invalid_utf8_byte_degrades_to_replay(self, tmp_path):
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        dictionary.add_text(LATER[0], source="later")
        base = tmp_path / SNAPSHOT_FILE_NAME
        data = bytearray(base.read_bytes())
        data[len(data) // 2] = 0xFF
        base.write_bytes(bytes(data))
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert not report.loaded and report.degraded
        # The full save truncated nothing (no maintenance ran), so the log
        # still holds every write.
        _assert_equivalent(dictionary, recovered)

    def test_write_landing_mid_save_is_never_lost(self, tmp_path, monkeypatch):
        """A token re-dirtied while a delta save is serializing must stay
        dirty — the save's completion must not subtract it away."""
        import repro.wal.delta as delta_module

        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        dictionary.add_token("vacc1ne", source="w", count=10)

        real_write = delta_module.write_delta

        def write_with_concurrent_write(path, delta):
            # Lands after the dirty capture, before the save completes.
            dictionary.add_token("vacc1ne", source="w", count=100)
            return real_write(path, delta)

        monkeypatch.setattr(delta_module, "write_delta", write_with_concurrent_write)
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        monkeypatch.setattr(delta_module, "write_delta", real_write)
        # The +100 write is still dirty, so the next delta persists it...
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        recovered = PerturbationDictionary(config=CONFIG)
        recovered.recover(tmp_path)
        assert recovered.token_counts()["vacc1ne"] == dictionary.token_counts()["vacc1ne"]

    def test_interior_wal_corruption_degrades_not_raises(self, tmp_path):
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        # Force multiple segments, then corrupt a non-final one.
        dictionary.detach_wal()
        small = ChangeLog(wal_directory_for(tmp_path), segment_bytes=64)
        dictionary.attach_wal(small)
        for text in LATER:
            dictionary.add_text(text, source="later")
        segments = sorted(wal_directory_for(tmp_path).glob("wal-*.seg"))
        assert len(segments) > 1
        data = bytearray(segments[0].read_bytes())
        data[len(data) // 2] ^= 0xFF
        segments[0].write_bytes(bytes(data))
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert report.loaded and report.replayed_records == 0
        assert any("corrupt" in reason for reason in report.degraded)
        from repro.errors import WalError

        with pytest.raises(WalError):
            PerturbationDictionary(config=CONFIG).recover(tmp_path, strict=True)

    def test_degraded_recovery_still_floors_a_fresh_wal(self, tmp_path):
        """After a corrupt-WAL recovery, a replacement log must hand out
        sequences past the installed snapshot's position."""
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        snapshot_seq = read_snapshot(tmp_path / SNAPSHOT_FILE_NAME).wal_seq
        dictionary.detach_wal()
        small = ChangeLog(wal_directory_for(tmp_path), segment_bytes=64)
        dictionary.attach_wal(small)
        for text in LATER:
            dictionary.add_text(text, source="later")
        segments = sorted(wal_directory_for(tmp_path).glob("wal-*.seg"))
        data = bytearray(segments[0].read_bytes())
        data[len(data) // 2] ^= 0xFF
        segments[0].write_bytes(bytes(data))

        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert report.degraded  # corrupt WAL, no replay
        # Operator moves the corrupt log aside and attaches a fresh one.
        fresh_wal = ChangeLog(tmp_path / "fresh-wal")
        recovered.attach_wal(fresh_wal)
        recovered.add_token("brandneww0rd", source="post-recovery")
        assert fresh_wal.last_seq > snapshot_seq
        second = PerturbationDictionary(config=CONFIG)
        second.recover(tmp_path, wal_dir=tmp_path / "fresh-wal")
        assert "brandneww0rd" in second.token_counts()

    def test_side_export_save_never_touches_configured_wal(self, tmp_path):
        """A WAL-less full save into an unrelated directory must not
        sideline the production journal named by config.wal_dir."""
        config = CONFIG.with_overrides(
            snapshot_dir=str(tmp_path / "db"), wal_dir=str(tmp_path / "srvwal")
        )
        dictionary = PerturbationDictionary(config=config)
        dictionary.attach_wal(ChangeLog(tmp_path / "srvwal"))
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.detach_wal()  # the exporting process has no WAL
        dictionary.save_snapshot(tmp_path / "export" / SNAPSHOT_FILE_NAME)
        assert ChangeLog.scan(tmp_path / "srvwal").records > 0  # untouched

    def test_walless_full_save_supersedes_stale_journal(self, tmp_path):
        """A full chain save by a WAL-less process (the CLI's JSONL-fallback
        flow) must not leave old journal segments that the next recovery
        would replay on top of the new base."""
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        assert ChangeLog.scan(wal_directory_for(tmp_path)).records > 0
        reference = dictionary.token_counts()

        rebuilt = PerturbationDictionary(config=CONFIG)  # no WAL attached
        rebuilt.add_corpus(CORPUS, source="test")
        rebuilt.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        assert ChangeLog.scan(wal_directory_for(tmp_path)).records == 0
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert report.replayed_records == 0
        assert recovered.token_counts() == reference  # not double-applied

    def test_in_place_recovery_reassigns_original_ids(self, tmp_path):
        """recover() on a dictionary whose id counter already advanced must
        still hand replayed inserts the ids the crashed process assigned —
        str(_id) order is bucket order is ranking order."""
        victim = self._ingest_with_midpoint_save(tmp_path)
        live = PerturbationDictionary(config=CONFIG)
        for index in range(7):  # advance the auto-id counter well past 2
            live.add_token(f"prior{index}word", source="old-life")
        live.recover(tmp_path)
        assert {d["token"]: d["_id"] for d in live.documents()} == {
            d["token"]: d["_id"] for d in victim.documents()
        }
        _assert_equivalent(victim, live)

    def test_recovery_report_surfaces_in_stats(self, tmp_path):
        self._ingest_with_midpoint_save(tmp_path)
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert recovered.last_recovery is report
        assert report.to_dict()["replayed_records"] == report.replayed_records

    @settings(max_examples=15, deadline=None)
    @given(
        tokens=st.lists(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz013@",
                min_size=1,
                max_size=10,
            ),
            min_size=1,
            max_size=30,
        ),
        cut=st.integers(min_value=0, max_value=30),
    )
    def test_random_ingest_with_midpoint_snapshot_recovers(
        self, tmp_path_factory, tokens, cut
    ):
        """Property: snapshot at any point + WAL replay == uninterrupted run."""
        tmp = tmp_path_factory.mktemp("crash")
        cut = min(cut, len(tokens))
        victim = _journaled_dictionary(tmp)
        for token in tokens[:cut]:
            victim.add_token(token, source="prop")
        victim.save_snapshot(tmp / SNAPSHOT_FILE_NAME)
        for token in tokens[cut:]:
            victim.add_token(token, source="prop")
        recovered = PerturbationDictionary(config=CONFIG)
        recovered.recover(tmp)
        assert victim.token_counts() == recovered.token_counts()
        assert victim.content_fingerprint() == recovered.content_fingerprint()


class TestMaintenanceScheduler:
    def _scheduler(self, tmp_path, dictionary, **policy_kwargs):
        clock = [0.0]
        policy = MaintenancePolicy(**{"autosave_interval": 60.0, **policy_kwargs})
        scheduler = MaintenanceScheduler(
            dictionary,
            snapshot_dir=tmp_path,
            policy=policy,
            clock=lambda: clock[0],
        )
        return scheduler, clock

    def test_default_policy_enables_autosave(self, tmp_path):
        """An unset config interval must mean 'scheduler default', never a
        scheduler whose every tick is a silent no-op."""
        dictionary = PerturbationDictionary(config=CONFIG)
        scheduler = MaintenanceScheduler(dictionary, snapshot_dir=tmp_path)
        assert scheduler.policy.autosave_interval is not None
        explicit = MaintenanceScheduler(
            PerturbationDictionary(config=CONFIG),
            snapshot_dir=tmp_path / "other",
            policy=MaintenancePolicy(autosave_interval=None),
        )
        assert explicit.policy.autosave_interval is None

    def test_recover_on_live_system_reuses_attached_wal(self, tmp_path):
        """recover() over a running system must not orphan the scheduler's
        log reference — its truncations would unlink the live segments."""
        dictionary = PerturbationDictionary(config=CONFIG)
        scheduler, _ = self._scheduler(tmp_path, dictionary)
        dictionary.add_corpus(CORPUS, source="test")
        scheduler.save(incremental=False)
        dictionary.recover(tmp_path)
        assert dictionary.wal is scheduler.wal
        dictionary.add_text(LATER[0], source="later")
        scheduler.save(incremental=False)  # truncates the one live log
        dictionary.add_text(LATER[1], source="later2")  # journaled only
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert report.replayed_records > 0
        assert recovered.token_counts() == dictionary.token_counts()

    def test_wal_append_failure_rejects_the_whole_write(self, tmp_path):
        """A write whose journaling fails must not be half-applied (served
        in memory yet unreplayable)."""
        from repro.errors import WalError

        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_token("vacc1ne", source="a")
        version_before = dictionary.version
        dictionary.wal.close()  # stand-in for disk-full / EIO
        with pytest.raises(WalError):
            dictionary.add_token("newt0ken", source="a")
        assert "newt0ken" not in dictionary.token_counts()
        assert dictionary.version == version_before
        assert dictionary.dirty_state()["dirty_tokens"] == 1  # just vacc1ne

    def test_attaches_wal_to_dictionary(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        scheduler, _ = self._scheduler(tmp_path, dictionary)
        assert dictionary.wal is scheduler.wal
        dictionary.add_token("vacc1ne", source="t")
        assert scheduler.wal.last_seq == 1

    def test_tick_saves_only_when_due(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        scheduler, clock = self._scheduler(tmp_path, dictionary)
        assert scheduler.tick() is None
        clock[0] = 61.0
        report = scheduler.tick()
        assert report is not None and not report.incremental  # first save: full
        dictionary.add_text(LATER[0], source="later")
        clock[0] = 122.0
        second = scheduler.tick()
        assert second is not None and second.incremental
        status = scheduler.status()
        assert status["autosaves"] == 2
        assert status["incremental_saves"] == 1 and status["full_saves"] == 1

    def test_compaction_after_chain_limit(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        scheduler, _ = self._scheduler(tmp_path, dictionary, compact_every=2)
        scheduler.save()  # full (no chain yet)
        for index, text in enumerate(LATER):
            dictionary.add_text(text, source="later")
            scheduler.save()  # deltas 1, 2
        dictionary.add_text("one more perturbed amaz0n post", source="later")
        report = scheduler.save()  # chain length hit the limit -> fold
        assert not report.incremental
        assert list_delta_paths(tmp_path) == []
        assert scheduler.status()["compactions"] == 1

    def test_full_save_truncates_wal(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        scheduler, _ = self._scheduler(tmp_path, dictionary)
        dictionary.add_corpus(CORPUS, source="test")
        assert scheduler.wal.stats().records > 0
        scheduler.save(incremental=False)
        assert scheduler.wal.stats().records == 0
        # Nothing to replay: recovery is pure hydration.
        recovered = PerturbationDictionary(config=CONFIG)
        report = recovered.recover(tmp_path)
        assert report.loaded and report.replayed_records == 0
        _assert_equivalent(dictionary, recovered)

    def test_delta_save_keeps_wal_for_degraded_recovery(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        scheduler, _ = self._scheduler(tmp_path, dictionary)
        scheduler.save(incremental=False)
        dictionary.add_text(LATER[0], source="later")
        scheduler.save()  # delta — must NOT truncate
        assert scheduler.wal.stats().records > 0

    def test_run_now_tasks_and_unknown_task(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        dictionary.add_corpus(CORPUS, source="test")
        scheduler, _ = self._scheduler(tmp_path, dictionary)
        outcome = scheduler.run_now("full_save")
        assert outcome["report"]["incremental"] is False
        from repro.errors import CrypTextError

        with pytest.raises(CrypTextError):
            scheduler.run_now("explode")

    def test_background_thread_starts_and_stops(self, tmp_path):
        dictionary = PerturbationDictionary(config=CONFIG)
        scheduler, _ = self._scheduler(tmp_path, dictionary)
        scheduler.start(poll_interval=0.05)
        assert scheduler.running
        scheduler.stop()
        assert not scheduler.running


class TestCrawlerAutoSave:
    def test_crawler_ticks_scheduler_each_round(self, tmp_path):
        from repro.datasets import build_social_corpus
        from repro.social import SocialPlatform
        from repro.social.crawler import StreamCrawler

        posts = build_social_corpus(num_posts=60, seed=7)
        platform = SocialPlatform("twitter")
        platform.ingest_posts(posts)
        dictionary = PerturbationDictionary(config=CONFIG)
        clock = [0.0]
        scheduler = MaintenanceScheduler(
            dictionary,
            snapshot_dir=tmp_path,
            policy=MaintenancePolicy(autosave_interval=5.0),
            clock=lambda: clock[0],
        )
        crawler = StreamCrawler(
            platform, dictionary, batch_size=20, scheduler=scheduler
        )
        crawler.crawl_once()
        assert not (tmp_path / SNAPSHOT_FILE_NAME).exists()  # not due yet
        clock[0] = 6.0
        crawler.crawl_all()
        assert (tmp_path / SNAPSHOT_FILE_NAME).exists()
        assert scheduler.status()["autosaves"] >= 1
        # Everything the crawler acknowledged survives a crash right now.
        recovered = PerturbationDictionary(config=CONFIG)
        recovered.recover(tmp_path)
        assert recovered.token_counts() == dictionary.token_counts()

    def test_scheduler_must_wrap_same_dictionary(self, tmp_path):
        from repro.errors import CrawlerError
        from repro.social import SocialPlatform
        from repro.social.crawler import StreamCrawler

        other = PerturbationDictionary(config=CONFIG)
        scheduler = MaintenanceScheduler(other, snapshot_dir=tmp_path)
        with pytest.raises(CrawlerError):
            StreamCrawler(
                SocialPlatform("twitter"),
                PerturbationDictionary(config=CONFIG),
                scheduler=scheduler,
            )


class TestServiceSurface:
    @pytest.fixture()
    def service_and_token(self, tmp_path):
        from repro.api.service import CrypTextService

        system = CrypText.from_corpus(CORPUS, config=CONFIG, train_scorer=False)
        scheduler = system.make_maintenance_scheduler(
            snapshot_dir=tmp_path,
            policy=MaintenancePolicy(autosave_interval=None),
        )
        service = CrypTextService(system, scheduler=scheduler)
        token = service.issue_token(
            "ops", scopes={"lookup", "stats", "admin"}
        )
        return service, token.token

    def test_stats_exposes_structured_sections(self, service_and_token):
        service, token = service_and_token
        service.cryptext.look_up("vaccine")
        response = service.stats(token)
        assert response.ok
        compiled = response.body["compiled_cache"]
        for field in ("hits", "misses", "evictions", "invalidations", "hit_rate",
                      "size", "capacity", "families"):
            assert field in compiled
        assert response.body["recovery"] is None
        assert response.body["maintenance"]["policy"]["incremental"] is True

    def test_stats_reports_recovery_after_recover(self, tmp_path):
        from repro.api.service import CrypTextService

        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        dictionary.add_text(LATER[0], source="later")

        system = CrypText.empty(config=CONFIG, seed_lexicon=False)
        system.recover(tmp_path)
        service = CrypTextService(system)
        token = service.issue_token("ops", scopes={"stats"}).token
        body = service.stats(token).body
        assert body["recovery"]["loaded"] is True
        assert body["recovery"]["replayed_records"] > 0

    def test_maintenance_status_and_trigger(self, service_and_token):
        service, token = service_and_token
        status = service.maintenance_status(token)
        assert status.ok and "wal" in status.body["maintenance"]
        outcome = service.maintenance_trigger(token, task="full_save")
        assert outcome.ok
        assert outcome.body["maintenance"]["report"]["incremental"] is False
        bad = service.maintenance_trigger(token, task="explode")
        assert bad.status == 400

    def test_maintenance_requires_admin_scope(self, service_and_token):
        service, _ = service_and_token
        token = service.issue_token("reader", scopes={"stats"}).token
        assert service.maintenance_status(token).status == 403
        assert service.maintenance_trigger(token).status == 403

    def test_maintenance_without_scheduler_conflicts(self):
        from repro.api.service import CrypTextService

        system = CrypText.from_corpus(CORPUS, config=CONFIG, train_scorer=False)
        service = CrypTextService(system)
        token = service.issue_token("ops", scopes={"admin"}).token
        assert service.maintenance_status(token).status == 409
        assert service.maintenance_trigger(token).status == 409

    def test_snapshot_load_route_answers_409_for_an_invalid_utf8_byte(
        self, service_and_token, tmp_path
    ):
        import asyncio

        from repro.api.async_service import AsyncCrypTextService

        service, token = service_and_token
        path = tmp_path / "side" / SNAPSHOT_FILE_NAME
        assert service.snapshot_save(token, path=str(path)).ok
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        before = service.cryptext.dictionary.content_fingerprint()
        front = AsyncCrypTextService(service, reader_threads=1)

        async def scenario():
            try:
                return await front.dispatch(
                    "PUT", "/v1/admin/snapshot", token, {"path": str(path)}
                )
            finally:
                await front.stop()

        response = asyncio.run(scenario())
        assert response.status == 409, response.body
        assert response.body["snapshot"]["loaded"] is False
        assert service.cryptext.dictionary.content_fingerprint() == before

    def test_incremental_snapshot_save_endpoint(self, service_and_token, tmp_path):
        service, token = service_and_token
        service.maintenance_trigger(token, task="full_save")
        service.cryptext.learn_from(["brand new perturbed vacc1nes appear"])
        response = service.snapshot_save(
            token, path=str(tmp_path / SNAPSHOT_FILE_NAME), incremental=True
        )
        assert response.ok
        assert response.body["snapshot"]["incremental"] is True


class TestCli:
    def _build_db(self, tmp_path):
        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        dictionary.add_text(LATER[0], source="later")
        return dictionary

    def test_wal_info(self, tmp_path, capsys):
        from repro.cli import main

        self._build_db(tmp_path)
        assert main(["--json", "wal", "info", "--db", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["wal"]["records"] > 0
        assert payload["chain"]["replay_pending"] > 0

    def test_wal_replay(self, tmp_path, capsys):
        from repro.cli import main

        victim = self._build_db(tmp_path)
        assert main(["--json", "wal", "replay", "--db", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovery"]["loaded"] is True
        assert payload["stats"]["total_tokens"] == len(victim.token_counts())

    def test_wal_compact(self, tmp_path, capsys):
        from repro.cli import main

        victim = self._build_db(tmp_path)
        assert main(["--json", "wal", "compact", "--db", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["snapshot"]["incremental"] is False
        # After compaction the snapshot alone carries everything.
        hydrated = PerturbationDictionary(config=CONFIG)
        assert hydrated.load_snapshot(tmp_path / SNAPSHOT_FILE_NAME).loaded
        assert hydrated.token_counts() == victim.token_counts()
        # ...and the WAL was truncated.
        assert ChangeLog.scan(wal_directory_for(tmp_path)).records == 0

    def test_wal_requires_location(self, capsys):
        from repro.cli import main

        assert main(["wal", "info"]) == 2
        assert "wal requires" in capsys.readouterr().err

    def test_db_commands_see_delta_chain_and_wal_tail(self, tmp_path, capsys):
        """One-shot CLI commands must serve the full durable state, not a
        stale base snapshot."""
        from repro.cli import main

        dictionary = _journaled_dictionary(tmp_path)
        dictionary.add_corpus(CORPUS, source="test")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        dictionary.add_token("vaxc1nne", source="delta-word")
        dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME, incremental=True)
        dictionary.add_token("vaxcc1ne", source="wal-word")  # journaled only
        assert main(["--json", "stats", "--db", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["total_tokens"] == len(dictionary.token_counts())

    def test_snapshot_save_incremental_flag_parses(self, tmp_path, capsys):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["snapshot", "save", "--file", str(tmp_path / "s.json"), "--incremental"]
        )
        assert args.incremental is True
