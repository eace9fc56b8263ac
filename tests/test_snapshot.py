"""Tests for the warm-start snapshot subsystem.

The contract under test: a snapshot-hydrated system is *observably
identical* to a freshly compiled one (Look Up and Normalization results,
byte for byte), and every failure mode — corruption, format-version drift,
stale fingerprints — degrades to recompilation instead of wrong answers or
a crash.
"""

from __future__ import annotations

import gc
import json
import string
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrypText, CrypTextConfig
from repro.core.dictionary import PerturbationDictionary
from repro.core.lookup import LookupEngine
from repro.errors import DictionaryError, SnapshotError
from repro.storage import (
    SNAPSHOT_FILE_NAME,
    SNAPSHOT_FORMAT_VERSION,
    read_snapshot,
    write_envelope,
    write_snapshot,
)

CORPUS = [
    "the demokrats hate the vacc1ne",
    "the dirrty republicans lie",
    "teh vaccine works",
    "mus-lim families moved into the neighborhood",
    "the democRATs and the repubLIEcans argue online",
]

QUERIES = ("vaccine", "democrats", "republicans", "the", "muslim", "zzzz")
TEXTS = (
    "the demokrats push the vacc1ne",
    "teh dirrty republicans",
    "nothing perturbed here",
)


def build_dictionary(config: CrypTextConfig | None = None) -> PerturbationDictionary:
    config = config if config is not None else CrypTextConfig()
    dictionary = PerturbationDictionary(config=config)
    dictionary.add_corpus(CORPUS, source="test")
    dictionary.seed_lexicon()
    return dictionary


@pytest.fixture()
def snapshot_path(tmp_path) -> Path:
    return tmp_path / "dictionary.snapshot.json"


class TestRoundTrip:
    def test_save_then_load_is_lookup_identical(self, snapshot_path):
        original = build_dictionary()
        report = original.save_snapshot(snapshot_path)
        assert report.documents == len(original)
        assert report.buckets > report.families > 0

        hydrated = PerturbationDictionary(config=CrypTextConfig())
        load = hydrated.load_snapshot(snapshot_path)
        assert load.loaded and load.hydrated_tries and load.reason is None
        assert len(hydrated) == len(original)
        assert hydrated.content_fingerprint() == original.content_fingerprint()

        cold_engine = LookupEngine(original)
        warm_engine = LookupEngine(hydrated)
        for query in QUERIES:
            for distance in (1, 3):
                assert cold_engine.look_up(
                    query, max_edit_distance=distance
                ) == warm_engine.look_up(query, max_edit_distance=distance)

    def test_hydrated_tries_serve_without_recompiling(self, snapshot_path):
        original = build_dictionary()
        original.save_snapshot(snapshot_path)
        hydrated = PerturbationDictionary(config=CrypTextConfig())
        hydrated.load_snapshot(snapshot_path)
        LookupEngine(hydrated).look_up("vaccine")
        stats = hydrated.compiled_cache_stats()
        # The pre-seeded LRU serves the query; nothing recompiles.
        assert stats["hits"] >= 1
        assert stats["misses"] == 0
        assert stats["families"]["families_adopted"] > 0

    def test_full_system_cold_vs_warm_normalization(self, tmp_path):
        cold = CrypText.from_corpus(CORPUS)
        path = tmp_path / "snap.json"
        cold.save_snapshot(path)
        warm = CrypText.empty(seed_lexicon=False)
        report = warm.load_snapshot(path)
        assert report.loaded
        # The warm system has no trained scorer — compare candidate-level
        # outputs through dictionaries with identical (scorer-free) setups.
        cold_plain = CrypText(dictionary=cold.dictionary, config=cold.config)
        for text in TEXTS:
            assert (
                cold_plain.normalize(text).to_dict() == warm.normalize(text).to_dict()
            )

    def test_save_requires_a_path_or_configured_dir(self):
        dictionary = build_dictionary()
        with pytest.raises(DictionaryError):
            dictionary.save_snapshot()

    def test_snapshot_dir_config_provides_default_path(self, tmp_path):
        config = CrypTextConfig(snapshot_dir=str(tmp_path))
        dictionary = build_dictionary(config)
        report = dictionary.save_snapshot()
        assert Path(report.path).parent == tmp_path
        fresh = PerturbationDictionary(config=config)
        assert fresh.load_snapshot().loaded


class TestRoundTripProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.text(alphabet=string.ascii_lowercase + "013@-", min_size=1, max_size=10),
            min_size=1,
            max_size=25,
        ),
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    )
    def test_random_corpora_round_trip(self, tmp_path_factory, tokens, query):
        path = tmp_path_factory.mktemp("snap") / "s.json"
        config = CrypTextConfig(cache_enabled=False)
        original = PerturbationDictionary(config=config)
        for token in tokens:
            original.add_token(token, source="prop")
        original.save_snapshot(path)
        hydrated = PerturbationDictionary(config=config)
        assert hydrated.load_snapshot(path).loaded
        cold_engine = LookupEngine(original, config=config)
        warm_engine = LookupEngine(hydrated, config=config)
        probes = [query, *tokens[:5]]
        for probe in probes:
            for distance in (0, 2):
                assert cold_engine.look_up(
                    probe, max_edit_distance=distance
                ) == warm_engine.look_up(probe, max_edit_distance=distance)


class TestCorruptionAndVersioning:
    def test_missing_file_falls_back(self, snapshot_path):
        dictionary = build_dictionary()
        report = dictionary.load_snapshot(snapshot_path)
        assert not report.loaded and not report.hydrated_tries
        assert "no such file" in report.reason
        # Dictionary untouched and still serving.
        assert len(dictionary) > 0
        with pytest.raises(SnapshotError):
            dictionary.load_snapshot(snapshot_path, strict=True)

    def test_truncated_file_falls_back(self, snapshot_path):
        dictionary = build_dictionary()
        dictionary.save_snapshot(snapshot_path)
        text = snapshot_path.read_text(encoding="utf-8")
        snapshot_path.write_text(text[: len(text) // 2], encoding="utf-8")
        fresh = PerturbationDictionary(config=CrypTextConfig())
        report = fresh.load_snapshot(snapshot_path)
        assert not report.loaded
        assert len(fresh) == 0

    def test_flipped_payload_fails_checksum(self, snapshot_path):
        dictionary = build_dictionary()
        dictionary.save_snapshot(snapshot_path)
        header, body = snapshot_path.read_text(encoding="utf-8").split("\n", 1)
        tampered = json.loads(body)
        tampered["dictionary_version"] += 1
        snapshot_path.write_text(
            header + "\n" + json.dumps(tampered), encoding="utf-8"
        )
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(snapshot_path)
        report = PerturbationDictionary(config=CrypTextConfig()).load_snapshot(
            snapshot_path
        )
        assert not report.loaded and "checksum" in report.reason

    def test_invalid_utf8_byte_falls_back(self, snapshot_path):
        dictionary = build_dictionary()
        dictionary.save_snapshot(snapshot_path)
        data = bytearray(snapshot_path.read_bytes())
        data[len(data) // 2] = 0xFF
        snapshot_path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(snapshot_path)
        fresh = PerturbationDictionary(config=CrypTextConfig())
        report = fresh.load_snapshot(snapshot_path)
        assert not report.loaded and "checksum" in report.reason
        assert len(fresh) == 0
        with pytest.raises(SnapshotError):
            fresh.load_snapshot(snapshot_path, strict=True)

    def test_body_that_is_not_utf8_is_refused_despite_its_checksum(
        self, snapshot_path
    ):
        dictionary = build_dictionary()
        dictionary.save_snapshot(snapshot_path)
        header, body = snapshot_path.read_bytes().split(b"\n", 1)
        body = body.rstrip(b"\n").replace(b"vacc1ne", b"vacc\xffne", 1)
        checksum = format(zlib.crc32(body) & 0xFFFFFFFF, "08x")
        header = json.dumps(
            {"checksum": checksum, "format_version": SNAPSHOT_FORMAT_VERSION},
            sort_keys=True,
        ).encode("utf-8")
        snapshot_path.write_bytes(header + b"\n" + body + b"\n")
        with pytest.raises(SnapshotError, match="invalid snapshot body"):
            read_snapshot(snapshot_path)
        report = PerturbationDictionary(config=CrypTextConfig()).load_snapshot(
            snapshot_path
        )
        assert not report.loaded

    def test_foreign_format_version_falls_back(self, snapshot_path):
        dictionary = build_dictionary()
        dictionary.save_snapshot(snapshot_path)
        header, body = snapshot_path.read_text(encoding="utf-8").split("\n", 1)
        envelope = json.loads(header)
        envelope["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        snapshot_path.write_text(
            json.dumps(envelope) + "\n" + body, encoding="utf-8"
        )
        with pytest.raises(SnapshotError, match="format version"):
            read_snapshot(snapshot_path)
        report = PerturbationDictionary(config=CrypTextConfig()).load_snapshot(
            snapshot_path
        )
        assert not report.loaded and "format version" in report.reason

    def test_structurally_foreign_family_degrades_to_documents_only(
        self, snapshot_path
    ):
        dictionary = build_dictionary()
        dictionary.save_snapshot(snapshot_path)
        snapshot = read_snapshot(snapshot_path)
        broken = snapshot.__class__(
            dictionary_version=snapshot.dictionary_version,
            fingerprint=snapshot.fingerprint,
            config=snapshot.config,
            documents=snapshot.documents,
            families=({"tokens": "not-a-list", "tries": 7},) + snapshot.families[1:],
            buckets=snapshot.buckets,
        )
        write_snapshot(snapshot_path, broken)
        fresh = PerturbationDictionary(config=CrypTextConfig())
        report = fresh.load_snapshot(snapshot_path)
        # Documents landed; tries fall back to lazy recompilation.
        assert report.loaded and not report.hydrated_tries
        assert len(fresh) == len(dictionary)
        assert LookupEngine(fresh).look_up("vaccine") == LookupEngine(
            dictionary
        ).look_up("vaccine")

    def test_corrupt_trie_rows_fall_back_to_compilation_per_bucket(
        self, snapshot_path
    ):
        dictionary = build_dictionary()
        dictionary.save_snapshot(snapshot_path)
        snapshot = read_snapshot(snapshot_path)
        # Corrupt every family's serialized rows but keep the structure
        # (tokens + tries mapping) intact: hydration is lazy, so the damage
        # surfaces at query time — where it must degrade to a fresh compile,
        # never to an error or a wrong match.
        vandalized = tuple(
            {"tokens": family["tokens"], "tries": {"raw": [["bad row"]]}}
            for family in snapshot.families
        )
        broken = snapshot.__class__(
            dictionary_version=snapshot.dictionary_version,
            fingerprint=snapshot.fingerprint,
            config=snapshot.config,
            documents=snapshot.documents,
            families=vandalized,
            buckets=snapshot.buckets,
        )
        write_snapshot(snapshot_path, broken)
        fresh = PerturbationDictionary(config=CrypTextConfig())
        report = fresh.load_snapshot(snapshot_path)
        assert report.loaded and report.hydrated_tries
        for query in QUERIES:
            assert LookupEngine(fresh).look_up(query) == LookupEngine(
                dictionary
            ).look_up(query)


class TestShardedWarmStart:
    def test_batch_engine_hydrates_without_recompiling(self, tmp_path):
        system = CrypText.from_corpus(CORPUS)
        path = tmp_path / "snap.json"
        system.save_snapshot(path)

        fresh = CrypText.empty(seed_lexicon=False)
        engine = fresh.batch  # built before the load: the load must reach it
        report = fresh.load_snapshot(path)
        assert report.loaded and report.hydrated_tries and report.buckets > 0
        queries = ["vaccine", "democrats", "republicans", "vaccine"]
        assert system.look_up_batch(queries) == engine.look_up_batch(queries)
        # The batch path reads the compiled buckets the load pre-seeded.
        stats = fresh.dictionary.compiled_cache_stats()
        assert stats["misses"] == 0 and stats["hits"] > 0

    def test_a_write_landing_mid_load_is_not_shadowed_by_the_pre_seed(
        self, tmp_path, monkeypatch
    ):
        system = CrypText.from_corpus(CORPUS)
        path = tmp_path / "snap.json"
        system.save_snapshot(path)
        fresh = CrypText.empty(seed_lexicon=False)
        dictionary = fresh.dictionary
        adopt = dictionary.adopt_snapshot_families

        def adopt_then_write(snapshot):
            # A concurrent writer lands after the documents are installed
            # but before the compiled LRU is pre-seeded from the snapshot.
            families = adopt(snapshot)
            dictionary.add_token("vacine")
            return families

        monkeypatch.setattr(dictionary, "adopt_snapshot_families", adopt_then_write)
        assert fresh.load_snapshot(path).loaded
        assert "vacine" in fresh.look_up("vaccine").tokens

    def test_writes_after_hydration_invalidate_warm_buckets(self, tmp_path):
        system = CrypText.from_corpus(CORPUS)
        path = tmp_path / "snap.json"
        system.save_snapshot(path)
        fresh = CrypText.empty(seed_lexicon=False)
        assert fresh.load_snapshot(path).loaded
        before = fresh.look_up("vaccine")
        fresh.learn_from(["a vacine variant spotted"])
        after = fresh.look_up("vaccine")
        assert "vacine" in after.tokens
        assert before != after


class TestShardedSnapshotV2:
    """The mmap-friendly sharded layout: round trips, fallbacks, laziness."""

    def test_shard_of_is_stable_and_in_range(self):
        from repro.storage.snapshot import shard_of

        keys = ["DE52632", "RE1425", "AM250", "VA250", "TH000"]
        for key in keys:
            assert 0 <= shard_of(key, 4) < 4
            assert shard_of(key, 4) == shard_of(key, 4)
        assert all(shard_of(key, 1) == 0 for key in keys)

    def test_direct_write_read_open_round_trip(self, tmp_path):
        from repro.storage.snapshot import (
            open_sharded_snapshot,
            read_sharded_snapshot,
            write_sharded_snapshot,
        )

        original = build_dictionary()
        snapshot = original.build_snapshot()
        layout = tmp_path / "dictionary.snapshot.d"
        write_sharded_snapshot(layout, snapshot, 3)
        eager = read_sharded_snapshot(layout)
        assert eager.body() == snapshot.body()
        mapped = open_sharded_snapshot(layout)
        assert mapped.snapshot.fingerprint == snapshot.fingerprint
        assert mapped.mapped_bytes > 0
        # Lazy families materialize to the exact eager payloads.
        assert [dict(f) for f in mapped.snapshot.families] == [
            dict(f) for f in eager.families
        ]

    def test_config_shards_switches_the_save_format(self, snapshot_path):
        original = build_dictionary(CrypTextConfig(snapshot_shards=2))
        original.save_snapshot(snapshot_path)
        layout = snapshot_path.with_name("dictionary.snapshot.d")
        assert (layout / "manifest.json").is_file()
        assert sorted(p.name for p in layout.glob("shard-*.bin")) == [
            "shard-00.bin",
            "shard-01.bin",
        ]
        # The stale v1 location is cleared; loading by the conventional
        # path resolves the v2 layout transparently.
        assert not snapshot_path.exists()
        hydrated = PerturbationDictionary(config=CrypTextConfig())
        load = hydrated.load_snapshot(snapshot_path)
        assert load.loaded and load.hydrated_tries
        assert hydrated.content_fingerprint() == original.content_fingerprint()

    def test_v1_save_removes_a_stale_v2_layout(self, snapshot_path):
        dictionary = build_dictionary()
        dictionary.save_snapshot(snapshot_path, shards=2)
        layout = snapshot_path.with_name("dictionary.snapshot.d")
        assert (layout / "manifest.json").is_file()
        dictionary.save_snapshot(snapshot_path)  # config default: v1
        assert snapshot_path.is_file()
        assert not layout.exists()

    def test_lookup_identical_across_formats(self, tmp_path):
        original = build_dictionary()
        v1_path = tmp_path / "v1" / "dictionary.snapshot.json"
        v2_path = tmp_path / "v2" / "dictionary.snapshot.json"
        original.save_snapshot(v1_path)
        original.save_snapshot(v2_path, shards=3)
        from_v1 = PerturbationDictionary(config=CrypTextConfig())
        from_v2 = PerturbationDictionary(config=CrypTextConfig())
        assert from_v1.load_snapshot(v1_path).loaded
        assert from_v2.load_snapshot(v2_path).loaded
        engine_v1 = LookupEngine(from_v1)
        engine_v2 = LookupEngine(from_v2)
        for query in QUERIES:
            for distance in (1, 3):
                assert engine_v1.look_up(
                    query, max_edit_distance=distance
                ) == engine_v2.look_up(query, max_edit_distance=distance)

    def test_corrupt_v2_falls_back_to_v1_file_beside_it(self, snapshot_path):
        from repro.storage.snapshot import resolve_snapshot, write_sharded_snapshot

        dictionary = build_dictionary()
        snapshot = dictionary.build_snapshot()
        write_snapshot(snapshot_path, snapshot)
        layout = snapshot_path.with_name("dictionary.snapshot.d")
        write_sharded_snapshot(layout, snapshot, 2)
        # Truncate one shard: v2 resolution fails its structural check, and
        # the intact v1 file besides it answers instead.
        shard = layout / "shard-00.bin"
        shard.write_bytes(shard.read_bytes()[:10])
        resolved = resolve_snapshot(snapshot_path, strict=True)
        assert resolved.fingerprint == snapshot.fingerprint

    def test_corrupt_record_crc_is_detected(self, tmp_path):
        from repro.storage.snapshot import (
            read_sharded_snapshot,
            write_sharded_snapshot,
        )

        snapshot = build_dictionary().build_snapshot()
        layout = tmp_path / "dictionary.snapshot.d"
        write_sharded_snapshot(layout, snapshot, 1)
        shard = layout / "shard-00.bin"
        blob = bytearray(shard.read_bytes())
        blob[-3] ^= 0xFF  # flip a byte inside the last record's JSON
        shard.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            read_sharded_snapshot(layout)

    def test_graceful_load_degrades_on_v2_only_corruption(self, snapshot_path):
        dictionary = build_dictionary()
        dictionary.save_snapshot(snapshot_path, shards=2)
        layout = snapshot_path.with_name("dictionary.snapshot.d")
        (layout / "manifest.json").write_text("garbage", encoding="utf-8")
        fresh = PerturbationDictionary(config=CrypTextConfig())
        report = fresh.load_snapshot(snapshot_path)  # strict=False default
        assert not report.loaded and report.reason

    def test_mapped_families_stay_lazy_until_queried(self, tmp_path):
        from repro.storage.snapshot import (
            LazyFamilyPayload,
            open_sharded_snapshot,
            write_sharded_snapshot,
        )

        snapshot = build_dictionary().build_snapshot()
        layout = tmp_path / "dictionary.snapshot.d"
        write_sharded_snapshot(layout, snapshot, 2)
        mapped = open_sharded_snapshot(layout)
        payloads = list(mapped.snapshot.families)
        assert payloads and all(
            isinstance(payload, LazyFamilyPayload) for payload in payloads
        )
        # Opening parsed only the shard headers: no family record yet.
        assert all(payload._record is None for payload in payloads)
        _ = payloads[0]["tries"]
        assert payloads[0]._record is not None
        assert sum(1 for payload in payloads if payload._record is not None) == 1

    def test_shrinking_the_shard_count_removes_stale_files(self, tmp_path):
        from repro.storage.snapshot import (
            read_sharded_snapshot,
            write_sharded_snapshot,
        )

        snapshot = build_dictionary().build_snapshot()
        layout = tmp_path / "dictionary.snapshot.d"
        write_sharded_snapshot(layout, snapshot, 4)
        assert len(list(layout.glob("shard-*.bin"))) == 4
        write_sharded_snapshot(layout, snapshot, 2)
        assert len(list(layout.glob("shard-*.bin"))) == 2
        assert read_sharded_snapshot(layout).body() == snapshot.body()

    def test_delta_chain_folds_into_a_sharded_base(self, tmp_path):
        from repro.storage.snapshot import sharded_manifest_info
        from repro.wal.delta import compact_chain, list_delta_paths

        config = CrypTextConfig(snapshot_shards=2, snapshot_dir=str(tmp_path))
        dictionary = build_dictionary(config)
        dictionary.save_snapshot()
        dictionary.add_token("freshtoken", source="test")
        report = dictionary.save_snapshot(incremental=True)
        assert report.incremental and report.delta_index == 1
        assert len(list_delta_paths(tmp_path)) == 1
        chain = compact_chain(tmp_path)
        assert chain.deltas_applied == 1
        assert list_delta_paths(tmp_path) == []
        # Compaction preserved the sharded layout at its original width.
        layout = tmp_path / "dictionary.snapshot.d"
        assert sharded_manifest_info(layout)["shard_count"] == 2
        hydrated = PerturbationDictionary(config=CrypTextConfig())
        assert hydrated.load_snapshot(tmp_path / "dictionary.snapshot.json").loaded
        assert "freshtoken" in LookupEngine(hydrated).look_up("freshtoken").tokens


class TestCompiledCacheCounters:
    def test_dictionary_counters_track_hits_misses_and_invalidations(self):
        dictionary = build_dictionary()
        engine = LookupEngine(dictionary, config=CrypTextConfig(cache_enabled=False))
        engine.look_up("vaccine")
        engine.look_up("vaccine")
        stats = dictionary.compiled_cache_stats()
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        dictionary.add_token("vacine")
        assert dictionary.compiled_cache_stats()["invalidations"] >= 1

    def test_dictionary_stats_exports_compiled_cache(self):
        dictionary = build_dictionary()
        payload = dictionary.stats().to_dict()
        assert "compiled_cache" in payload
        for key in (
            "hits",
            "misses",
            "evictions",
            "invalidations",
            "families",
            "kernel",
            "kernels",
        ):
            assert key in payload["compiled_cache"]
        assert set(payload["compiled_cache"]["kernels"]) == {
            "myers",
            "banded",
            "symspell",
            "linear",
        }

    def test_kernel_hit_counters_attribute_compiled_and_linear_matches(self):
        dictionary = build_dictionary()
        compiled = LookupEngine(dictionary, config=CrypTextConfig(cache_enabled=False))
        compiled.look_up("vaccine")
        kernels = dictionary.compiled_cache_stats()["kernels"]
        assert sum(kernels.values()) >= 1
        assert kernels["linear"] == 0
        linear = LookupEngine(
            dictionary,
            config=CrypTextConfig(cache_enabled=False, compiled_buckets=False),
        )
        linear.look_up("vaccine")
        kernels = dictionary.compiled_cache_stats()["kernels"]
        assert kernels["linear"] >= 1

    def test_kernel_policy_forces_the_selected_kernel(self):
        for policy in ("myers", "banded"):
            dictionary = build_dictionary()
            engine = LookupEngine(
                dictionary,
                config=CrypTextConfig(cache_enabled=False, match_kernel=policy),
            )
            engine.look_up("vaccine")
            kernels = dictionary.compiled_cache_stats()["kernels"]
            assert kernels[policy] >= 1, policy
            others = {name: hits for name, hits in kernels.items() if name != policy}
            assert sum(others.values()) == 0, policy

    def test_shard_stats_and_engine_stats_export_compiled_counters(self):
        system = CrypText.from_corpus(CORPUS)
        system.look_up_batch(["vaccine", "democrats", "vaccine"])
        compiled = system.batch.stats()["compiled_buckets"]
        assert compiled == system.dictionary.compiled_cache_stats()
        # Two unique sound buckets after batch dedup, each compiled once.
        assert compiled["misses"] == 2
        # Three queries, two unique after batch dedup — each unique query
        # performs one counted match.
        assert sum(compiled["kernels"].values()) == 2

    def test_trie_families_shared_across_levels(self):
        dictionary = build_dictionary()
        # Compile the same token's bucket at every materialized level: the
        # singleton buckets (and any level-stable bucket) share one family.
        key_counts = 0
        for level in dictionary.phonetic_levels:
            for entry in dictionary.iter_entries():
                key = entry.key_at(level)
                if key is not None:
                    dictionary.compiled_bucket(key, phonetic_level=level)
                    key_counts += 1
        stats = dictionary.trie_families.stats()
        assert stats["families_created"] < stats["views"]
        assert stats["families_shared"] > 0


def _one_string_envelope(body, version=SNAPSHOT_FORMAT_VERSION) -> bytes:
    """The reference envelope: the whole body encoded as one string.

    How every save was encoded before saves streamed; a streamed save must
    write exactly these bytes.
    """
    body_text = json.dumps(
        body, ensure_ascii=False, sort_keys=True, separators=(",", ":")
    )
    checksum = format(zlib.crc32(body_text.encode("utf-8")) & 0xFFFFFFFF, "08x")
    header = json.dumps(
        {"checksum": checksum, "format_version": version}, sort_keys=True
    )
    return (header + "\n" + body_text + "\n").encode("utf-8")


def _save_chain_and_compare(dictionary, directory, later_texts, monkeypatch):
    """Full save, one delta per text and a compaction, each byte-compared
    with the one-string encoding of the same in-memory snapshot."""
    import repro.wal.delta as delta_module
    from repro.wal.delta import compact_chain, delta_path

    base = directory / SNAPSHOT_FILE_NAME
    dictionary.save_snapshot(base)
    reference = dictionary.build_snapshot()
    assert base.read_bytes() == _one_string_envelope(reference.body())

    written = []
    real_write_delta = delta_module.write_delta

    def capture(path, delta):
        result = real_write_delta(path, delta)
        written.append(replace(delta, families=tuple(delta.families)))
        return result

    monkeypatch.setattr(delta_module, "write_delta", capture)
    index = 0
    for text in later_texts:
        dictionary.learn_batch([text], source="later")
        report = dictionary.save_snapshot(base, incremental=True)
        if report.delta_index is None:
            continue  # nothing in the text was learnable
        index += 1
        assert report.delta_index == index
        delta = written[-1]
        assert delta_path(directory, index).read_bytes() == _one_string_envelope(
            delta.body()
        )
        # Each delta family is the family a full snapshot holds for the
        # same bucket.
        full = dictionary.build_snapshot()
        full_rows = {(level, key): row for level, key, row in full.buckets}
        for level, key, row in delta.buckets:
            assert delta.families[row] == full.families[full_rows[(level, key)]]
    monkeypatch.setattr(delta_module, "write_delta", real_write_delta)

    chain = compact_chain(directory)
    assert chain.deltas_applied == index
    assert base.read_bytes() == _one_string_envelope(chain.snapshot.body())


class TestStreamedSaves:
    """Saves stream one trie family at a time and write the same bytes."""

    json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.text(alphabet="ab\u00e9\u00df\u2028\"\\\n", max_size=4),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(alphabet="xyz\u00e9", max_size=2), children, max_size=3),
        max_leaves=8,
    )

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["buckets", "config", "documents", "kind", "wal_seq"]),
            json_values,
        ),
        st.lists(json_values, max_size=7),
    )
    def test_write_envelope_matches_the_one_string_encoder(
        self, tmp_path_factory, body, lazy_items
    ):
        from repro.storage import snapshot as snapshot_module

        path = tmp_path_factory.mktemp("envelope") / "body.json"
        streamed = dict(body)
        streamed["families"] = snapshot_module.LazyPayloads(lambda item: item, lazy_items)
        with pytest.MonkeyPatch.context() as patch:
            # Small chunks put array boundaries inside every list field.
            patch.setattr(snapshot_module, "_ARRAY_CHUNK", 2)
            write_envelope(path, streamed)
        assert path.read_bytes() == _one_string_envelope({**body, "families": lazy_items})

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.text(alphabet=string.ascii_letters + "013@-\u00e9\u00f8\u00df", min_size=2, max_size=9),
            min_size=2,
            max_size=30,
        ),
    )
    def test_random_dictionaries_stream_the_same_bytes(
        self, tmp_path_factory, tokens
    ):
        directory = tmp_path_factory.mktemp("chain")
        half = len(tokens) // 2
        dictionary = PerturbationDictionary(config=CrypTextConfig(cache_enabled=False))
        dictionary.learn_batch([" ".join(tokens[:half])], source="first")
        with pytest.MonkeyPatch.context() as patch:
            _save_chain_and_compare(
                dictionary,
                directory,
                [" ".join(tokens[half:]), " ".join(tokens[::3])],
                patch,
            )

    def test_golden_corpus_streams_the_same_bytes(self, tmp_path, monkeypatch):
        from tests.test_golden_regression import GOLDEN_BUILD_CORPUS, GOLDEN_INPUTS

        system = CrypText.from_corpus(GOLDEN_BUILD_CORPUS, train_scorer=False)
        # A warm compiled-bucket LRU keeps some families alive across the
        # save; their tries must serialize the same.
        for text in GOLDEN_INPUTS[:5]:
            system.look_up(text.split()[1])
        _save_chain_and_compare(
            system.dictionary, tmp_path, GOLDEN_INPUTS[5:8], monkeypatch
        )

    @pytest.mark.parametrize("failure", ["unencodable family", "injected OSError"])
    def test_failed_save_leaves_files_and_dirty_state(
        self, tmp_path, monkeypatch, failure
    ):
        from repro.resilience.faults import FAULTS

        dictionary = build_dictionary(CrypTextConfig(cache_enabled=False))
        base = tmp_path / SNAPSHOT_FILE_NAME
        dictionary.save_snapshot(base)
        before = base.read_bytes()
        dictionary.learn_batch(["fresh vacc1nes and demokrats tonight"], source="w")
        real_payload = PerturbationDictionary._family_payload
        calls = []

        def second_family_breaks(self, entries):
            calls.append(entries)
            payload = real_payload(self, entries)
            return {**payload, "bad": object()} if len(calls) == 2 else payload

        if failure == "unencodable family":
            monkeypatch.setattr(
                PerturbationDictionary, "_family_payload", second_family_breaks
            )
            expected = "not JSON-serializable"
        else:
            expected = "failed to write"
        try:
            for incremental in (True, False):
                calls.clear()
                if failure == "injected OSError":
                    FAULTS.arm("snapshot.write", fail=1)
                with pytest.raises(SnapshotError, match=expected):
                    dictionary.save_snapshot(base, incremental=incremental)
                assert base.read_bytes() == before
                assert sorted(path.name for path in tmp_path.iterdir()) == [
                    SNAPSHOT_FILE_NAME
                ]
        finally:
            FAULTS.reset()
        monkeypatch.undo()
        # The dirty sets survived both failures: the delta carries the write.
        report = dictionary.save_snapshot(base, incremental=True)
        assert report.delta_index == 1 and report.documents > 0
        recovered = PerturbationDictionary(config=CrypTextConfig(cache_enabled=False))
        assert recovered.recover(tmp_path).deltas_applied == 1
        assert recovered.token_counts() == dictionary.token_counts()

    def test_full_save_peak_memory_is_one_family_not_the_snapshot(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        from bench_cold_start import build_dictionary as build_bench_dictionary

        dictionary = build_bench_dictionary(
            10_000, 20230116, CrypTextConfig(cache_enabled=False)
        )

        def traced_peak(run) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def materialize_and_encode():
            body = dictionary.build_snapshot().body()
            json.dumps(body, ensure_ascii=False, sort_keys=True, separators=(",", ":"))

        save_peak = traced_peak(
            lambda: dictionary.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
        )
        reference_peak = traced_peak(materialize_and_encode)
        assert save_peak <= 0.25 * reference_peak, (save_peak, reference_peak)
