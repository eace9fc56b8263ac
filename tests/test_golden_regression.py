"""Golden regression corpus: any normalization behavior drift fails loudly.

``tests/fixtures/golden_corpus.jsonl`` holds input texts and the full
normalization output (normalized text, per-token corrections with spans and
categories) produced by the system built from :data:`GOLDEN_BUILD_CORPUS`.
This test rebuilds the same system and compares field by field, both through
the sequential path and the batch engine — a change to the tokenizer, the
Soundex encoding, candidate retrieval, coherency ranking, case restoration,
the cache, or the batch layer that alters any observable output shows up as
a precise diff here.

If a behavior change is *intentional*, regenerate the fixture by running
this file as a script:  ``PYTHONPATH=src python tests/test_golden_regression.py``
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import CrypText, CrypTextConfig

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_corpus.jsonl"

#: The corpus the golden system is built from.  Changing it invalidates the
#: fixture (regenerate — see the module docstring).
GOLDEN_BUILD_CORPUS = [
    "the dirrty republicans",
    "thee dirty repubLIEcans",
    "the dirty republic@@ns",
    "the democrats support the vaccine mandate",
    "the demokrats hate the vacc1ne",
    "the democRATs push their agenda",
    "thinking about suic1de again tonight",
    "that movie was about depresxion and recovery",
    "mus-lim families moved into the neighborhood",
    "stop the vac-cine mandate now",
    "the dem0cr@ts and the repubLIEcans argue online",
    "i ordered from amazon yesterday",
    "the amaz0n package never arrived",
]

#: The texts the fixture records expected outputs for.
GOLDEN_INPUTS = [
    "the demokrats hate the vacc1ne",
    "the dem0cr@ts push their agenda",
    "i ordered from amaz0n yesterday",
    "the repubLIEcans argue online",
    "stop the vac-cine mandate now",
    "thinking about suic1de again",
    "that movie was about depresxion",
    "mus-lim families moved in",
    "the dirrty republic@@ns lie",
    "nothing perturbed in this sentence",
    "the democRATs and the republicans",
    "the DIRTY democrats",
    "vacc1ne vacc1ne vacc1ne",
    "amaz0n and demokrats and suic1de",
    "punctuation only ... !!!",
]


def _result_record(result) -> dict:
    return {
        "text": result.original_text,
        "normalized": result.normalized_text,
        "num_corrected": result.num_corrected,
        "corrections": [
            {
                "original": c.original,
                "corrected": c.corrected,
                "category": c.category.value,
                "start": c.start,
                "end": c.end,
            }
            for c in result.perturbed_corrections
        ],
    }


def _load_fixture() -> list[dict]:
    with FIXTURE_PATH.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture(scope="module")
def golden_system() -> CrypText:
    return CrypText.from_corpus(GOLDEN_BUILD_CORPUS)


@pytest.fixture(scope="module")
def fixture_records() -> list[dict]:
    return _load_fixture()


def test_fixture_covers_every_golden_input(fixture_records):
    assert [record["text"] for record in fixture_records] == GOLDEN_INPUTS


def test_sequential_normalization_matches_golden(golden_system, fixture_records):
    for record in fixture_records:
        result = golden_system.normalize(record["text"])
        assert _result_record(result) == record, (
            f"behavior drift on {record['text']!r} — if intentional, regenerate "
            f"the fixture (see module docstring)"
        )


def test_batch_normalization_matches_golden(golden_system, fixture_records):
    texts = [record["text"] for record in fixture_records]
    results = golden_system.normalize_batch(texts)
    for record, result in zip(fixture_records, results):
        assert _result_record(result) == record


def compare_compiled_and_linear_lookups(distances=(1, 3), kernel="auto") -> int:
    """Look Up every golden-input token through both matching paths.

    Builds the golden system twice (``compiled_buckets`` on and off) and
    asserts field-identical :class:`LookupResult`s for every token, edit
    bound, and case mode; returns the number of comparisons made.  Shared
    by the tier-1 test below and the CI smoke guard in
    ``benchmarks/bench_lookup_hotpath.py`` so the two checks cannot drift
    apart.  ``kernel`` pins the compiled system's match-kernel policy so
    the guard can sweep every kernel against the same linear reference.
    """
    compiled = CrypText.from_corpus(
        GOLDEN_BUILD_CORPUS,
        config=CrypTextConfig(compiled_buckets=True, match_kernel=kernel),
    )
    linear = CrypText.from_corpus(
        GOLDEN_BUILD_CORPUS, config=CrypTextConfig(compiled_buckets=False)
    )
    queries = sorted({token for text in GOLDEN_INPUTS for token in text.split()})
    compared = 0
    for query in queries:
        for distance in distances:
            for case_sensitive in (True, False):
                fast = compiled.look_up(
                    query, max_edit_distance=distance, case_sensitive=case_sensitive
                )
                slow = linear.look_up(
                    query, max_edit_distance=distance, case_sensitive=case_sensitive
                )
                assert fast == slow, (
                    f"compiled Look Up diverged from linear on golden corpus: "
                    f"{query!r} (d={distance}, case_sensitive={case_sensitive})"
                )
                compared += 1
    return compared


def test_compiled_lookup_matches_linear_on_golden_corpus():
    """The trie-compiled matcher must be invisible on the golden corpus."""
    assert compare_compiled_and_linear_lookups() > 0


@pytest.mark.parametrize("kernel", ["auto", "myers", "banded", "symspell"])
def test_every_kernel_policy_matches_linear_on_golden_corpus(kernel):
    """Kernel choice is a performance knob, never a behavior knob.

    Every selectable match-kernel policy — the bit-parallel Myers DP, the
    banded-DP fallback, the SymSpell delete-neighborhood index, and the
    measuring ``auto`` policy — must produce field-identical golden-corpus
    lookups to the linear reference scan.
    """
    assert compare_compiled_and_linear_lookups(kernel=kernel) > 0


def compare_cold_and_warm_systems(distances=(1, 3), shards=0) -> int:
    """Golden-corpus equality guard for the warm-start snapshot subsystem.

    Builds the golden system cold, snapshots it, hydrates a *fresh* system
    (documents + pre-built tries, with its batch engine built before the
    load), and asserts field-identical Look Up results — sequential and batch —
    plus identical normalization outputs for every golden input.  Shared by
    the tier-1 test below and the CI smoke guard in
    ``benchmarks/bench_cold_start.py`` so the two checks cannot drift apart.
    Returns the number of comparisons made.

    With ``shards`` > 0 the snapshot is written (and hydrated from) the v2
    sharded mmap-friendly layout instead of the v1 single file — the
    byte-identical-results guard for the format.
    """
    import tempfile

    cold = CrypText.from_corpus(GOLDEN_BUILD_CORPUS)
    compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "golden.snapshot.json"
        cold.save_snapshot(snapshot_path, shards=shards or None)
        warm = CrypText.empty(seed_lexicon=False)
        engine = warm.batch  # built before the load, which must reach it
        report = warm.load_snapshot(snapshot_path, strict=True)
        assert report.loaded and report.hydrated_tries, report

        queries = sorted({token for text in GOLDEN_INPUTS for token in text.split()})
        for query in queries:
            for distance in distances:
                assert cold.look_up(
                    query, max_edit_distance=distance
                ) == warm.look_up(query, max_edit_distance=distance), (
                    f"warm-start Look Up diverged from cold compile: "
                    f"{query!r} (d={distance})"
                )
                compared += 1
        assert cold.look_up_batch(queries) == engine.look_up_batch(queries)
        compared += len(queries)

        # The hydrated system carries no trained scorer; compare against a
        # scorer-free view over the cold dictionary so only candidate
        # retrieval and ranking (the snapshot-dependent parts) are compared.
        cold_plain = CrypText(dictionary=cold.dictionary, config=cold.config)
        for text in GOLDEN_INPUTS:
            assert (
                cold_plain.normalize(text).to_dict() == warm.normalize(text).to_dict()
            ), f"warm-start normalization diverged on {text!r}"
            compared += 1
    return compared


def test_cold_and_warm_systems_identical_on_golden_corpus():
    """Snapshot hydration must be invisible on the golden corpus."""
    assert compare_cold_and_warm_systems() > 0


@pytest.mark.parametrize("shards", [1, 3])
def test_sharded_warm_start_identical_on_golden_corpus(shards):
    """Hydrating from the v2 sharded layout must be invisible too."""
    assert compare_cold_and_warm_systems(shards=shards) > 0


def compare_cold_and_recovered_systems(distances=(1, 3)) -> int:
    """Golden-corpus equality guard for the durability subsystem.

    Journals the golden build into a WAL, snapshots the dictionary
    mid-ingest, keeps writing (so the tail lives only in the log), then
    simulates a ``kill -9`` by recovering into a *fresh* system — and
    asserts the recovered system is field-identical to an uninterrupted
    cold build on every golden Look Up and normalization.  Shared by the
    tier-1 test below and the CI smoke guard in
    ``benchmarks/bench_incremental_snapshot.py`` so the two checks cannot
    drift apart.  Returns the number of comparisons made.
    """
    import tempfile

    from repro.storage import SNAPSHOT_FILE_NAME
    from repro.wal import ChangeLog, wal_directory_for

    compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        midpoint = len(GOLDEN_BUILD_CORPUS) // 2

        # The uninterrupted reference (same write order, no journaling).
        cold = CrypText.empty(seed_lexicon=False)
        cold.dictionary.add_corpus(GOLDEN_BUILD_CORPUS, source="corpus")
        cold.dictionary.seed_lexicon()

        # Streamed enrichment past the corpus: like every corpus and lexicon
        # write, journaled as ONE compound learn_batch record per call, which
        # replay must apply in the identical token order.
        stream = ["completely fresh unrelated chatter flows here tonight"]
        cold.learn_from(stream, source="stream")

        # The crash victim: base snapshot after half the corpus, everything
        # after it — including the whole lexicon seeding — only in the WAL.
        victim = CrypText.empty(seed_lexicon=False)
        victim.dictionary.attach_wal(ChangeLog(wal_directory_for(work)))
        victim.dictionary.add_corpus(GOLDEN_BUILD_CORPUS[:midpoint], source="corpus")
        victim.save_snapshot(work / SNAPSHOT_FILE_NAME)
        victim.dictionary.add_corpus(GOLDEN_BUILD_CORPUS[midpoint:], source="corpus")
        victim.dictionary.save_snapshot(work / SNAPSHOT_FILE_NAME, incremental=True)
        victim.dictionary.seed_lexicon()
        victim.learn_from(stream, source="stream")
        journaled_ops = [record.op for record in victim.dictionary.wal.iter_records()]
        # Two corpus halves, the lexicon seeding and the stream: one record
        # per batch write.
        assert journaled_ops == ["learn_batch"] * 4, journaled_ops

        recovered = CrypText.empty(seed_lexicon=False)
        report = recovered.recover(work)
        assert report.loaded and report.deltas_applied == 1, report
        assert report.replayed_records > 0, report
        assert report.degraded == (), report
        assert (
            recovered.dictionary.content_fingerprint()
            == cold.dictionary.content_fingerprint()
        )

        queries = sorted({token for text in GOLDEN_INPUTS for token in text.split()})
        for query in queries:
            for distance in distances:
                assert cold.look_up(
                    query, max_edit_distance=distance
                ) == recovered.look_up(query, max_edit_distance=distance), (
                    f"recovered Look Up diverged from cold build: "
                    f"{query!r} (d={distance})"
                )
                compared += 1
        assert cold.look_up_batch(queries) == recovered.look_up_batch(queries)
        compared += len(queries)
        for text in GOLDEN_INPUTS:
            assert (
                cold.normalize(text).to_dict() == recovered.normalize(text).to_dict()
            ), f"recovered normalization diverged on {text!r}"
            compared += 1
    return compared


def test_cold_and_recovered_systems_identical_on_golden_corpus():
    """Crash recovery (chain + WAL replay) must be invisible on the corpus."""
    assert compare_cold_and_recovered_systems() > 0


def test_golden_outputs_survive_unrelated_enrichment(fixture_records):
    """Enriching untouched buckets must not change any golden output."""
    system = CrypText.from_corpus(GOLDEN_BUILD_CORPUS)
    for record in fixture_records:
        system.normalize(record["text"])  # warm caches/memo
    system.learn_from(["completely fresh unrelated chatter flows here"])
    for record in fixture_records:
        assert _result_record(system.normalize(record["text"])) == record


def _regenerate() -> None:
    system = CrypText.from_corpus(GOLDEN_BUILD_CORPUS)
    with FIXTURE_PATH.open("w", encoding="utf-8") as handle:
        for text in GOLDEN_INPUTS:
            record = _result_record(system.normalize(text))
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    print(f"regenerated {FIXTURE_PATH} ({len(GOLDEN_INPUTS)} records)")


if __name__ == "__main__":  # pragma: no cover - manual fixture regeneration
    _regenerate()
