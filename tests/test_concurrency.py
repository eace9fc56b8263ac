"""Concurrency tests: TTLCache, the version guard, and enrichment-vs-lookup.

The batch engine serves Look Up / Normalization from worker threads while
the crawler enriches the dictionary concurrently, so the storage substrate
and the batch layer must tolerate that interleaving:

* :class:`TTLCache` is hammered from many threads without corruption, lost
  counter updates, or capacity violations;
* ``look_up_batch`` and ``learn_from`` run concurrently without losing
  dictionary writes and without serving stale cached results once the
  writers have finished (sound-scoped invalidation is exercised on every
  enrichment);
* a retrieval that straddles a write never caches its pre-write answer
  (a deterministic two-thread interleaving pins the dictionary's version
  guard);
* the simulated platform's searches, streams and scans see whole posts in
  order while a live feed ingests;
* results are deterministic under a fixed seed — two identical systems
  produce identical batch results.
"""

from __future__ import annotations

import sys
import threading

from repro import CrypText
from repro.social import SocialPlatform
from repro.storage import TTLCache


CORPUS = [
    "the dirrty republicans",
    "thee dirty repubLIEcans",
    "the democrats support the vaccine mandate",
    "the demokrats hate the vacc1ne",
    "the dem0cr@ts and the repubLIEcans argue online",
    "i ordered from amazon yesterday",
    "the amaz0n package never arrived",
]

WATCHED = ["democrats", "republicans", "amazon", "vaccine"]


def _run_threads(workers) -> list[BaseException]:
    """Run callables on threads, join them, and collect raised exceptions."""
    errors: list[BaseException] = []
    lock = threading.Lock()

    def wrap(worker):
        def target():
            try:
                worker()
            except BaseException as exc:  # noqa: BLE001 - surfaced via assertion
                with lock:
                    errors.append(exc)

        return target

    threads = [threading.Thread(target=wrap(worker)) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


# --------------------------------------------------------------------------- #
# TTLCache
# --------------------------------------------------------------------------- #
class TestTTLCacheConcurrency:
    def test_mixed_operations_do_not_corrupt(self):
        cache = TTLCache(max_entries=64, default_ttl=60.0)

        def worker(worker_id: int):
            def run():
                for i in range(1500):
                    key = f"key-{(worker_id * 7 + i) % 100}"
                    op = i % 4
                    if op == 0:
                        cache.set(key, i, tags=[f"tag-{i % 5}"])
                    elif op == 1:
                        cache.get(key)
                    elif op == 2:
                        cache.invalidate(key)
                    else:
                        key in cache  # noqa: B015 - exercising __contains__

            return run

        errors = _run_threads([worker(n) for n in range(8)])
        assert not errors, errors
        assert len(cache) <= cache.max_entries
        stats = cache.stats
        assert stats.requests == stats.hits + stats.misses

    def test_tag_invalidation_races_with_sets(self):
        cache = TTLCache(max_entries=128, default_ttl=60.0)

        def writer():
            for i in range(1000):
                cache.set(f"w-{i % 40}", i, tags=[("bucket", i % 4)])

        def invalidator():
            for i in range(1000):
                cache.invalidate_tag(("bucket", i % 4))

        errors = _run_threads([writer, writer, invalidator, invalidator])
        assert not errors, errors
        # Whatever survived must still be internally consistent.
        for key in cache.keys():
            cache.get(key)


# --------------------------------------------------------------------------- #
# look_up_batch vs learn_from
# --------------------------------------------------------------------------- #
class TestLookupLearnConcurrency:
    def test_no_lost_updates_and_no_stale_hits(self):
        system = CrypText.from_corpus(CORPUS, train_scorer=False)
        engine = system.batch
        engine.look_up_batch(WATCHED)  # build index, warm cache

        num_writers = 4
        repeats = 25
        # Each writer repeatedly re-learns a shared sentence (count
        # increments must not be lost) and contributes one unique
        # perturbation that must be visible once every thread has joined.
        unique = {
            0: "the demmocrats lie",
            1: "the repuublicans lie",
            2: "the amazzon box broke",
            3: "the vacciine failed",
        }
        expected_tokens = {
            "democrats": "demmocrats",
            "republicans": "repuublicans",
            "amazon": "amazzon",
            "vaccine": "vacciine",
        }

        def writer(worker_id: int):
            def run():
                system.learn_from([unique[worker_id]], source=f"w{worker_id}")
                for _ in range(repeats):
                    system.learn_from(["the democrats argue online"], source="shared")

            return run

        def reader():
            for _ in range(40):
                results = engine.look_up_batch(WATCHED)
                assert [r.query for r in results] == WATCHED
                for result in results:
                    assert result.soundex_key is not None

        errors = _run_threads([writer(n) for n in range(num_writers)] + [reader] * 4)
        assert not errors, errors

        # No lost updates: every shared re-learn incremented the count.
        entry = system.dictionary.entry("democrats")
        baseline = CrypText.from_corpus(CORPUS, train_scorer=False)
        base_count = baseline.dictionary.entry("democrats").count
        assert entry.count == base_count + num_writers * repeats

        # No stale post-invalidation hits: both the batch path and the
        # cached facade path see every writer's new perturbation.
        for keyword, token in expected_tokens.items():
            assert token in engine.look_up_batch([keyword])[0].tokens
            assert token in system.look_up(keyword).tokens

    def test_concurrent_normalize_and_learn(self):
        system = CrypText.from_corpus(CORPUS, train_scorer=False)
        engine = system.batch
        texts = ["the demokrats hate the vacc1ne", "i ordered from amaz0n"]
        expected = [system.normalize(text).normalized_text for text in texts]

        def normalizer():
            for _ in range(30):
                results = engine.normalize_batch(texts)
                assert [r.original_text for r in results] == texts

        def learner():
            for i in range(30):
                system.learn_from([f"fresh chatter number {i} appears"], source="t")

        errors = _run_threads([normalizer] * 3 + [learner] * 2)
        assert not errors, errors
        # The enrichment never touched these buckets, so results are stable.
        assert [
            r.normalized_text for r in engine.normalize_batch(texts)
        ] == expected


class TestVersionGuard:
    def test_memo_never_stores_a_retrieval_that_straddled_a_write(self, monkeypatch):
        """A batch normalization racing a write must not memoize the old answer.

        The writer pauses where it enters the compiled-bucket lock; the
        reader retrieves and ranks during that pause and then pauses
        before its memo store until the write has finished.  The version
        the reader captured must fail the store guard, or the pre-write
        answer would be served until the memo's TTL ran out.
        """
        system = CrypText.from_corpus(["they fear the vacc1ne shot"], seed_lexicon=False)
        engine = system.batch
        assert engine.normalize_batch(["vacc1ne"])[0].normalized_text == "vacc1ne"
        engine.memo.clear()  # force a fresh retrieval over the warm bucket

        writer_paused = threading.Event()
        reader_ranked = threading.Event()
        writer_done = threading.Event()

        class PausingLock:
            """Pauses the writer thread once, just before it takes the lock."""

            def __init__(self, lock):
                self.lock = lock
                self.paused = False

            def __enter__(self):
                if threading.current_thread().name == "writer" and not self.paused:
                    self.paused = True
                    writer_paused.set()
                    reader_ranked.wait(5)
                return self.lock.__enter__()

            def __exit__(self, *exc_info):
                return self.lock.__exit__(*exc_info)

        dictionary = system.dictionary
        monkeypatch.setattr(
            dictionary, "_compiled_lock", PausingLock(dictionary._compiled_lock)
        )
        set_if = engine.memo.set_if

        def paused_set_if(*args, **kwargs):
            reader_ranked.set()
            writer_done.wait(5)
            return set_if(*args, **kwargs)

        monkeypatch.setattr(engine.memo, "set_if", paused_set_if)

        def write():
            dictionary.add_token("vaccine")
            writer_done.set()

        answers: list[str] = []
        writer = threading.Thread(target=write, name="writer")
        reader = threading.Thread(
            target=lambda: answers.append(
                engine.normalize_batch(["vacc1ne"])[0].normalized_text
            )
        )
        writer.start()
        assert writer_paused.wait(5)
        reader.start()
        writer.join(10)
        reader.join(10)
        assert not writer.is_alive() and not reader.is_alive()
        assert reader_ranked.is_set() and writer_done.is_set()
        assert answers == ["vacc1ne"]  # read before the write: fine once
        monkeypatch.undo()

        assert engine.normalize_batch(["vacc1ne"])[0].normalized_text == "vaccine"
        assert system.normalize("vacc1ne").normalized_text == "vaccine"


# --------------------------------------------------------------------------- #
# the token store's reads vs writers and wholesale loads
# --------------------------------------------------------------------------- #
class TestStoreReadsUnderWrites:
    def test_reads_race_writes_and_snapshot_installs(self):
        """Dictionary reads racing writers and re-hydration stay consistent.

        Bucket reads, Look Up and the full scans run while ``learn_from``
        writers add fresh tokens and another thread keeps re-installing the
        snapshot taken at the start.  No thread may raise, and no bucket
        read may list a token twice.
        """
        system = CrypText.from_corpus(CORPUS, seed_lexicon=False, train_scorer=False)
        dictionary = system.dictionary
        snapshot = dictionary.build_snapshot()
        keys = [
            (level, key)
            for level in dictionary.phonetic_levels
            for key in dictionary.hashmap(phonetic_level=level)
        ]

        def writer(worker_id: int):
            def run():
                for i in range(100):
                    system.learn_from(
                        [f"the demmocrats{worker_id}x{i} fear the vaxine{i}"],
                        source=f"w{worker_id}",
                    )

            return run

        def loader():
            for _ in range(50):
                assert dictionary.hydrate_snapshot(snapshot).loaded

        def bucket_reader():
            for _ in range(100):
                for level, key in keys:
                    tokens = [
                        entry.token
                        for entry in dictionary.tokens_for_key(key, phonetic_level=level)
                    ]
                    assert len(tokens) == len(set(tokens)), (level, key, tokens)

        def scanner():
            for _ in range(50):
                for query in WATCHED:
                    system.look_up(query)
                dictionary.stats()
                dictionary.content_fingerprint()
                list(dictionary.iter_entries())
                dictionary.token_counts()
                for level in dictionary.phonetic_levels:
                    dictionary.hashmap(phonetic_level=level)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = _run_threads(
                [writer(0), writer(1), loader, bucket_reader, bucket_reader, scanner]
            )
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors


class TestPlatformReadsUnderIngest:
    def test_search_stream_and_all_posts_race_ingest(self):
        """Platform reads racing a live feed see whole posts, in order.

        One thread ingests raw posts while others search, stream and scan.
        Every read must see a prefix of the feed: every post so far, each
        once, with its token index entries, in the documented order.
        """
        platform = SocialPlatform("twitter")
        total = 300

        def ingester():
            for i in range(total):
                platform.ingest_raw(f"the vaccine post {i}", f"2021-11-{1 + i % 28:02d}")

        def searcher():
            for _ in range(100):
                posts = platform.search(["vaccine", "VACCINE"]).posts
                ids = sorted(post["_id"] for post in posts)
                assert ids == list(range(1, len(ids) + 1))
                days = [post["created_at"] for post in posts]
                assert days == sorted(days, reverse=True)

        def streamer():
            for _ in range(20):
                seen = [
                    post["post_id"]
                    for batch in platform.stream(batch_size=7)
                    for post in batch
                ]
                assert seen == list(range(1, len(seen) + 1))

        def scanner():
            for _ in range(100):
                posts = platform.all_posts()
                assert [post["_id"] for post in posts] == list(range(1, len(posts) + 1))
                assert [post["post_id"] for post in posts] == [post["_id"] for post in posts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = _run_threads([ingester, searcher, searcher, streamer, scanner])
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(platform) == total
        assert platform.count_matching("vaccine") == total


# --------------------------------------------------------------------------- #
# determinism under a fixed seed
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_identical_systems_produce_identical_batches(self):
        queries = WATCHED * 3 + ["unseen", "..."]
        texts = ["the demokrats hate the vacc1ne", "i ordered from amaz0n"]
        snapshots = []
        for _ in range(2):
            system = CrypText.from_corpus(CORPUS)
            engine = system.make_batch_engine()
            snapshots.append(
                (
                    engine.look_up_batch(queries),
                    engine.normalize_batch(texts),
                    engine.perturb_batch(texts, ratio=0.5),
                )
            )
        assert snapshots[0][0] == snapshots[1][0]
        assert snapshots[0][1] == snapshots[1][1]
        assert [o.perturbed_text for o in snapshots[0][2]] == [
            o.perturbed_text for o in snapshots[1][2]
        ]


# --------------------------------------------------------------------------- #
# replication: leader writes while followers tail
# --------------------------------------------------------------------------- #
class TestReplicationConcurrency:
    def test_followers_tail_a_live_leader_without_loss_or_duplication(
        self, tmp_path
    ):
        """Background tails racing a writing leader apply every seq exactly once.

        The leader journals a stream of enrichments while two followers
        poll on their own threads.  Each follower records the set of every
        sequence number it ever applied: at the end that set must be
        exactly ``{1 .. last_seq}`` — nothing lost to a torn read, nothing
        applied twice by a racing re-tail — and both replicas must be
        observably identical to the leader.
        """
        from repro import CrypTextConfig
        from repro.replication import Follower
        from repro.wal import ChangeLog, wal_directory_for

        config = CrypTextConfig(cache_enabled=False)
        leader = CrypText.empty(config=config, seed_lexicon=False)
        leader.dictionary.attach_wal(ChangeLog(wal_directory_for(tmp_path)))
        followers = [
            Follower(
                tmp_path,
                config=config,
                name=f"follower-{index}",
                record_applied_seqs=True,
            )
            for index in range(2)
        ]
        for follower in followers:
            follower.start(poll_interval=0.002)

        def writer():
            for index in range(40):
                leader.learn_from(
                    [f"the brandnewword{index}x spreads online"], source="stream"
                )

        errors = _run_threads([writer])
        assert errors == []
        try:
            last_seq = leader.dictionary.wal.last_seq
            assert last_seq == 40
            for follower in followers:
                follower.stop()
                follower.catch_up()
                assert follower.applied_seqs == frozenset(range(1, last_seq + 1))
                stats = follower.stats()
                assert stats["applied_records"] == last_seq
                assert (
                    follower.system.dictionary.content_fingerprint()
                    == leader.dictionary.content_fingerprint()
                )
                assert (
                    follower.system.dictionary.token_counts()
                    == leader.dictionary.token_counts()
                )
        finally:
            for follower in followers:
                follower.close()
