"""Differential cache-coherence suite: every read path equals a cache-off oracle.

A system with every cache on (query cache, batch memo, compiled buckets)
and an oracle built with ``cache_enabled=False`` —
compiled buckets off too, so it reads the document store directly — receive
the same writes through each write path: ``dictionary.add_token``,
``learn_from``, and a :class:`StreamCrawler` that holds only the dictionary
(one ``dictionary.add_corpus`` write per round).  Every read path of the system — ``look_up``,
``look_up_batch``, ``normalize``, ``normalize_batch`` and the service routes
``/v1/lookup``, ``/v1/normalize`` and ``/v1/batch/lookup`` — must answer
exactly what the oracle's sequential ``look_up`` / ``normalize`` answers,
whatever writes came before.  A fixed follower case checks that WAL replay
reaches a replica's caches the same way.  Two fixed race cases pin the
service's answers: a write that lands while a ``/v1/lookup`` is being
answered, and a replica-routed ``/v1/lookup`` served by a lagging follower,
must both leave the next request equal to the oracle.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro import CrypText, CrypTextConfig
from repro.api import CrypTextService, RateLimiter
from repro.replication import Follower, ReplicaSet
from repro.social import SocialPlatform, StreamCrawler
from repro.storage import SNAPSHOT_FILE_NAME
from repro.wal import ChangeLog, wal_directory_for

CORPUS = [
    "the dirrty republicans lie",
    "thee dirty repubLIEcans",
    "the democrats support the vaccine mandate",
    "the demokrats hate the vacc1ne",
    "the democRATs push their agenda",
    "the dem0cr@ts and the repubLIEcans argue online",
    "i ordered from amazon yesterday",
    "the amaz0n package never arrived",
]

ORACLE_CONFIG = CrypTextConfig(cache_enabled=False, compiled_buckets=False)

QUERIES = ("democrats", "vaccine", "amazon", "republicans")
TEXTS = (
    "the demokrats hate the vacc1ne",
    "i ordered from amaz0n",
    "they fear the vaxine",
)
TOKENS = ("demmocrats", "vaxine", "amazzon", "republicanz", "vaccine")
POSTS = (
    "the demmocrats lie",
    "they fear the vaxine",
    "the amazzon box",
    "repubLIEcans again",
)

LOOKUP_PATHS = ("look_up", "look_up_batch", "/v1/lookup", "/v1/batch/lookup")
NORMALIZE_PATHS = ("normalize", "normalize_batch", "/v1/normalize")

WRITES = st.one_of(
    st.tuples(st.just("add_token"), st.sampled_from(TOKENS)),
    st.tuples(st.sampled_from(("learn_from", "crawler")), st.sampled_from(POSTS)),
)
READS = st.one_of(
    st.tuples(
        st.sampled_from(LOOKUP_PATHS),
        st.lists(st.sampled_from(QUERIES), min_size=1, max_size=3).map(tuple),
    ),
    st.tuples(
        st.sampled_from(NORMALIZE_PATHS),
        st.lists(st.sampled_from(TEXTS), min_size=1, max_size=2).map(tuple),
    ),
)


class Harness:
    """A fully cached system, its cache-off oracle, and every access path."""

    def __init__(self) -> None:
        self.system = CrypText.from_corpus(CORPUS, seed_lexicon=False)
        self.oracle = CrypText.from_corpus(
            CORPUS, config=ORACLE_CONFIG, seed_lexicon=False
        )
        self.service = CrypTextService(
            self.system, rate_limiter=RateLimiter(max_requests=10**9, window_seconds=1.0)
        )
        self.token = self.service.issue_token("coherence").token
        self.platform = SocialPlatform("twitter")
        self.crawler = StreamCrawler(self.platform, self.system.dictionary)

    def write(self, path: str, payload: str) -> None:
        if path == "add_token":
            self.system.dictionary.add_token(payload)
            self.oracle.dictionary.add_token(payload)
        elif path == "learn_from":
            self.system.learn_from([payload])
            self.oracle.learn_from([payload])
        else:
            self.platform.ingest_raw(payload, created_at="2023-01-16")
            assert self.crawler.crawl_once() is not None
            self.oracle.dictionary.add_text(payload, source=self.crawler.source_label)

    def check(self, path: str, payload: tuple[str, ...]) -> None:
        if path in LOOKUP_PATHS:
            expected = [self.oracle.look_up(query) for query in payload]
        else:
            expected = [self.oracle.normalize(text) for text in payload]
        if path == "look_up":
            got = [self.system.look_up(query) for query in payload]
        elif path == "look_up_batch":
            got = self.system.look_up_batch(payload)
        elif path == "normalize":
            got = [self.system.normalize(text) for text in payload]
        elif path == "normalize_batch":
            got = self.system.normalize_batch(payload)
        else:
            got = self._serve(path, payload)
            expected = (
                {query: result.to_dict() for query, result in zip(payload, expected)}
                if path == "/v1/lookup"
                else [result.to_dict() for result in expected]
            )
        assert got == expected, (path, payload)

    def _serve(self, path: str, payload: tuple[str, ...]):
        route = {
            "/v1/lookup": self.service.lookup,
            "/v1/batch/lookup": self.service.batch_lookup,
            "/v1/normalize": self.service.normalize,
        }[path]
        response = route(self.token, list(payload))
        assert response.status == 200, response.body
        return response.body["results"]

    def check_every_path(self) -> None:
        for path in LOOKUP_PATHS:
            self.check(path, QUERIES)
        for path in NORMALIZE_PATHS:
            self.check(path, TEXTS)


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(st.one_of(WRITES, READS), min_size=1, max_size=8))
@example(steps=[("add_token", "demmocrats")])
@example(steps=[("crawler", "the demmocrats lie"), ("look_up", ("democrats",))])
@example(steps=[("add_token", "vaccine"), ("normalize_batch", ("they fear the vaxine",))])
def test_every_read_path_matches_the_oracle_after_any_writes(steps):
    harness = Harness()
    # Warm every cache first, so any write that fails to reach one leaves
    # a stale entry behind for the reads below to find.
    harness.check_every_path()
    for path, payload in steps:
        if path in LOOKUP_PATHS or path in NORMALIZE_PATHS:
            harness.check(path, payload)
        else:
            harness.write(path, payload)
    harness.check_every_path()


def test_follower_replay_reaches_the_replica_caches(tmp_path):
    leader = CrypText.from_corpus(CORPUS, seed_lexicon=False)
    leader.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
    wal = ChangeLog(wal_directory_for(tmp_path))
    leader.dictionary.attach_wal(wal)
    oracle = CrypText.from_corpus(CORPUS, config=ORACLE_CONFIG, seed_lexicon=False)
    # Replicas carry no trained scorer: normalize against a scorer-free view.
    plain_oracle = CrypText(dictionary=oracle.dictionary, config=ORACLE_CONFIG)
    follower = Follower(tmp_path)
    replica = follower.system

    def assert_matches_oracle() -> None:
        expected = [oracle.look_up(query) for query in QUERIES]
        assert [replica.look_up(query) for query in QUERIES] == expected
        assert replica.look_up_batch(QUERIES) == expected
        expected = [plain_oracle.normalize(text) for text in TEXTS]
        assert [replica.normalize(text) for text in TEXTS] == expected
        assert replica.normalize_batch(TEXTS) == expected

    try:
        follower.catch_up()
        assert_matches_oracle()  # warms the replica's caches
        for token in ("demmocrats", "vaxine", "amazzon"):
            leader.dictionary.add_token(token)
            oracle.dictionary.add_token(token)
        assert follower.catch_up() == 3
        assert_matches_oracle()
    finally:
        wal.close()


def test_a_write_during_a_lookup_leaves_no_stale_answer(monkeypatch):
    harness = Harness()
    real_look_up = CrypText.look_up
    pending = ["demmocrats"]

    def look_up_then_write(system, query, **kwargs):
        result = real_look_up(system, query, **kwargs)
        if system is harness.system and pending:
            # The write lands after the answer was computed, before the
            # request returns it.
            harness.write("add_token", pending.pop())
        return result

    monkeypatch.setattr(CrypText, "look_up", look_up_then_write)
    harness._serve("/v1/lookup", ("democrats",))
    assert not pending
    harness.check("/v1/lookup", ("democrats",))


def test_replica_routed_lookup_matches_the_oracle_after_catch_up(tmp_path):
    leader = CrypText.from_corpus(CORPUS, seed_lexicon=False)
    leader.save_snapshot(tmp_path / SNAPSHOT_FILE_NAME)
    wal = ChangeLog(wal_directory_for(tmp_path))
    leader.dictionary.attach_wal(wal)
    oracle = CrypText.from_corpus(CORPUS, config=ORACLE_CONFIG, seed_lexicon=False)
    follower = Follower(tmp_path)
    replicas = ReplicaSet(leader, [follower], max_staleness_seconds=3600)
    service = CrypTextService(
        leader,
        replica_set=replicas,
        rate_limiter=RateLimiter(max_requests=10**9, window_seconds=1.0),
    )
    token = service.issue_token("coherence").token

    def lookup() -> dict:
        response = service.lookup(token, ["democrats"])
        assert response.status == 200, response.body
        return response.body["results"]

    try:
        follower.catch_up()
        lookup()
        leader.dictionary.add_token("demmocrats")
        oracle.dictionary.add_token("demmocrats")
        # The follower has not replayed the write yet but is inside the
        # staleness bound, so it still serves the pre-write answer.
        lagging = lookup()
        assert "demmocrats" not in [m["token"] for m in lagging["democrats"]["matches"]]
        assert follower.catch_up() == 1
        assert lookup() == {"democrats": oracle.look_up("democrats").to_dict()}
        assert replicas.status()["routed_to_followers"] == 3
    finally:
        replicas.close()
        wal.close()
