"""Chaos suite for the resilience subsystem.

Three layers under test, bottom-up:

* the **primitives** — the fault-injection registry (named points,
  deterministic triggers, env-var arming), retry with jittered backoff,
  propagated request deadlines, and the per-replica circuit breaker —
  each driven with injectable clocks/sleeps so nothing here waits on
  real time;
* the **fault matrix** — injected fsync failures, torn WAL and snapshot
  writes, transient tail-read errors, and poisoned poll rounds, asserting
  the durability and replication layers keep answering correctly (writes
  rejected cleanly, torn tails repaired, retries absorbed, background
  tail threads alive);
* the **degradation surface** — breaker- and staleness-aware routing
  under each ``degraded_read_policy`` (leader fallback, serve-stale with
  the warning header, fail-fast 503), deadline-expired requests answering
  504, the async front's protocol edges (truncated request lines,
  mid-request disconnects, body-cap boundaries, Content-Length syntax,
  header-block caps, keep-alive reuse), its split between small reads
  served on the event loop and everything else on the thread pool, and a
  real :class:`ReplicaSupervisor` restarting a SIGKILLed follower
  *process* until its fingerprint matches the leader again.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import threading
import time
from pathlib import Path

import pytest

from repro import CrypText, CrypTextConfig
from repro.api import AsyncCrypTextService, CrypTextService, RateLimiter
from repro.api.async_service import INLINE_MAX_CHARS, INLINE_MAX_ITEMS
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    InjectedFault,
    InjectedIOError,
    ReplicasUnavailableError,
    ResilienceError,
    SnapshotError,
    TornWrite,
    WalError,
)
from repro.replication import Follower, ReplicaSet, WalTail
from repro.resilience import (
    FAULTS,
    KNOWN_FAULT_POINTS,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    ReplicaSupervisor,
    RetryPolicy,
    active_deadline,
    check_deadline,
    install_env_faults,
    parse_fault_spec,
)
from repro.storage import SNAPSHOT_FILE_NAME
from repro.wal import ChangeLog, wal_directory_for

CONFIG = CrypTextConfig(cache_enabled=False, retry_base_delay=0.001)

CORPUS = [
    "the demokrats hate the vacc1ne",
    "the dirrty republicans lie",
    "teh vaccine works",
]

LATER = [
    "fresh amaz0n chatter tonight",
    "the m0derators deleted everything again",
]


@pytest.fixture(autouse=True)
def _clean_faults():
    """The registry is process-global; never leak an armed rule between tests."""
    FAULTS.reset()
    yield
    FAULTS.reset()


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _leader(directory: Path) -> CrypText:
    system = CrypText.empty(config=CONFIG, seed_lexicon=False)
    system.dictionary.attach_wal(ChangeLog(wal_directory_for(directory)))
    return system


def _converged(leader: CrypText, follower: Follower) -> bool:
    return (
        follower.system.dictionary.content_fingerprint()
        == leader.dictionary.content_fingerprint()
    )


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #
class TestFaultRegistry:
    def test_unknown_point_is_a_configuration_error(self):
        injector = FaultInjector()
        with pytest.raises(ConfigurationError, match="unknown fault point"):
            injector.arm("wal.apend", fail=1)
        assert not injector.armed

    def test_fail_next_n_then_dormant(self):
        injector = FaultInjector()
        injector.arm("wal.fsync", fail=2)
        assert injector.armed
        for _ in range(2):
            with pytest.raises(InjectedIOError):
                injector.hit("wal.fsync")
        # Exhausted rules disarm themselves: the hot path goes back to the
        # single bool read.
        injector.hit("wal.fsync")
        assert not injector.armed
        assert injector.fired("wal.fsync") == 2

    def test_io_points_raise_oserror_subclasses(self):
        injector = FaultInjector()
        injector.arm("tailer.read", fail=1)
        with pytest.raises(OSError):
            injector.hit("tailer.read")
        injector.arm("front.dispatch", fail=1)
        with pytest.raises(InjectedFault) as excinfo:
            injector.hit("front.dispatch")
        assert not isinstance(excinfo.value, OSError)

    def test_torn_is_restricted_to_write_points(self):
        injector = FaultInjector()
        with pytest.raises(ConfigurationError, match="torn"):
            injector.arm("tailer.read", torn=4)
        rule = injector.arm("wal.append", torn=7)
        assert rule.fail_remaining == 1  # a torn rule defaults to one failure
        with pytest.raises(TornWrite) as excinfo:
            injector.hit("wal.append")
        assert excinfo.value.keep_bytes == 7

    def test_probabilistic_rules_replay_identically_by_seed(self):
        def fire_pattern() -> list[bool]:
            injector = FaultInjector()
            injector.arm("follower.poll", probability=0.5, seed=7)
            pattern = []
            for _ in range(50):
                try:
                    injector.hit("follower.poll")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        first, second = fire_pattern(), fire_pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_delays_use_the_injected_sleep(self):
        slept: list[float] = []
        injector = FaultInjector(sleep=slept.append)
        injector.arm("front.dispatch", delay=0.25, delay_times=2)
        injector.hit("front.dispatch")
        injector.hit("front.dispatch")
        assert slept == [0.25, 0.25]
        assert not injector.armed  # two delays granted, nothing left to do

    def test_consume_delay_never_sleeps(self):
        injector = FaultInjector(sleep=lambda _s: pytest.fail("slept"))
        injector.arm("front.dispatch", delay=0.5, delay_times=1)
        assert injector.consume_delay("front.dispatch") == 0.5
        assert injector.consume_delay("front.dispatch") == 0.0

    def test_scoped_disarms_on_exit(self):
        injector = FaultInjector()
        with injector.scoped("wal.fsync", fail=100):
            assert injector.armed
        assert not injector.armed

    def test_status_reports_rules_and_lifetime_counters(self):
        injector = FaultInjector()
        injector.arm("wal.fsync", fail=3)
        with pytest.raises(InjectedIOError):
            injector.hit("wal.fsync")
        status = injector.status()
        assert status["armed"] is True
        assert status["rules"]["wal.fsync"]["fail_remaining"] == 2
        assert status["total_fired"] == {"wal.fsync": 1}
        injector.reset()
        assert injector.status() == {"armed": False, "rules": {}, "total_fired": {}}

    def test_every_compiled_point_is_armable(self):
        injector = FaultInjector()
        for point in KNOWN_FAULT_POINTS:
            injector.arm(point, fail=1)
        assert set(injector.status()["rules"]) == set(KNOWN_FAULT_POINTS)

    def test_parse_fault_spec(self):
        parsed = parse_fault_spec(
            "wal.fsync:fail=3; front.dispatch:delay=0.05,delay_times=10;"
            "tailer.read:probability=0.2,seed=7"
        )
        assert parsed == {
            "wal.fsync": {"fail": 3},
            "front.dispatch": {"delay": 0.05, "delay_times": 10},
            "tailer.read": {"probability": 0.2, "seed": 7},
        }

    @pytest.mark.parametrize(
        "spec",
        [
            "wal.fsync",  # no colon
            "wal.fsync:fail",  # no value
            "wal.fsync:fail=lots",  # non-integer
            "wal.fsync:explode=1",  # unknown trigger
            ":fail=1",  # no point
        ],
    )
    def test_malformed_specs_are_loud(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(spec)

    def test_install_env_faults(self):
        injector = FaultInjector()
        armed = install_env_faults(
            {"CRYPTEXT_FAULTS": "wal.fsync:fail=2;follower.poll:fail=1"},
            injector,
        )
        assert sorted(armed) == ["follower.poll", "wal.fsync"]
        assert injector.armed
        assert install_env_faults({}, FaultInjector()) == ()


# --------------------------------------------------------------------------- #
# retry / deadline / breaker primitives
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def _policy(self, **kwargs) -> tuple[RetryPolicy, list[float]]:
        slept: list[float] = []
        kwargs.setdefault("rng", random.Random(0))
        return RetryPolicy(sleep=slept.append, **kwargs), slept

    def test_transient_failures_are_absorbed(self):
        policy, slept = self._policy(attempts=3)
        calls = []

        def flaky():
            calls.append(True)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(calls) == 3 and len(slept) == 2

    def test_non_retryable_errors_propagate_immediately(self):
        policy, slept = self._policy(attempts=5)
        calls = []

        def broken():
            calls.append(True)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(broken)
        assert len(calls) == 1 and slept == []

    def test_exhausted_attempts_reraise_the_last_error(self):
        policy, slept = self._policy(attempts=3)
        calls = []

        def always():
            calls.append(True)
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            policy.call(always)
        assert len(calls) == 3 and len(slept) == 2

    def test_backoff_is_full_jitter_bounded_by_the_ceiling(self):
        policy, _ = self._policy(attempts=6, base_delay=0.1, max_delay=0.5)
        for attempt in range(6):
            ceiling = min(0.5, 0.1 * (2**attempt))
            for _ in range(20):
                assert 0.0 <= policy.backoff(attempt) <= ceiling

    def test_expired_deadline_short_circuits_the_retry_loop(self):
        policy, slept = self._policy(attempts=5)
        calls = []

        def failing():
            calls.append(True)
            raise OSError("slow disk")

        expired = Deadline(0.0, clock=lambda: 1.0)
        with expired.activate():
            with pytest.raises(OSError):
                policy.call(failing)
        # One attempt, no sleeping toward an answer nobody is waiting for.
        assert len(calls) == 1 and slept == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"attempts": 1.5},
            {"base_delay": -0.1},
            {"base_delay": 1.0, "max_delay": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestDeadline:
    def test_after_requires_a_positive_budget(self):
        for bad in (0, -1.0):
            with pytest.raises(ConfigurationError):
                Deadline.after(bad)

    def test_remaining_and_expired_track_the_clock(self):
        clock = FakeClock(10.0)
        deadline = Deadline.after(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(1.0) and not deadline.expired
        clock.advance(2.0)
        assert deadline.remaining() == 0.0 and deadline.expired
        with pytest.raises(DeadlineExceededError, match="lookup exceeded its 5s"):
            deadline.check("lookup")

    def test_activation_sets_the_ambient_deadline(self):
        assert active_deadline() is None
        check_deadline()  # no ambient deadline: a cheap no-op
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        with deadline.activate():
            assert active_deadline() is deadline
            clock.advance(2.0)
            with pytest.raises(DeadlineExceededError):
                check_deadline("replicated read")
        assert active_deadline() is None


class TestCircuitBreaker:
    def _breaker(self, **kwargs) -> tuple[CircuitBreaker, FakeClock]:
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("recovery_seconds", 10.0)
        return CircuitBreaker(clock=clock, name="r0", **kwargs), clock

    def test_consecutive_failures_trip_it_open(self):
        breaker, _clock = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # a success resets the streak
        for _ in range(3):
            assert breaker.state == CircuitBreaker.CLOSED
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.status()["rejected_calls"] == 1
        assert breaker.status()["times_opened"] == 1

    def test_recovery_window_half_opens_and_a_probe_closes(self):
        breaker, clock = self._breaker(half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # books the only probe slot
        assert not breaker.allow()  # a second caller is still refused
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_a_failed_probe_reopens_and_restarts_the_clock(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(9.0)  # not a full recovery window since the re-open
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_available_is_a_non_mutating_scan(self):
        breaker, clock = self._breaker(half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        for _ in range(5):
            assert breaker.available()  # never books the probe slot
        assert breaker.allow()
        assert not breaker.available()  # the slot is genuinely taken now

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"failure_threshold": 2.5},
            {"recovery_seconds": 0.0},
            {"half_open_probes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(**{"failure_threshold": 3, "recovery_seconds": 1.0, **kwargs})


# --------------------------------------------------------------------------- #
# the fault matrix: durability + replication under injected failures
# --------------------------------------------------------------------------- #
class TestWalFaultMatrix:
    def test_fsync_failure_rejects_the_write_and_the_log_survives(self, tmp_path):
        wal = ChangeLog(tmp_path, fsync=True)
        wal.append("add_token", {"token": "tok0", "source": "t", "count": 1})
        FAULTS.arm("wal.fsync", fail=1)
        with pytest.raises(WalError, match="failed to append"):
            wal.append("add_token", {"token": "tok1", "source": "t", "count": 1})
        # The failed frame was rolled back to the last good boundary: the
        # next append reuses its sequence number and the log stays coherent.
        record = wal.append("add_token", {"token": "tok1", "source": "t", "count": 1})
        assert record.seq == 2
        assert [r.seq for r in wal.iter_records()] == [1, 2]

    def test_append_io_failure_is_invisible_to_the_tail(self, tmp_path):
        wal = ChangeLog(tmp_path)
        wal.append("add_token", {"token": "tok0", "source": "t", "count": 1})
        FAULTS.arm("wal.append", fail=1)
        with pytest.raises(WalError):
            wal.append("add_token", {"token": "lost", "source": "t", "count": 1})
        batch = WalTail(tmp_path).read_after(0)
        assert [r.seq for r in batch.records] == [1] and not batch.gap

    def test_torn_write_leaves_real_bytes_and_reopen_repairs(self, tmp_path):
        wal = ChangeLog(tmp_path)
        for index in range(3):
            wal.append("add_token", {"token": f"tok{index}", "source": "t", "count": 1})
        size_before = sum(p.stat().st_size for p in tmp_path.glob("wal-*.seg"))
        FAULTS.arm("wal.append", torn=12)
        with pytest.raises(WalError, match="torn write"):
            wal.append("add_token", {"token": "doomed", "source": "t", "count": 1})
        # The simulated crash really tore the segment — partial bytes are
        # on disk and the crashed log refuses further service.
        size_after = sum(p.stat().st_size for p in tmp_path.glob("wal-*.seg"))
        assert size_after == size_before + 12
        with pytest.raises(WalError, match="closed"):
            wal.append("add_token", {"token": "after", "source": "t", "count": 1})
        # A tail never trusts the torn frame; reopening repairs it away.
        assert [r.seq for r in WalTail(tmp_path).read_after(0).records] == [1, 2, 3]
        reopened = ChangeLog(tmp_path)
        assert reopened.last_seq == 3
        assert reopened.append(
            "add_token", {"token": "recovered", "source": "t", "count": 1}
        ).seq == 4
        assert [r.seq for r in reopened.iter_records()] == [1, 2, 3, 4]

    def test_transient_tail_read_errors_are_absorbed_by_retry(self, tmp_path):
        leader = _leader(tmp_path)
        leader.learn_from(CORPUS, source="corpus")
        follower = Follower(tmp_path, config=CONFIG)
        # Two transient IO errors against a three-attempt retry policy: the
        # poll round succeeds without surfacing anything.
        FAULTS.arm("tailer.read", fail=2)
        follower.catch_up()
        assert _converged(leader, follower)
        assert follower.stats()["poll_errors"] == 0

    def test_persistent_tail_read_errors_surface_after_retries(self, tmp_path):
        leader = _leader(tmp_path)
        leader.learn_from(CORPUS, source="corpus")
        follower = Follower(tmp_path, config=CONFIG)
        FAULTS.arm("tailer.read", fail=50)
        with pytest.raises(OSError):
            follower.poll()
        stats = follower.stats()
        assert stats["poll_errors"] == 1
        assert "InjectedIOError" in stats["last_poll_error"]

    def test_snapshot_write_failure_degrades_but_the_system_keeps_serving(
        self, tmp_path
    ):
        system = CrypText.empty(config=CONFIG, seed_lexicon=False)
        system.learn_from(CORPUS, source="corpus")
        path = tmp_path / SNAPSHOT_FILE_NAME
        FAULTS.arm("snapshot.write", fail=1)
        with pytest.raises(SnapshotError):
            system.save_snapshot(path)
        # The failed save cost nothing but the save: lookups still answer,
        # and the retry (fault exhausted) lands a loadable snapshot.
        assert system.look_up("vaccine").matches
        system.save_snapshot(path)
        warm = CrypText.empty(config=CONFIG, seed_lexicon=False)
        warm.load_snapshot(path, strict=True)
        assert (
            warm.dictionary.content_fingerprint()
            == system.dictionary.content_fingerprint()
        )

    def test_torn_snapshot_write_is_detected_on_load(self, tmp_path):
        system = CrypText.empty(config=CONFIG, seed_lexicon=False)
        system.learn_from(CORPUS, source="corpus")
        path = tmp_path / SNAPSHOT_FILE_NAME
        FAULTS.arm("snapshot.write", torn=64)
        with pytest.raises(SnapshotError, match="torn write"):
            system.save_snapshot(path)
        assert path.stat().st_size == 64  # the torn bytes really landed
        cold = CrypText.empty(config=CONFIG, seed_lexicon=False)
        with pytest.raises(SnapshotError):
            cold.load_snapshot(path, strict=True)


class TestFollowerUnderFaults:
    def test_poll_faults_are_counted_and_feed_the_breaker(self, tmp_path):
        leader = _leader(tmp_path)
        leader.learn_from(CORPUS, source="corpus")
        follower = Follower(tmp_path, config=CONFIG)
        FAULTS.arm("follower.poll", fail=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                follower.poll()
        assert follower.poll_safely() is not None
        stats = follower.stats()
        assert stats["poll_errors"] == 2
        assert stats["consecutive_poll_failures"] == 0  # the success reset it
        assert stats["breaker"]["state"] == "closed"  # 2 < threshold of 5

    def test_background_tail_thread_survives_poll_faults(self, tmp_path):
        leader = _leader(tmp_path)
        leader.learn_from(CORPUS, source="corpus")
        follower = Follower(tmp_path, config=CONFIG)
        FAULTS.arm("follower.poll", fail=3)
        follower.start(poll_interval=0.01)
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = follower.stats()
                if stats["poll_errors"] >= 3 and _converged(leader, follower):
                    break
                time.sleep(0.02)
            stats = follower.stats()
            assert stats["tailing"], "the tail thread must outlive its failures"
            assert stats["poll_errors"] >= 3
            assert _converged(leader, follower)
        finally:
            follower.close()

    def test_enough_poll_faults_trip_the_replica_breaker(self, tmp_path):
        leader = _leader(tmp_path)
        leader.learn_from(CORPUS, source="corpus")
        clock = FakeClock()
        follower = Follower(tmp_path, config=CONFIG, clock=clock)
        FAULTS.arm("follower.poll", fail=CONFIG.breaker_failure_threshold)
        for _ in range(CONFIG.breaker_failure_threshold):
            assert follower.poll_safely() is None
        assert follower.breaker.state == CircuitBreaker.OPEN
        # Recovery: the window elapses, the next good poll closes it.
        clock.advance(CONFIG.breaker_recovery_seconds + 1.0)
        assert follower.breaker.allow()
        assert follower.poll_safely() is not None
        assert follower.breaker.state == CircuitBreaker.CLOSED

    def test_catch_up_is_throttled_into_bounded_slices(self, tmp_path):
        config = CrypTextConfig(cache_enabled=False, replica_catchup_batch=2)
        leader = CrypText.empty(config=config, seed_lexicon=False)
        leader.dictionary.attach_wal(ChangeLog(wal_directory_for(tmp_path)))
        # One journaled record per call (learn_from batches a whole round
        # into one compound frame): five records against a batch bound of 2.
        for text in CORPUS + LATER:
            leader.learn_from([text], source="corpus")
        follower = Follower(tmp_path, config=config)
        follower.catch_up()
        assert _converged(leader, follower)
        stats = follower.stats()
        assert stats["throttled_polls"] >= 1
        assert stats["catchup_batch"] == 2


# --------------------------------------------------------------------------- #
# degraded routing + the service surface
# --------------------------------------------------------------------------- #
class TestDegradedRouting:
    def _set(self, tmp_path, policy, followers=2, **kwargs):
        leader = _leader(tmp_path)
        leader.learn_from(CORPUS, source="corpus")
        clock = FakeClock()
        members = [
            Follower(tmp_path, config=CONFIG, name=f"follower-{i}", clock=clock)
            for i in range(followers)
        ]
        for member in members:
            member.catch_up()
        replica_set = ReplicaSet(
            leader,
            members,
            max_staleness_seconds=5.0,
            degraded_read_policy=policy,
            **kwargs,
        )
        return leader, members, replica_set, clock

    def test_unknown_policy_is_rejected(self, tmp_path):
        leader = _leader(tmp_path)
        with pytest.raises(ConfigurationError, match="degraded_read_policy"):
            ReplicaSet(leader, degraded_read_policy="shrug")

    def test_fresh_followers_serve_with_no_degradation(self, tmp_path):
        _leader_sys, members, replica_set, _clock = self._set(tmp_path, "fail_fast")
        routed = replica_set.route_read()
        assert routed.follower in members and routed.degraded is None

    def test_leader_fallback_when_every_follower_is_stale(self, tmp_path):
        leader, _members, replica_set, clock = self._set(tmp_path, "leader")
        clock.advance(60.0)
        routed = replica_set.route_read()
        assert routed.system is leader and routed.degraded == "leader_fallback"
        assert replica_set.status()["routed_to_leader"] == 1

    def test_stale_policy_serves_the_least_stale_follower(self, tmp_path):
        _leader_sys, members, replica_set, clock = self._set(tmp_path, "stale")
        clock.advance(60.0)
        routed = replica_set.route_read()
        assert routed.follower in members and routed.degraded == "stale"
        outcome = replica_set.execute(lambda system: system.look_up("vaccine"))
        assert outcome.degraded == "stale" and outcome.result.matches
        assert replica_set.status()["stale_reads"] >= 2

    def test_fail_fast_policy_raises(self, tmp_path):
        _leader_sys, _members, replica_set, clock = self._set(tmp_path, "fail_fast")
        clock.advance(60.0)
        with pytest.raises(ReplicasUnavailableError):
            replica_set.route_read()
        assert replica_set.status()["failed_fast"] == 1

    def test_an_open_breaker_excludes_its_follower_from_rotation(self, tmp_path):
        _leader_sys, members, replica_set, _clock = self._set(tmp_path, "leader")
        for _ in range(members[0].breaker.failure_threshold):
            members[0].breaker.record_failure()
        for _ in range(6):
            routed = replica_set.route_read()
            assert routed.follower is members[1]

    def test_every_breaker_open_degrades_even_when_fresh(self, tmp_path):
        leader, members, replica_set, _clock = self._set(tmp_path, "leader")
        for member in members:
            for _ in range(member.breaker.failure_threshold):
                member.breaker.record_failure()
        routed = replica_set.route_read()
        assert routed.system is leader and routed.degraded == "leader_fallback"

    def test_a_failing_follower_read_fails_over_to_the_leader_once(self, tmp_path):
        leader, members, replica_set, _clock = self._set(tmp_path, "leader", followers=1)

        def compute(system):
            if system is not leader:
                raise RuntimeError("replica blew up mid-read")
            return system.look_up("vaccine")

        outcome = replica_set.execute(compute)
        assert outcome.result.matches and outcome.degraded == "leader_fallback"
        status = replica_set.status()
        assert status["read_failovers"] == 1
        assert members[0].breaker.status()["consecutive_failures"] == 1

    def test_application_errors_say_nothing_about_replica_health(self, tmp_path):
        _leader_sys, members, replica_set, _clock = self._set(
            tmp_path, "leader", followers=1
        )

        def compute(system):
            raise ReplicasUnavailableError("a CrypTextError subtype")

        with pytest.raises(ReplicasUnavailableError):
            replica_set.execute(compute)
        assert members[0].breaker.status()["consecutive_failures"] == 0
        assert replica_set.status()["read_failovers"] == 0


class TestServiceDegradation:
    def _service(self, tmp_path, policy):
        leader = _leader(tmp_path)
        leader.learn_from(CORPUS, source="corpus")
        clock = FakeClock()
        followers = [
            Follower(tmp_path, config=CONFIG, name=f"follower-{i}", clock=clock)
            for i in range(2)
        ]
        for follower in followers:
            follower.catch_up()
        replica_set = ReplicaSet(
            leader, followers, max_staleness_seconds=5.0, degraded_read_policy=policy
        )
        service = CrypTextService(
            leader,
            replica_set=replica_set,
            rate_limiter=RateLimiter(max_requests=10000, window_seconds=60),
        )
        token = service.issue_token("chaos").token
        return service, token, clock

    def test_stale_reads_carry_the_warning_header(self, tmp_path):
        service, token, clock = self._service(tmp_path, "stale")
        response = service.lookup(token, ["vaccine"])
        assert response.status == 200 and response.headers == {}
        assert "headers" not in response.to_dict()
        clock.advance(60.0)
        degraded = service.lookup(token, ["vacc1ne"])
        assert degraded.status == 200
        assert degraded.headers == {"X-CrypText-Degraded": "stale"}
        assert degraded.to_dict()["headers"] == {"X-CrypText-Degraded": "stale"}

    def test_fail_fast_is_a_503(self, tmp_path):
        service, token, clock = self._service(tmp_path, "fail_fast")
        clock.advance(60.0)
        response = service.normalize(token, ["teh vaccine works"])
        assert response.status == 503
        assert "no healthy replica" in response.body["error"]

    def test_leader_fallback_answers_200_with_no_header(self, tmp_path):
        service, token, clock = self._service(tmp_path, "leader")
        clock.advance(60.0)
        response = service.lookup(token, ["vaccine"])
        assert response.status == 200 and response.headers == {}

    def test_an_expired_deadline_is_a_504(self, tmp_path):
        service, token, _clock = self._service(tmp_path, "leader")
        expired = Deadline(0.0, clock=lambda: 1.0)
        with expired.activate():
            response = service.lookup(token, ["vaccine"])
        assert response.status == 504
        assert "deadline" in response.body["error"]


# --------------------------------------------------------------------------- #
# the async front: deadlines, dispatch faults, protocol edges, keep-alive
# --------------------------------------------------------------------------- #
def _plain_service(tmp_path) -> tuple[CrypTextService, str]:
    leader = _leader(tmp_path)
    leader.learn_from(CORPUS, source="corpus")
    service = CrypTextService(
        leader, rate_limiter=RateLimiter(max_requests=10000, window_seconds=60)
    )
    return service, service.issue_token("chaos").token


def _encode_request(
    method: str,
    path: str,
    token: str | None = None,
    payload: dict | None = None,
    close: bool = False,
) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    lines = [f"{method} {path} HTTP/1.1", "Host: t"]
    if close:
        lines.append("Connection: close")
    if token is not None:
        lines.append(f"Authorization: Bearer {token}")
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + body


async def _request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    token: str | None = None,
    payload: dict | None = None,
    close: bool = False,
) -> tuple[int, dict, dict[str, str]]:
    """One exchange on an existing (possibly reused) connection."""
    writer.write(_encode_request(method, path, token, payload, close))
    await writer.drain()
    return await _read_response(reader)


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict, dict[str, str]]:
    status_line = await reader.readline()
    status = int(status_line.split(b" ", 2)[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    payload_bytes = await reader.readexactly(int(headers["content-length"]))
    return status, json.loads(payload_bytes.decode("utf-8")), headers


class TestAsyncFrontResilience:
    def test_slow_handlers_answer_504_within_the_deadline(self, tmp_path):
        service, token = _plain_service(tmp_path)
        real_lookup = service.lookup

        def slow_lookup(*args, **kwargs):
            time.sleep(0.5)
            return real_lookup(*args, **kwargs)

        service.lookup = slow_lookup  # type: ignore[method-assign]
        front = AsyncCrypTextService(service, reader_threads=1, request_deadline=0.05)

        async def scenario():
            started = time.monotonic()
            response = await front.dispatch(
                "POST", "/v1/lookup", token, {"queries": ["vaccine"]}
            )
            elapsed = time.monotonic() - started
            assert response.status == 504
            assert "0.05s deadline" in response.body["error"]
            assert elapsed < 0.4  # answered at the deadline, not the handler

        asyncio.run(scenario())

    def test_handlers_inside_the_budget_are_untouched(self, tmp_path):
        service, token = _plain_service(tmp_path)
        front = AsyncCrypTextService(service, reader_threads=1, request_deadline=30.0)

        async def scenario():
            response = await front.dispatch(
                "POST", "/v1/lookup", token, {"queries": ["vaccine"]}
            )
            assert response.status == 200

        asyncio.run(scenario())

    def test_dispatch_faults_answer_500_and_delays_yield_the_loop(self, tmp_path):
        service, token = _plain_service(tmp_path)
        front = AsyncCrypTextService(service, reader_threads=1)
        FAULTS.arm("front.dispatch", fail=1, delay=0.01, delay_times=1)

        async def scenario():
            response = await front.dispatch(
                "POST", "/v1/lookup", token, {"queries": ["vaccine"]}
            )
            assert response.status == 500
            assert "injected fault at front.dispatch" in response.body["error"]
            response = await front.dispatch(
                "POST", "/v1/lookup", token, {"queries": ["vaccine"]}
            )
            assert response.status == 200  # the rule exhausted itself

        asyncio.run(scenario())
        assert FAULTS.fired("front.dispatch") == 1

    def test_deadline_validation(self, tmp_path):
        service, _token = _plain_service(tmp_path)
        from repro.errors import CrypTextError

        with pytest.raises(CrypTextError):
            AsyncCrypTextService(service, request_deadline=0.0)
        with pytest.raises(CrypTextError):
            AsyncCrypTextService(service, max_body_bytes=0)


class TestAsyncFrontProtocolEdges:
    def test_truncated_request_line_is_a_400(self, tmp_path):
        service, _token = _plain_service(tmp_path)
        front = AsyncCrypTextService(service, reader_threads=1)

        async def scenario():
            host, port = await front.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"POST /v1/look")  # the line never completes
                writer.write_eof()
                raw = await reader.read(-1)
                writer.close()
                assert b" 400 " in raw.split(b"\r\n", 1)[0]
                assert b"malformed request line" in raw
            finally:
                await front.stop()

        asyncio.run(scenario())

    def test_client_disconnect_mid_request_leaves_the_server_healthy(self, tmp_path):
        service, token = _plain_service(tmp_path)
        front = AsyncCrypTextService(service, reader_threads=1)

        async def scenario():
            host, port = await front.start()
            try:
                # A client promises 100 bytes, sends 10, and vanishes.
                _reader, rude = await asyncio.open_connection(host, port)
                rude.write(
                    b"POST /v1/lookup HTTP/1.1\r\nContent-Length: 100\r\n\r\nincomplete"
                )
                await rude.drain()
                rude.close()
                # The next client is served as if nothing happened.
                reader, writer = await asyncio.open_connection(host, port)
                status, body, _headers = await _request(
                    reader,
                    writer,
                    "POST",
                    "/v1/lookup",
                    token,
                    {"queries": ["vaccine"]},
                    close=True,
                )
                writer.close()
                assert status == 200 and body["results"]["vaccine"]["matches"]
            finally:
                await front.stop()

        asyncio.run(scenario())

    def test_body_cap_boundary(self, tmp_path):
        service, token = _plain_service(tmp_path)
        payload = json.dumps({"queries": ["vaccine"]}).encode("utf-8")
        front = AsyncCrypTextService(
            service, reader_threads=1, max_body_bytes=len(payload)
        )

        async def scenario():
            host, port = await front.start()
            try:
                # Exactly at the cap: served normally.
                reader, writer = await asyncio.open_connection(host, port)
                status, body, _headers = await _request(
                    reader,
                    writer,
                    "POST",
                    "/v1/lookup",
                    token,
                    {"queries": ["vaccine"]},
                    close=True,
                )
                writer.close()
                assert status == 200
                # One byte over: refused before the body is read, and the
                # connection closes (the unread body poisons framing).
                reader, writer = await asyncio.open_connection(host, port)
                oversized = json.dumps({"queries": ["vaccinee"]}).encode("utf-8")
                assert len(oversized) == len(payload) + 1
                writer.write(
                    b"POST /v1/lookup HTTP/1.1\r\nAuthorization: Bearer "
                    + token.encode("ascii")
                    + b"\r\nContent-Length: %d\r\n\r\n" % len(oversized)
                    + oversized
                )
                await writer.drain()
                raw = await reader.read(-1)  # EOF proves the server closed
                writer.close()
                assert b" 400 " in raw.split(b"\r\n", 1)[0]
                assert b"request body too large" in raw
            finally:
                await front.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "declared, body",
        [
            (b"-5", b""),
            (b"+7", b'{"q":1}'),  # int() reads 7: the body is there to read
            (b"1_0", b'{"q": 100}'),  # int() reads 10
            (b"\xb2", b""),  # latin-1 superscript two: isdigit(), not ASCII
        ],
        ids=["negative", "plus-sign", "underscore", "non-ascii-digit"],
    )
    def test_content_length_must_be_ascii_digits(self, tmp_path, declared, body):
        service, token = _plain_service(tmp_path)
        front = AsyncCrypTextService(service, reader_threads=1)

        async def scenario():
            host, port = await front.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /v1/lookup HTTP/1.1\r\nConnection: close\r\n"
                    b"Authorization: Bearer "
                    + token.encode("ascii")
                    + b"\r\nContent-Length: "
                    + declared
                    + b"\r\n\r\n"
                    + body
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), 10)  # EOF: closed
                writer.close()
                assert b" 400 " in raw.split(b"\r\n", 1)[0], raw
                assert b"bad Content-Length" in raw
            finally:
                await front.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "method, path, declared, status, body",
        [
            # More digits than int() converts: refused before the body.
            ("POST", "/v1/lookup", b"9" * 5000, b" 400 ", b"request body too large"),
            # Leading zeros do not count: this is an empty body.
            ("GET", "/v1/stats", b"0" * 5000, b" 200 ", b'"stats"'),
        ],
        ids=["5000-digits", "5000-zeros"],
    )
    def test_overlong_content_length(self, tmp_path, method, path, declared, status, body):
        service, token = _plain_service(tmp_path)
        front = AsyncCrypTextService(service, reader_threads=1)

        async def scenario():
            host, port = await front.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    method.encode("ascii") + b" " + path.encode("ascii")
                    + b" HTTP/1.1\r\nConnection: close\r\nAuthorization: Bearer "
                    + token.encode("ascii")
                    + b"\r\nContent-Length: "
                    + declared
                    + b"\r\n\r\n"
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), 10)  # EOF: closed
                writer.close()
                assert status in raw.split(b"\r\n", 1)[0], raw[:300]
                assert body in raw
            finally:
                await front.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "header_lines",
        [
            [b"X-Pad-%d: v" % index for index in range(20_000)],
            [b"X-Long: " + b"v" * (100 << 10)],  # one line over the stream limit
        ],
        ids=["20000-short-lines", "one-100KiB-line"],
    )
    def test_oversized_header_block_is_a_400_and_closes(self, tmp_path, header_lines):
        service, token = _plain_service(tmp_path)
        front = AsyncCrypTextService(service, reader_threads=1)

        async def scenario():
            host, port = await front.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                lines = [b"GET /v1/stats HTTP/1.1", b"Connection: close"]
                writer.write(b"\r\n".join(lines + header_lines) + b"\r\n\r\n")
                raw = await asyncio.wait_for(reader.read(-1), 10)  # EOF: closed
                writer.close()
                assert b" 400 " in raw.split(b"\r\n", 1)[0], raw[:200]
                assert b"request headers too large" in raw
                # The front itself is unharmed.
                reader, writer = await asyncio.open_connection(host, port)
                status, _body, _headers = await _request(
                    reader, writer, "POST", "/v1/lookup", token,
                    {"queries": ["vaccine"]}, close=True,
                )
                writer.close()
                assert status == 200
            finally:
                await front.stop()

        asyncio.run(scenario())

    def test_keep_alive_serves_sequential_requests_on_one_connection(self, tmp_path):
        service, token = _plain_service(tmp_path)
        front = AsyncCrypTextService(service, reader_threads=1)

        async def scenario():
            host, port = await front.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                for query in ("vaccine", "democrats", "republicans"):
                    status, body, headers = await _request(
                        reader, writer, "POST", "/v1/lookup", token, {"queries": [query]}
                    )
                    assert status == 200 and query in body["results"]
                    assert headers["connection"] == "keep-alive"
                status, _body, headers = await _request(
                    reader, writer, "GET", "/v1/stats", token, close=True
                )
                assert status == 200 and headers["connection"] == "close"
                assert await reader.read(-1) == b""  # the server hung up
                writer.close()
            finally:
                await front.stop()

        asyncio.run(scenario())

    def test_concurrent_keep_alive_connections(self, tmp_path):
        service, token = _plain_service(tmp_path)
        front = AsyncCrypTextService(service, reader_threads=2)

        async def one_client(host, port, query):
            reader, writer = await asyncio.open_connection(host, port)
            statuses = []
            for _ in range(3):
                status, body, _headers = await _request(
                    reader, writer, "POST", "/v1/lookup", token, {"queries": [query]}
                )
                statuses.append(status)
                assert query in body["results"]
            writer.close()
            return statuses

        async def scenario():
            host, port = await front.start()
            try:
                results = await asyncio.gather(
                    *(one_client(host, port, q) for q in ("vaccine", "teh", "dirty", "lie"))
                )
                assert all(statuses == [200, 200, 200] for statuses in results)
            finally:
                await front.stop()

        asyncio.run(scenario())


def _handler_threads(
    tmp_path, method: str, path: str, payload: dict | None, handler: str,
    status: int = 200, **front
) -> tuple[list[str], str]:
    """Dispatch one request that must answer ``status``; return the threads
    ``service.<handler>`` ran on and the event loop's own thread."""
    service, token = _plain_service(tmp_path)
    threads: list[str] = []
    real = getattr(service, handler)

    def recording(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(*args, **kwargs)

    setattr(service, handler, recording)
    front_service = AsyncCrypTextService(service, reader_threads=1, **front)

    async def scenario():
        response = await front_service.dispatch(method, path, token, payload)
        assert response.status == status, response.body
        return threading.current_thread().name

    return threads, asyncio.run(scenario())


_PER_ITEM = INLINE_MAX_CHARS // INLINE_MAX_ITEMS  # the bound splits evenly
_AT_THE_BOUND = ["v" * _PER_ITEM] * INLINE_MAX_ITEMS


class TestAsyncFrontInlineSplit:
    """Small reads run on the event loop; everything else on the pool."""

    @pytest.mark.parametrize(
        "method, path, payload, handler",
        [
            ("POST", "/v1/lookup", {"queries": ["vaccine"]}, "lookup"),
            ("POST", "/v1/lookup", {"queries": _AT_THE_BOUND}, "lookup"),
            ("POST", "/v1/normalize", {"texts": ["teh vacc1ne"]}, "normalize"),
            ("POST", "/v1/batch/lookup", {"queries": ["vaccine"]}, "batch_lookup"),
            ("POST", "/v1/batch/normalize", {"texts": ["teh"]}, "batch_normalize"),
            ("POST", "/v1/perturb", {"texts": ["the vaccine"]}, "perturb"),
        ],
        ids=["lookup", "lookup-at-the-bound", "normalize", "batch-lookup",
             "batch-normalize", "perturb"],
    )
    def test_small_reads_run_on_the_loop_thread(
        self, tmp_path, method, path, payload, handler
    ):
        threads, loop_thread = _handler_threads(tmp_path, method, path, payload, handler)
        assert threads == [loop_thread]

    @pytest.mark.parametrize(
        "method, path, payload, handler, status, front",
        [
            (
                "POST", "/v1/lookup", {"queries": ["v"] * (INLINE_MAX_ITEMS + 1)},
                "lookup", 200, {},
            ),
            (
                "POST", "/v1/lookup",
                {"queries": _AT_THE_BOUND[:-1] + ["v" * (_PER_ITEM + 1)]},
                "lookup", 200, {},
            ),
            # Not a list: the handler decides what it means (a 400).
            ("POST", "/v1/lookup", {"queries": "vaccine"}, "lookup", 400, {}),
            ("GET", "/v1/stats", None, "stats", 200, {}),
            (
                "POST", "/v1/lookup", {"queries": ["vaccine"]}, "lookup", 200,
                {"request_deadline": 30.0},
            ),
        ],
        ids=["one-item-over", "one-char-over", "not-a-list", "stats", "deadline"],
    )
    def test_other_requests_run_on_the_pool(
        self, tmp_path, method, path, payload, handler, status, front
    ):
        threads, _loop_thread = _handler_threads(
            tmp_path, method, path, payload, handler, status=status, **front
        )
        assert len(threads) == 1 and threads[0].startswith("cryptext-read")

    def test_every_handler_goes_through_call(self, tmp_path, monkeypatch):
        # The end-to-end benchmark's tracer wraps _call by name and times
        # the handler it is given, passing the keywords through untouched:
        # a handler run around _call, or an inline decision passed
        # positionally, would drop out of its per-layer split.
        service, token = _plain_service(tmp_path)
        decisions: list[bool] = []
        real_call = AsyncCrypTextService._call

        async def recording_call(front, handler, /, *args, **kwargs):
            decisions.append(kwargs.get("inline", False))
            return await real_call(front, handler, *args, **kwargs)

        monkeypatch.setattr(AsyncCrypTextService, "_call", recording_call)
        front = AsyncCrypTextService(service, reader_threads=1)

        async def scenario():
            small = await front.dispatch(
                "POST", "/v1/lookup", token, {"queries": ["vaccine"]}
            )
            stats = await front.dispatch("GET", "/v1/stats", token, None)
            assert small.status == stats.status == 200

        asyncio.run(scenario())
        assert decisions == [True, False]

    def test_a_pipelining_peer_does_not_hold_the_loop(self, tmp_path):
        service, token = _plain_service(tmp_path)
        served: list[str] = []
        real_lookup = service.lookup

        def recording_lookup(token, queries, **kwargs):
            served.append(queries[0])
            return real_lookup(token, queries, **kwargs)

        service.lookup = recording_lookup  # type: ignore[method-assign]
        front = AsyncCrypTextService(service, reader_threads=1)
        pipelined = [f"a{index}" for index in range(8)]

        async def scenario():
            host, port = await front.start()
            try:
                peers = [await asyncio.open_connection(host, port) for _ in range(2)]
                # One exchange each: both connections now wait in a read.
                for reader, writer in peers:
                    status, _body, _headers = await _request(
                        reader, writer, "GET", "/v1/stats", token
                    )
                    assert status == 200
                (a_reader, a_writer), (b_reader, b_writer) = peers
                a_writer.write(
                    b"".join(
                        _encode_request(
                            "POST", "/v1/lookup", token, {"queries": [query]}
                        )
                        for query in pipelined
                    )
                )
                b_writer.write(
                    _encode_request("POST", "/v1/lookup", token, {"queries": ["b"]})
                )
                for _ in pipelined:
                    status, _body, _headers = await _read_response(a_reader)
                    assert status == 200
                status, _body, _headers = await _read_response(b_reader)
                assert status == 200
                for _reader, writer in peers:
                    writer.close()
            finally:
                await front.stop()

        asyncio.run(scenario())
        assert sorted(served) == sorted(pipelined + ["b"])
        # Served between two of the pipelined requests, not after all of them.
        assert served.index("b") < len(pipelined)

    def test_small_reads_are_served_while_a_pooled_handler_blocks(self, tmp_path):
        service, token = _plain_service(tmp_path)
        real_stats = service.stats
        entered, release = threading.Event(), threading.Event()

        def blocking_stats(*args, **kwargs):
            entered.set()
            if not release.wait(timeout=30):
                raise AssertionError("the blocked handler was never released")
            return real_stats(*args, **kwargs)

        service.stats = blocking_stats  # type: ignore[method-assign]
        # One pool thread, held by the stats call: only the loop can answer.
        front = AsyncCrypTextService(service, reader_threads=1)

        async def scenario():
            host, port = await front.start()
            try:
                stats_reader, stats_writer = await asyncio.open_connection(host, port)
                stats = asyncio.create_task(
                    _request(stats_reader, stats_writer, "GET", "/v1/stats", token)
                )
                assert await asyncio.to_thread(entered.wait, 30)
                reader, writer = await asyncio.open_connection(host, port)
                status, body, _headers = await asyncio.wait_for(
                    _request(
                        reader, writer, "POST", "/v1/lookup", token,
                        {"queries": ["vaccine"]}, close=True,
                    ),
                    30,
                )
                writer.close()
                assert status == 200 and body["results"]["vaccine"]["matches"]
                assert not stats.done()  # still parked in the pool
                release.set()
                status, _body, _headers = await asyncio.wait_for(stats, 30)
                stats_writer.close()
                assert status == 200
            finally:
                release.set()
                await front.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# cross-process supervision
# --------------------------------------------------------------------------- #
class TestReplicaSupervisor:
    def test_check_before_start_is_an_error(self, tmp_path):
        supervisor = ReplicaSupervisor(tmp_path, workers=1)
        with pytest.raises(ResilienceError, match="not started"):
            supervisor.check()
        assert supervisor.kill_worker("worker-0") is False  # nothing running

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"status_interval": 0.0},
            {"restart_backoff": 0.0},
            {"restart_backoff": 2.0, "max_restart_backoff": 1.0},
        ],
    )
    def test_validation(self, tmp_path, kwargs):
        with pytest.raises(ConfigurationError):
            ReplicaSupervisor(tmp_path, **kwargs)

    def test_workers_converge_survive_sigkill_and_reconverge(self, tmp_path):
        leader = _leader(tmp_path)
        leader.learn_from(CORPUS, source="corpus")
        supervisor = ReplicaSupervisor(
            tmp_path,
            workers=2,
            config=CONFIG,
            poll_interval=0.05,
            status_interval=0.1,
            restart_backoff=0.1,
        )
        with supervisor:
            fingerprint = leader.dictionary.content_fingerprint()
            assert supervisor.wait_converged(
                fingerprint, timeout=60.0
            ), f"workers never converged: {supervisor.status()}"
            status = supervisor.status()
            assert all(m["healthy"] for m in status["workers"])
            assert {m["heartbeat"]["fingerprint"] for m in status["workers"]} == {
                fingerprint
            }

            # Chaos: SIGKILL one worker mid-flight, keep writing.
            assert supervisor.kill_worker("worker-0", signal.SIGKILL)
            leader.learn_from(LATER, source="corpus")
            fingerprint = leader.dictionary.content_fingerprint()
            leader_seq = leader.dictionary.wal.last_seq
            assert supervisor.wait_converged(
                fingerprint, timeout=60.0, min_applied_seq=leader_seq
            ), f"workers never re-converged after the kill: {supervisor.status()}"
            status = supervisor.status()
            worker0 = next(m for m in status["workers"] if m["name"] == "worker-0")
            assert worker0["restarts"] >= 1, "the supervisor must restart the victim"
            assert worker0["healthy"]
        # The context exit stopped everything.
        assert all(not w.alive() for w in supervisor.workers)


# --------------------------------------------------------------------------- #
# configuration surface
# --------------------------------------------------------------------------- #
class TestResilienceConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"degraded_read_policy": "shrug"},
            {"request_deadline_seconds": 0.0},
            {"request_deadline_seconds": -1.0},
            {"retry_attempts": 0},
            {"retry_attempts": 1.5},
            {"retry_base_delay": -0.01},
            {"breaker_failure_threshold": 0},
            {"breaker_recovery_seconds": 0.0},
            {"replica_catchup_batch": 0},
        ],
    )
    def test_invalid_values_fail_at_construction(self, overrides):
        with pytest.raises(ConfigurationError):
            CrypTextConfig(**overrides)

    def test_resilience_fields_round_trip(self):
        config = CrypTextConfig(
            degraded_read_policy="stale",
            request_deadline_seconds=2.5,
            retry_attempts=4,
            retry_base_delay=0.01,
            breaker_failure_threshold=7,
            breaker_recovery_seconds=12.0,
            replica_catchup_batch=128,
        )
        restored = CrypTextConfig.from_dict(config.to_dict())
        assert restored.degraded_read_policy == "stale"
        assert restored.request_deadline_seconds == 2.5
        assert restored.retry_attempts == 4
        assert restored.retry_base_delay == 0.01
        assert restored.breaker_failure_threshold == 7
        assert restored.breaker_recovery_seconds == 12.0
        assert restored.replica_catchup_batch == 128

    def test_defaults_are_valid_and_disarmed(self):
        config = CrypTextConfig()
        assert config.degraded_read_policy == "leader"
        assert config.request_deadline_seconds is None
        assert not FAULTS.has_rules
        # `armed` is also forced true by the sanitizer's passive observer
        # (CRYPTEXT_SANITIZE=1), so only assert it without one attached.
        from repro.analysis.sanitizer import active

        if active() is None:
            assert not FAULTS.armed
