"""Unit tests for crash points: the validator, the installer, seeded draws."""

import pytest

from repro.faults import (
    CrashPoint,
    install_crash_points,
    random_crash_points,
    validate_crash_points,
)

from tests.sim.conftest import build_recorders


def _timed(*pids, at=1.0):
    return tuple(CrashPoint(shard=0, replica=pid, allow_writer=True, at_time=at) for pid in pids)


def _install(simulator, network, *points):
    install_crash_points(
        points, simulator, network, lambda point: network.process(point.replica).crash()
    )


class TestValidator:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            validate_crash_points((CrashPoint(shard=0, replica=1),), 1, 5)
        with pytest.raises(ValueError, match="exactly one"):
            validate_crash_points(
                (CrashPoint(shard=0, replica=1, at_time=1.0, after_messages_sent=3),), 1, 5
            )

    def test_rejects_negative_triggers(self):
        with pytest.raises(ValueError, match="non-negative"):
            validate_crash_points((CrashPoint(shard=0, replica=1, at_time=-1.0),), 1, 5)
        with pytest.raises(ValueError, match="non-negative"):
            validate_crash_points((CrashPoint(shard=0, replica=1, after_messages_sent=-1),), 1, 5)

    def test_no_points_is_the_failure_free_run(self):
        validate_crash_points((), 1, 2)

    def test_rejects_unknown_shard_and_replica(self):
        with pytest.raises(ValueError, match="replica out of range"):
            validate_crash_points(_timed(9), 1, 5)
        with pytest.raises(ValueError, match="shard out of range"):
            validate_crash_points((CrashPoint(shard=2, replica=1, at_time=1.0),), 2, 5)

    def test_rejects_double_crash(self):
        with pytest.raises(ValueError, match="twice"):
            validate_crash_points(_timed(1) + _timed(1, at=2.0), 1, 5)

    def test_rejects_majority_crashes(self):
        with pytest.raises(ValueError, match="t < n/2"):
            validate_crash_points(_timed(0, 1, 2), 1, 5)

    def test_accepts_exact_minority(self):
        validate_crash_points(_timed(0, 1), 1, 5)
        validate_crash_points(_timed(0, 1, 2), 1, 7)

    def test_budget_is_per_shard(self):
        points = tuple(CrashPoint(shard=s, replica=1, at_time=1.0) for s in range(4))
        validate_crash_points(points, 4, 3)

    def test_writer_protection(self):
        validate_crash_points(_timed(0), 1, 5)
        with pytest.raises(ValueError, match="allow_writer"):
            validate_crash_points((CrashPoint(shard=0, replica=0, at_time=1.0),), 1, 5)


class TestInstaller:
    def test_timed_crash_fires_at_the_scheduled_time(self, simulator, network):
        processes = build_recorders(simulator, network, 3)
        _install(simulator, network, *_timed(1, at=7.0))
        simulator.schedule_at(20.0, lambda: None)  # keep the clock moving
        simulator.run()
        assert processes[1].crashed
        assert processes[1].crash_time == 7.0
        assert not processes[0].crashed and not processes[2].crashed

    def test_a_time_already_past_fires_at_once(self, simulator, network):
        processes = build_recorders(simulator, network, 3)
        simulator.schedule_at(5.0, lambda: None)
        simulator.run()
        _install(simulator, network, *_timed(2, at=1.0))
        assert simulator.pending_events == 1
        simulator.run()
        assert processes[2].crash_time == 5.0

    def test_message_count_triggered_crash(self, simulator, network):
        processes = build_recorders(simulator, network, 3)
        _install(simulator, network, CrashPoint(shard=0, replica=0, after_messages_sent=2))
        processes[0].send(1, "first")
        simulator.run()
        assert not processes[0].crashed
        processes[0].send(2, "second")
        simulator.run()
        assert processes[0].crashed
        processes[0].send(1, "third")
        simulator.run()
        assert network.stats.messages_sent == 2

    def test_zero_message_trigger_crashes_immediately(self, simulator, network):
        processes = build_recorders(simulator, network, 2)
        _install(simulator, network, CrashPoint(shard=0, replica=0, after_messages_sent=0))
        assert processes[0].crashed


class TestAfterMessagesTrigger:
    """The k-th-send trigger must fire exactly once, *at* the k-th send."""

    def test_fires_mid_event_immediately_after_kth_send(self, simulator, network):
        # All sends happen inside ONE event (a broadcast-like burst): the
        # crash must land between the 2nd and 3rd send, not after the event.
        processes = build_recorders(simulator, network, 3)
        _install(simulator, network, CrashPoint(shard=0, replica=0, after_messages_sent=2))

        def burst():
            processes[0].send(1, "m1")
            processes[0].send(2, "m2")  # k-th send: crash fires here
            processes[0].send(1, "m3")  # must be suppressed
            processes[0].send(2, "m4")  # must be suppressed

        simulator.schedule_at(1.0, burst)
        simulator.drain()
        assert processes[0].crashed
        assert processes[0].crash_time == 1.0
        assert network.stats.messages_sent == 2
        # The k-th message itself was already in flight: it is delivered.
        assert (0, "m2") in processes[2].received

    def test_fires_exactly_once(self, simulator, network):
        processes = build_recorders(simulator, network, 3)
        fired = []

        def crash(point):
            fired.append(simulator.now)
            network.process(point.replica).crash()

        point = CrashPoint(shard=0, replica=1, after_messages_sent=1)
        install_crash_points((point,), simulator, network, crash)
        processes[1].send(0, "only")
        assert processes[1].crashed and fired == [simulator.now]
        # Later traffic from other processes must not re-trigger anything.
        processes[0].send(2, "unrelated")
        simulator.drain()
        assert len(fired) == 1
        assert network.stats.per_sender.get(1, 0) == 1

    def test_kth_send_inside_a_partition_window(self, simulator, network):
        # Partitions hold deliveries, not sends: the trigger still fires at
        # the k-th send even though the messages are in a held window, and
        # the in-flight messages land after the heal (crash does not retract).
        from repro.faults.partitions import PartitionSchedule, PartitionWindow

        processes = build_recorders(simulator, network, 3)
        network.link_policy = PartitionSchedule(
            windows=(PartitionWindow.isolate((0,), 3, start=0.0, heal=20.0),)
        )
        _install(simulator, network, CrashPoint(shard=0, replica=0, after_messages_sent=2))

        def burst():
            processes[0].send(1, "p1")
            processes[0].send(2, "p2")  # k-th send, inside the window
            processes[0].send(1, "p3")  # suppressed by the crash

        simulator.schedule_at(5.0, burst)
        simulator.drain()
        assert processes[0].crashed and processes[0].crash_time == 5.0
        assert network.stats.messages_sent == 2
        # Held messages survive the sender's crash and deliver after the heal.
        assert processes[1].received == [(0, "p1")]
        assert processes[2].received == [(0, "p2")]
        assert simulator.now >= 20.0


class TestRandomCrashPoints:
    def test_reproducible_for_same_seed(self):
        assert random_crash_points(n=9, seed=42) == random_crash_points(n=9, seed=42)

    def test_respects_minority_bound(self):
        for seed in range(30):
            points = random_crash_points(n=7, seed=seed)
            assert len(points) <= 3
            validate_crash_points(points, 1, 7)

    def test_excluded_pids_never_crash(self):
        for seed in range(30):
            points = random_crash_points(n=7, seed=seed, exclude=(0,))
            assert 0 not in [point.replica for point in points]

    def test_max_crashes_cap(self):
        for seed in range(30):
            assert len(random_crash_points(n=9, seed=seed, max_crashes=1)) <= 1

    def test_crash_times_within_horizon(self):
        for point in random_crash_points(n=9, seed=3, horizon=10.0):
            assert point.shard == 0
            assert 0.0 <= point.at_time <= 10.0
