"""Unit tests for the unified execution engine (:mod:`repro.exec`)."""

import pytest

from repro.exec import (
    ClosedLoopClient,
    Driver,
    MetricsCollector,
    OpenLoopClient,
    OpRequest,
    StoreTarget,
    arrival_times,
    poisson_arrival_times,
    uniform_arrival_times,
)
from repro.registers.base import OperationKind
from repro.registers.registry import get_algorithm
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.rng import make_rng
from repro.sim.scheduler import Simulator
from repro.sim.tracing import Tracer
from repro.store import create_store


def deploy(n=3, algorithm="abd", delay=None):
    simulator = Simulator(tracer=Tracer(enabled=False))
    network = Network(simulator, delay_model=delay or FixedDelay(1.0))
    processes = get_algorithm(algorithm).build(
        simulator, network, n, writer_pid=0, initial_value="v0"
    )
    return simulator, network, processes


class TestDriver:
    def test_submit_and_drive_completes(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator, metrics=MetricsCollector(network))
        write = driver.new_op(OperationKind.WRITE, value="v1")
        driver.submit(processes[0], write)
        assert driver.outstanding == 1
        assert driver.drive() is True
        assert write.completed and write.result == "v1"
        assert driver.outstanding == 0

    def test_per_process_fifo_preserves_program_order(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        first = driver.new_op(OperationKind.WRITE, value="v1")
        second = driver.new_op(OperationKind.WRITE, value="v2")
        third = driver.new_op(OperationKind.READ)
        driver.submit(processes[0], first)
        driver.submit(processes[0], second)
        driver.submit(processes[1], third)
        assert driver.drive() is True
        # second chains synchronously when first completes (same virtual time)
        assert first.record.responded_at <= second.record.invoked_at
        # The read on another process overlapped the queued writes.
        assert third.record.invoked_at < second.record.invoked_at
        assert third.completed and third.result in ("v0", "v1", "v2")
        # sojourn latency of the queued write includes its wait for first
        assert second.sojourn_latency == pytest.approx(
            second.record.latency + first.record.latency
        )

    def test_records_in_issue_order(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        for value in ("v1", "v2", "v3"):
            driver.submit(processes[0], driver.new_op(OperationKind.WRITE, value=value))
        driver.drive()
        assert [r.value for r in driver.records] == ["v1", "v2", "v3"]

    def test_crash_before_issue_fails_op(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator, metrics=MetricsCollector(network))
        processes[1].crash()
        done = []
        op = driver.new_op(OperationKind.READ, on_done=done.append)
        driver.submit(processes[1], op)
        assert op.failed and "crashed before issuing" in op.failure_reason
        assert driver.outstanding == 0
        assert driver.metrics.failed == 1
        assert done == [op]  # on_done fires on failure paths too

    def test_on_done_fires_when_ops_fail_stuck(self):
        simulator, network, processes = deploy(n=3)
        driver = Driver(simulator)
        done = []
        op = driver.new_op(OperationKind.WRITE, value="v1", on_done=done.append)
        driver.submit(processes[0], op)
        processes[1].crash()
        processes[2].crash()
        driver.drive(limit=simulator.now + 1_000.0)
        assert op.failed and done == [op]

    def test_stuck_detection_fails_queued_ops(self):
        simulator, network, processes = deploy(n=3)
        driver = Driver(simulator)
        op = driver.new_op(OperationKind.WRITE, value="v1")
        driver.submit(processes[0], op)
        # Crash a majority so the quorum can never form, then drain.
        processes[1].crash()
        processes[2].crash()
        finished = driver.drive(limit=simulator.now + 1_000.0)
        assert finished is False
        assert op.failed and "stalled" in op.failure_reason
        assert driver.outstanding == 0

    def test_stuck_reason_names_what_the_replica_was_waiting_for(self):
        simulator, network, processes = deploy(n=3, algorithm="two-bit")
        driver = Driver(simulator)
        read = driver.new_op(OperationKind.READ)
        queued = driver.new_op(OperationKind.READ)
        driver.submit(processes[1], read)
        driver.submit(processes[1], queued)
        processes[0].crash()
        processes[2].crash()
        driver.drive(limit=simulator.now + 1_000.0)
        expected = (
            "stalled on replica p1 (crashed=False); event queue drained"
            "; waiting on: read#1 line 7 quorum"
        )
        assert read.failure_reason == queued.failure_reason == expected

    def test_stuck_reason_on_a_crashed_replica_keeps_the_plain_text(self):
        simulator, network, processes = deploy(n=3, algorithm="two-bit")
        driver = Driver(simulator)
        op = driver.new_op(OperationKind.READ)
        driver.submit(processes[1], op)
        processes[1].crash()
        driver.drive(limit=simulator.now + 1_000.0)
        assert op.failure_reason == "stalled on replica p1 (crashed=True); event queue drained"

    def test_drive_outlasts_a_follow_up_submitted_by_the_last_completion(self):
        """The drain is counted: the completion that empties the run stops the
        loop.  When that completion's ``on_done`` submits more work inside
        the same event, the run is not empty after all — ``drive`` must go on
        until the follow-up (and the follow-up's follow-up) is done."""
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        chain = []

        def follow_up(op):
            if len(chain) < 3:
                chain.append(driver.new_op(OperationKind.READ, on_done=follow_up))
                driver.submit(processes[1 + len(chain) % 2], chain[-1])

        first = driver.new_op(OperationKind.WRITE, value="v1", on_done=follow_up)
        driver.submit(processes[0], first)
        assert driver.drive() is True
        assert len(chain) == 3 and all(op.completed for op in chain)
        assert driver.outstanding == 0
        # Each link was issued in the very event that completed the one before.
        assert chain[0].record.invoked_at == first.record.responded_at
        assert chain[2].record.invoked_at == chain[1].record.responded_at
        assert simulator.now == chain[2].record.responded_at  # and not an event later

    def test_a_follow_up_that_fails_at_issue_still_lets_the_drive_return(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        processes[2].crash()
        doomed = []

        def follow_up(op):
            doomed.append(driver.new_op(OperationKind.READ))
            driver.submit(processes[2], doomed[-1])  # fails synchronously: crashed

        first = driver.new_op(OperationKind.WRITE, value="v1", on_done=follow_up)
        driver.submit(processes[0], first)
        assert driver.drive(limit=50.0) is True
        assert first.completed and doomed[0].failed and driver.outstanding == 0
        assert simulator.now == first.record.responded_at

    def test_limit_passes_first_leaves_ops_outstanding_and_the_clock_at_the_limit(self):
        simulator, network, processes = deploy(delay=FixedDelay(10.0))
        driver = Driver(simulator)
        write = driver.new_op(OperationKind.WRITE, value="v1")
        read = driver.new_op(OperationKind.READ)
        driver.submit(processes[0], write)
        driver.submit(processes[1], read)
        assert driver.drive(limit=15.0) is False  # an ABD op needs 20
        assert simulator.now == 15.0 and driver.outstanding == 2
        assert not write.done and not read.done  # outstanding, not failed: events remain
        assert driver.drive(limit=100.0) is True  # a later drive finishes them
        assert write.completed and read.completed and simulator.now == 40.0

    def test_fault_horizon_still_raises_a_shorter_limit(self):
        simulator, network, processes = deploy(delay=FixedDelay(10.0))
        driver = Driver(simulator)
        driver.fault_horizon = 60.0
        write = driver.new_op(OperationKind.WRITE, value="v1")
        driver.submit(processes[0], write)
        assert driver.drive(limit=15.0) is True  # 15 < horizon: the drive waits it out
        assert write.completed and simulator.now == 20.0

    def test_the_event_loop_is_handed_no_predicate(self, monkeypatch):
        """Default condition or a client's own: asked when an operation
        finishes, never after every event."""
        simulator, network, processes = deploy()
        predicates, asked = [], []
        run_until = Simulator.run_until

        def spy(self, predicate, limit=None):
            predicates.append(predicate)
            return run_until(self, predicate, limit=limit)

        monkeypatch.setattr(Simulator, "run_until", spy)
        driver = Driver(simulator)
        ops = [driver.new_op(OperationKind.READ) for _ in range(3)]
        for process, op in zip(processes, ops):
            driver.submit(process, op)

        def all_done():
            asked.append(simulator.executed_events)
            return all(op.done for op in ops)

        assert driver.drive(predicate=all_done) is True
        assert predicates == [None]
        # Once on entry, once per finished operation, once after the loop.
        assert len(asked) == 2 + len(ops) < simulator.executed_events

    def test_result_raises_before_completion(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        op = driver.new_op(OperationKind.READ, key="k")
        driver.submit(processes[1], op)
        with pytest.raises(RuntimeError, match="has not completed"):
            _ = op.result

    def test_metrics_percentiles_and_throughput(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator, metrics=MetricsCollector(network))
        for value in ("v1", "v2", "v3", "v4"):
            driver.submit(processes[0], driver.new_op(OperationKind.WRITE, value=value))
        driver.submit(processes[1], driver.new_op(OperationKind.READ))
        driver.drive()
        snapshot = driver.metrics.snapshot()
        assert snapshot["issued"] == snapshot["completed"] == 5
        assert snapshot["failed"] == 0
        assert snapshot["latency"]["write"]["count"] == 4
        assert snapshot["latency"]["read"]["count"] == 1
        assert snapshot["latency"]["all"]["p50"] > 0
        assert snapshot["latency"]["all"]["p99"] >= snapshot["latency"]["all"]["p50"]
        assert snapshot["virtual_throughput"] > 0
        assert snapshot["messages"]["total"] == network.stats.messages_sent
        assert snapshot["messages"]["by_type"]  # per-kind attribution present
        # by_type is windowed consistently with the total
        assert sum(snapshot["messages"]["by_type"].values()) == snapshot["messages"]["total"]

    def test_metrics_window_excludes_prior_traffic(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        driver.submit(processes[0], driver.new_op(OperationKind.WRITE, value="v1"))
        driver.drive()
        before = network.stats.messages_sent
        assert before > 0
        late = MetricsCollector(network)  # attached after traffic existed
        driver.metrics = late
        driver.submit(processes[1], driver.new_op(OperationKind.READ))
        driver.drive()
        snapshot = late.snapshot()
        assert snapshot["messages"]["total"] == network.stats.messages_sent - before
        assert sum(snapshot["messages"]["by_type"].values()) == snapshot["messages"]["total"]


class TestTargets:
    def test_store_target_pins_a_read_to_a_replica(self):
        # A register is the one-key store: a pid is the key's replica index.
        store = create_store(num_shards=1, replication=3)
        process = store.target.route(OpRequest(kind=OperationKind.READ, key="k", replica=2))
        assert process is store.register_for("k").processes[2]

    def test_store_target_routes_writes_to_writer(self):
        store = create_store(num_shards=2, replication=3)
        process = store.target.route(OpRequest(kind=OperationKind.WRITE, key="k"))
        deployment = store.register_for("k")
        assert process is deployment.processes[deployment.writer_index]

    def test_store_target_reads_round_robin(self):
        store = create_store(num_shards=2, replication=3)
        pids = [
            store.target.route(OpRequest(kind=OperationKind.READ, key="k")).pid
            for _ in range(6)
        ]
        assert sorted(set(pids)) == [0, 1, 2]

    def test_store_target_pinned_replica_validated(self):
        store = create_store(num_shards=2, replication=3)
        with pytest.raises(ValueError, match="out of range"):
            store.target.route(OpRequest(kind=OperationKind.READ, key="k", replica=7))
        with pytest.raises(ValueError, match="key"):
            store.target.route(OpRequest(kind=OperationKind.READ))


class TestClosedLoopClient:
    def test_script_runs_to_completion_with_think_times(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        client = ClosedLoopClient(
            driver,
            processes[0],
            [(OperationKind.WRITE, "v1", 0.0), (OperationKind.WRITE, "v2", 2.5)],
            start_delay=1.0,
        )
        client.start()
        simulator.drain()
        assert client.done and client.outstanding == 0
        first, second = driver.records
        assert first.invoked_at == 1.0
        # think time separates completion of v1 from invocation of v2
        assert second.invoked_at == pytest.approx(first.responded_at + 2.5)

    def test_client_dies_with_its_process(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        client = ClosedLoopClient(
            driver,
            processes[0],
            [(OperationKind.WRITE, f"v{i}", 0.0) for i in range(1, 6)],
        )
        client.start()
        simulator.schedule_at(3.0, processes[0].crash)
        simulator.drain()
        assert client.done
        assert len(driver.records) < 5


class TestArrivalProcesses:
    def test_poisson_seeded_determinism(self):
        a = poisson_arrival_times(make_rng(7, "arrivals"), rate=4.0, count=50)
        b = poisson_arrival_times(make_rng(7, "arrivals"), rate=4.0, count=50)
        c = poisson_arrival_times(make_rng(8, "arrivals"), rate=4.0, count=50)
        assert a == b
        assert a != c
        assert all(later >= earlier for earlier, later in zip(a, a[1:]))

    def test_uniform_mean_rate(self):
        times = uniform_arrival_times(make_rng(3, "arrivals"), rate=5.0, count=2000)
        observed_rate = len(times) / times[-1]
        assert observed_rate == pytest.approx(5.0, rel=0.15)

    def test_dispatch_and_validation(self):
        assert len(arrival_times("poisson", make_rng(0, "a"), 2.0, 10)) == 10
        with pytest.raises(ValueError, match="unknown arrival process"):
            arrival_times("bursty", make_rng(0, "a"), 2.0, 10)
        with pytest.raises(ValueError, match="positive"):
            poisson_arrival_times(make_rng(0, "a"), rate=0.0, count=1)


class TestOpenLoopClient:
    def _arrivals(self, count, rate, seed=11):
        times = poisson_arrival_times(make_rng(seed, "test-open-loop"), rate, count)
        arrivals = []
        for index, at in enumerate(times):
            if index % 4 == 0:
                arrivals.append(
                    (at, OpRequest(kind=OperationKind.WRITE, key="k"), f"v{index // 4 + 1}")
                )
            else:
                arrivals.append(
                    (at, OpRequest(kind=OperationKind.READ, key="k", replica=1 + index % 2), None)
                )
        return arrivals

    @staticmethod
    def _client(arrivals, delay=None):
        """An open-loop client on a one-key store (the register, addressed by replica)."""
        store = create_store(num_shards=1, replication=3, delay_model=delay)
        return store, OpenLoopClient(store.driver, store.target, arrivals)

    def test_open_loop_on_a_one_key_store(self):
        _store, client = self._client(
            self._arrivals(24, rate=3.0), delay=UniformDelay(0.2, 1.0, seed=5)
        )
        client.start()
        assert client.drive(limit=10_000.0) is True
        assert client.done and len(client.ops) == 24
        assert all(op.completed for op in client.ops)

    def test_pending_arrival_is_labelled_by_its_number(self):
        arrivals = self._arrivals(3, rate=0.01)
        store, client = self._client(arrivals)
        simulator = store.simulator
        client.start()
        assert simulator.pending_labels() == ["open-loop arrival 0"]
        simulator.run(until=arrivals[0][0])
        # The label is a (format, number) pair rendered only when it is read.
        assert simulator.pending_labels()[-1] == "open-loop arrival 1"

    def test_arrivals_fire_at_scheduled_times(self):
        arrivals = self._arrivals(12, rate=2.0)
        _store, client = self._client(arrivals)
        client.start()
        client.drive(limit=10_000.0)
        # Each op is invoked at its arrival time unless queued behind an
        # earlier op on the same process (then it starts strictly later).
        for (at, _request, _value), op in zip(arrivals, client.ops):
            assert op.record.invoked_at >= at - 1e-9

    def test_rejects_decreasing_arrival_times(self):
        bad = [
            (2.0, OpRequest(kind=OperationKind.READ, key="k", replica=1), None),
            (1.0, OpRequest(kind=OperationKind.READ, key="k", replica=1), None),
        ]
        with pytest.raises(ValueError, match="non-decreasing"):
            self._client(bad)

    def test_overload_queues_instead_of_throttling(self):
        # Offered load far above service rate: every op still completes, and
        # later ops see growing queueing delay (open-loop, not closed-loop).
        times = poisson_arrival_times(make_rng(2, "overload"), rate=50.0, count=30)
        arrivals = [
            (at, OpRequest(kind=OperationKind.WRITE, key="k"), f"v{i + 1}")
            for i, at in enumerate(times)
        ]
        _store, client = self._client(arrivals)
        client.start()
        assert client.drive(limit=10_000.0) is True
        # Client-observed (sojourn) latency grows with the backlog while the
        # per-op service latency stays flat.
        sojourns = [op.sojourn_latency for op in client.ops]
        assert sojourns[-1] > sojourns[0] * 3
        services = [op.record.latency for op in client.ops]
        assert max(services) == pytest.approx(min(services))
