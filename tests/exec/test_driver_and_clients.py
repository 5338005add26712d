"""Unit tests for the unified execution engine (:mod:`repro.exec`)."""

import pytest

from repro.exec import (
    After,
    Driver,
    MetricsCollector,
    OpenLoopClient,
    OpRequest,
    StoreTarget,
)
from repro.exec.clients import iter_arrival_times
from repro.registers.base import OperationKind
from repro.registers.registry import get_algorithm
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.rng import make_rng
from repro.sim.scheduler import Simulator
from repro.store import create_store


def deploy(n=3, algorithm="abd", delay=None):
    simulator = Simulator()
    network = Network(simulator, delay_model=delay or FixedDelay(1.0))
    processes = get_algorithm(algorithm).build(
        simulator, network, n, writer_pid=0, initial_value="v0"
    )
    return simulator, network, processes


def with_metrics(driver, network):
    """``driver`` with a metrics view that bills ``network``, as a store builds it."""
    driver.metrics = MetricsCollector(driver.oplog, network.stats)
    return driver


class TestDriver:
    def test_submit_and_drive_completes(self):
        simulator, network, processes = deploy()
        driver = with_metrics(Driver(simulator), network)
        write = driver.new_op(OperationKind.WRITE, value="v1")
        driver.submit(processes[0], write)
        assert driver.outstanding == 1
        assert driver.drive() is True
        assert write.completed and write.value == "v1"
        assert write.result is None  # a write returns nothing
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
        assert first.responded_at <= second.invoked_at
        # The read on another process overlapped the queued writes.
        assert third.invoked_at < second.invoked_at
        assert third.completed and third.result in ("v0", "v1", "v2")
        # sojourn latency of the queued write includes its wait for first
        assert second.sojourn_latency == pytest.approx(
            second.latency + first.latency
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
        driver = with_metrics(Driver(simulator), network)
        processes[1].crash()
        done = []
        op = driver.new_op(OperationKind.READ, on_done=done.append)
        driver.submit(processes[1], op)
        assert op.failed and "crashed before issuing" in op.failure_reason
        assert driver.outstanding == 0
        assert driver.metrics.snapshot()["failed"] == 1
        assert done == [op]  # on_done fires on failure paths too

    def test_a_write_at_a_non_writer_is_refused_and_its_process_keeps_serving(self):
        # A write the process refuses fails with the refusal's text; it can
        # never complete, so it counts as stalled, and the read queued
        # behind it is issued.
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        write = driver.new_op(OperationKind.WRITE, value="v1")
        read = driver.new_op(OperationKind.READ)
        driver.submit(processes[1], write)
        driver.submit(processes[1], read)
        assert write.failed and write.failure_reason == (
            "p1 is not the writer (writer is p0); this is a single-writer register"
        )
        assert driver.oplog.reasons == {write.op_id: write.failure_reason}
        assert driver.stalled == 1
        assert driver.drive() is True
        assert read.completed and read.result == "v0"

    def test_a_consensus_kind_at_a_register_process_is_refused_before_it_is_taken(self):
        # A register algorithm serves no CAS: the process refuses it without
        # taking it, the driver fails it with the refusal's text (it can
        # never complete: stalled), and the read queued behind it completes.
        simulator, network, processes = deploy(algorithm="two-bit")
        driver = Driver(simulator)
        cas = driver.new_op(OperationKind.CAS, value=("v0", "v1"))
        read = driver.new_op(OperationKind.READ)
        driver.submit(processes[1], cas)
        driver.submit(processes[1], read)
        assert cas.failed and not cas.completed and cas.pid == -1
        assert cas.failure_reason == "TwoBitRegisterProcess does not support cas operations"
        assert driver.stalled == 1
        assert driver.drive() is True
        assert read.completed and read.result == "v0" and read.proc_op_id == 0
        assert processes[1]._current_op is None

    def test_an_operation_it_did_not_build_is_served_but_not_kept(self):
        # op_id -1: queued, issued and completed like any other, but neither
        # logged nor listed.
        from repro.registers.base import OperationRecord

        simulator, network, processes = deploy()
        driver = Driver(simulator)
        done = []
        op = OperationRecord(-1, -1, OperationKind.READ, on_done=done.append)
        driver.submit(processes[1], op)
        assert driver.drive() is True
        assert done == [op] and op.completed and op.result == "v0"
        assert driver.ops == [] and driver.records == [] and len(driver.oplog) == 0

    def test_a_bare_driver_logs_every_operation_in_its_own_oplog(self):
        # No store attaches a log: the driver owns one, row index == op_id.
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        processes[1].crash()
        write = driver.new_op(OperationKind.WRITE, value="v1")
        read = driver.new_op(OperationKind.READ)
        driver.submit(processes[0], write)
        driver.submit(processes[1], read)
        assert driver.drive() is True
        logged = driver.oplog.ops_view()
        assert len(driver.oplog) == 2
        assert logged[write.op_id].completed and logged[write.op_id].value == "v1"
        assert logged[write.op_id].responded_at == write.responded_at
        assert logged[read.op_id].failed
        assert "crashed before issuing" in logged[read.op_id].failure_reason

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
        assert chain[0].invoked_at == first.responded_at
        assert chain[2].invoked_at == chain[1].responded_at
        assert simulator.now == chain[2].responded_at  # and not an event later

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
        assert simulator.now == first.responded_at

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

    def test_a_pending_op_has_no_result(self):
        simulator, network, processes = deploy()
        driver = Driver(simulator)
        op = driver.new_op(OperationKind.READ, key="k")
        driver.submit(processes[1], op)
        assert not op.done and op.result is None and op.responded_at is None
        assert driver.drive() is True
        assert op.completed and op.result == "v0"

    def test_metrics_percentiles_and_throughput(self):
        simulator, network, processes = deploy()
        driver = with_metrics(Driver(simulator), network)
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
        late = MetricsCollector(driver.oplog, network.stats)  # attached after traffic existed
        driver.submit(processes[1], driver.new_op(OperationKind.READ))
        driver.drive()
        snapshot = late.snapshot()
        assert snapshot["completed"] == 2  # the log's rows are all in view
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


class TestChainedEntries:
    """:class:`After` entries: each replica's chain is that process's closed loop."""

    @staticmethod
    def _chained(entries, **store_config):
        store = create_store(num_shards=1, replication=3, **store_config)
        script = [
            (After(delay), OpRequest(kind, "k", replica), value)
            for delay, kind, replica, value in entries
        ]
        return store, OpenLoopClient(store.driver, store.target, script)

    def test_script_runs_to_completion_with_think_times(self):
        store, client = self._chained(
            [(1.0, OperationKind.WRITE, 0, "v1"), (2.5, OperationKind.WRITE, 0, "v2")]
        )
        client.start()
        store.simulator.drain()
        assert client.finished()
        first, second = store.driver.records
        assert first.invoked_at == 1.0  # the first entry's delay is its start delay
        # think time separates completion of v1 from invocation of v2
        assert second.invoked_at == pytest.approx(first.responded_at + 2.5)

    def test_zero_think_time_issues_inside_the_completion(self):
        store, client = self._chained(
            [(0.0, OperationKind.WRITE, 0, "v1"), (0.0, OperationKind.WRITE, 0, "v2")]
        )
        client.start()
        assert client.drive(limit=100.0) is True
        first, second = store.driver.records
        assert second.invoked_at == first.responded_at
        assert second.submitted_at == first.responded_at  # never queued behind it

    def test_each_chain_schedules_one_start_event(self):
        store, client = self._chained(
            [(0.0, OperationKind.READ, replica, None) for replica in (1, 2, 1, 2)]
        )
        client.start()
        assert store.simulator.pending_labels() == ["p1 chained entry", "p2 chained entry"]
        assert client.drive(limit=100.0) is True
        assert [op.pid for op in client.ops] == [1, 2, 1, 2]

    def test_a_pinned_write_reaches_its_process(self):
        store, client = self._chained(
            [(0.0, OperationKind.WRITE, 2, "v1")], algorithm="abd-mwmr"
        )
        client.start()
        assert client.drive(limit=100.0) is True
        assert [op.pid for op in client.ops] == [2]
        # An unpinned write still goes to the key's writer.
        assert store.target.route(OpRequest(OperationKind.WRITE, "k")).pid == 0

    def test_a_chain_stops_at_its_crashed_process(self):
        store, client = self._chained(
            [(0.0, OperationKind.WRITE, 0, f"v{i}") for i in range(1, 6)]
            + [(0.0, OperationKind.READ, 1, None)]
        )
        client.start()
        store.simulator.schedule_at(3.0, store.register_for("k").processes[0].crash)
        assert client.drive(limit=100.0) is True
        assert client.finished()
        writes = [op for op in client.ops if op.kind is OperationKind.WRITE]
        assert len(writes) < 5  # no operation after the crash
        # Crash-stop: the write in flight stays pending, and nothing failed.
        assert not writes[-1].done
        assert not any(op.failed for op in client.ops)

    def test_a_stalled_chain_never_finishes(self):
        # Two of three replicas down (outside any crash budget): the read on
        # replica 0 cannot reach a quorum, the queue drains, and the driver
        # fails it as stalled.  Its process is alive, so the chain is not
        # finished and neither is the run.
        store, client = self._chained(
            [(0.0, OperationKind.READ, 0, None), (0.0, OperationKind.READ, 0, None)]
        )
        for process in store.register_for("k").processes[1:]:
            process.crash()
        client.start()
        assert client.drive(limit=100.0) is False
        assert len(client.ops) == 1 and client.ops[0].failed
        assert not client.finished()

    def test_an_unpinned_chained_write_joins_the_writers_chain(self):
        store = create_store(num_shards=1, replication=3)
        script = [
            (After(0.0), OpRequest(OperationKind.WRITE, "k"), "v1"),
            (After(0.0), OpRequest(OperationKind.WRITE, "k", 0), "v2"),
        ]
        client = OpenLoopClient(store.driver, store.target, script)
        client.start()
        assert store.simulator.pending_labels() == ["p0 chained entry"]
        assert client.drive(limit=100.0) is True
        first, second = client.ops
        assert second.invoked_at == first.responded_at


class TestArrivalProcesses:
    def test_poisson_seeded_determinism(self):
        a = list(iter_arrival_times("poisson", make_rng(7, "arrivals"), 4.0, 50))
        b = list(iter_arrival_times("poisson", make_rng(7, "arrivals"), 4.0, 50))
        c = list(iter_arrival_times("poisson", make_rng(8, "arrivals"), 4.0, 50))
        assert a == b
        assert a != c
        assert all(later >= earlier for earlier, later in zip(a, a[1:]))

    def test_uniform_mean_rate(self):
        times = list(iter_arrival_times("uniform", make_rng(3, "arrivals"), 5.0, 2000))
        observed_rate = len(times) / times[-1]
        assert observed_rate == pytest.approx(5.0, rel=0.15)

    def test_dispatch_and_validation(self):
        assert len(list(iter_arrival_times("poisson", make_rng(0, "a"), 2.0, 10))) == 10
        # Refused when the stream is made, before anything is drawn.
        with pytest.raises(ValueError, match="unknown arrival process"):
            iter_arrival_times("bursty", make_rng(0, "a"), 2.0, 10)
        with pytest.raises(ValueError, match="positive"):
            iter_arrival_times("poisson", make_rng(0, "a"), 0.0, 1)


class TestOpenLoopClient:
    def _arrivals(self, count, rate, seed=11):
        times = list(iter_arrival_times("poisson", make_rng(seed, "test-open-loop"), rate, count))
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
        assert client.finished() and len(client.ops) == 24
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
            assert op.invoked_at >= at - 1e-9

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
        times = list(iter_arrival_times("poisson", make_rng(2, "overload"), 50.0, 30))
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
        services = [op.latency for op in client.ops]
        assert max(services) == pytest.approx(min(services))


class TestStalledKeyedRun:
    """A keyed run whose operation stalls on a live replica did not finish.

    One key on three ABD replicas, two of them crashed directly (outside any
    crash budget): the read pinned to replica 0 can never reach a quorum, the
    queue drains and the driver fails it as stalled.  On both start rules
    ``drive_script`` reports the run unfinished and the verdict fails it; an
    operation whose own replica crashed under it still counts as done.
    """

    @staticmethod
    def _store(open_loop, algorithm):
        """The store, with replicas 1 and 2 of its one key crashed."""
        from repro.workloads.kv import KVWorkloadSpec, deploy

        spec = KVWorkloadSpec(
            algorithm=algorithm, num_keys=1, num_shards=1, replication=3, num_ops=1,
            arrival="poisson" if open_loop else "closed", arrival_rate=1.0 if open_loop else 0.0,
        )
        store = deploy(spec)
        (key,) = spec.keys()
        processes = store.register_for(key).processes
        for process in processes[1:]:
            process.crash()
        return spec, store, key, processes

    @staticmethod
    def _read(spec, store, key):
        """Drive one read pinned to replica 0; ``(ops, finished)``."""
        from repro.workloads.kv import drive_script

        script = [(store.simulator.now, OpRequest(OperationKind.READ, key, 0), None)]
        ops, _drives, finished = drive_script(store, script, spec.open_loop, spec.batch_size)
        return ops, finished

    @classmethod
    def _run(cls, open_loop, serving_replica_crashes=False, algorithm="abd", runs=1):
        from repro.workloads.kv import KVWorkloadResult

        spec, store, key, processes = cls._store(open_loop, algorithm)
        if serving_replica_crashes:
            store.simulator.schedule_at(0.5, processes[0].crash)
        for _ in range(runs):
            ops, finished = cls._read(spec, store, key)
        result = KVWorkloadResult.from_store(spec, store, ops, 0.0, finished_cleanly=finished)
        return ops, finished, result

    @pytest.mark.parametrize("open_loop", [False, True], ids=["closed-window", "open-loop"])
    def test_a_stall_on_a_live_replica_leaves_the_run_unfinished(self, open_loop):
        (op,), finished, result = self._run(open_loop)
        assert op.failed
        assert op.failure_reason.startswith("stalled on replica p0 (crashed=False)")
        assert result.store.driver.stalled == 1
        assert finished is False
        assert not result.verify().ok

    @pytest.mark.parametrize("open_loop", [False, True], ids=["closed-window", "open-loop"])
    def test_a_stall_on_a_crashed_replica_counts_as_done(self, open_loop):
        (op,), finished, result = self._run(open_loop, serving_replica_crashes=True)
        assert op.failed
        assert op.failure_reason.startswith("stalled on replica p0 (crashed=True)")
        assert result.store.driver.stalled == 0
        assert finished is True

    @pytest.mark.parametrize("algorithm", ["abd", "two-bit"])
    @pytest.mark.parametrize("open_loop", [False, True], ids=["closed-window", "open-loop"])
    def test_a_replica_that_stalled_takes_its_next_operation(self, open_loop, algorithm):
        """The driver lets the stalled operation go: the replica is live and
        sequential, so its next read is issued (not refused as overlapping)
        and stalls in turn, with nothing left of the first read's waits."""
        (op,), finished, result = self._run(open_loop, algorithm=algorithm, runs=2)
        assert op.failed and not op.completed
        assert op.failure_reason.startswith("stalled on replica p0 (crashed=False)")
        # Only the second read's wait is left: the first one's went with it.
        assert op.failure_reason.endswith(
            {"abd": "waiting on: ABD read#2 query quorum (1/2 replies)",
             "two-bit": "waiting on: read#2 line 7 quorum"}[algorithm]
        )
        assert finished is False
        assert result.store.driver.stalled == 2
        assert [o.op_id for o in result.store.driver.records] == [0, 1]

    @pytest.mark.parametrize("open_loop", [False, True], ids=["closed-window", "open-loop"])
    def test_a_consensus_replica_that_stalled_keeps_its_command(self, open_loop):
        """An ``mmr-*`` replica keeps a stalled command (it may still be
        decided and applied later).  Until its slot resolves, the next
        operation fails, naming the slot and the command, and leaves the
        replica's state as it was; once the command is applied, the replica
        takes operations again."""
        from repro.consensus.mmr import ConsDecide

        spec, store, key, processes = self._store(open_loop, "mmr-cas")
        (op,), finished = self._read(spec, store, key)
        assert op.failure_reason.startswith("stalled on replica p0 (crashed=False)")
        assert finished is False
        replica = processes[0]

        def state():
            return (replica._current_op, replica._pending, replica._inflight_slot,
                    repr(replica._op_counter))

        before = state()
        assert before[0] is op and before[1][0] is op
        (refused,), finished = self._read(spec, store, key)
        assert refused.failed and not refused.completed
        assert refused.failure_reason == (
            "replica p0 still holds its stalled read at slot 0 "
            "(command [0, 'read', None]) until that slot resolves"
        )
        assert finished is False and store.driver.stalled == 2
        assert state() == before
        # The slot resolves (as the DECIDE of a peer that got through would
        # tell it): the command is applied, its read stays failed, and the
        # next read is issued, at the replica's next owned slot.
        replica.deliver(1, ConsDecide(0, 1, [0, "read", None]))
        assert state()[:3] == (None, None, None) and op.failed and not op.completed
        (later,), finished = self._read(spec, store, key)
        assert later.failure_reason.startswith("stalled on replica p0 (crashed=False)")
        assert later.failure_reason.endswith("slot 3 round 0: AUX 0/2 within bin_values")
        assert [o.op_id for o in store.driver.records] == [0, 2]
