"""A two-bit process's waits fire where the closure-built guards fired — and nothing can tell.

``TwoBitRegisterProcess`` keeps its operation's wait (Figure 1, line 3, 7 or
9) as a count, and its line-11 / line-20 waits as thresholds on
``w_sync_i[j]`` queued per sender.  Lines 18 and 22 ask for a release only
when the entry they moved completes the awaited quorum count or reaches the
least threshold queued for that sender, and the release fires what holds
in registration order.  The formulation it replaced built every wait from
closures through a generic guard list and scanned after *every* handler.
That one is kept here, as the oracle: :class:`_ClosureGuards` runs the
earlier ``_start_write`` / ``_start_read`` / line-11 / line-20 code on the
guard list of ``tests/sim/conftest.py`` with the "a release is due" flag
stuck at true, so every delivery, every coalesced batch and every ``READ``
answered at once scans predicates over the arrays, exactly as before.

The differential runs both over seeded schedules — continuous, reorder-heavy
and instant-sharing delay models (the last with coalesced fan-out batches),
timed crash points, a send-count crash hook, a healing partition — and
compares everything an execution leaves behind.  Equal executions mean no
wait fired early, late, or out of order beside the others.

The last test turns the question round: of the releases a delivery does
trigger, how many were worth it?
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.workloads import spec_for
from benchmarks.variants import registered, two_bit_variant
from repro.core.messages import PROCEED, READ, WriteMessage
from repro.core.process import TwoBitRegisterProcess
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import FaultPlan
from repro.sim.delays import ExponentialDelay, FixedDelay, UniformDelay
from repro.workloads import WorkloadSpec, deploy_register
from repro.workloads.kv import CrashPoint, KVWorkloadSpec, run_kv_workload

from tests.sim.conftest import GuardList


class _ClosureGuards(GuardList, TwoBitRegisterProcess):
    """The oracle: lines 3, 7, 9, 11 and 20 as closure-built guards, scanned after every handler."""

    @property
    def _scan_due(self) -> bool:
        return True

    @_scan_due.setter
    def _scan_due(self, due: bool) -> None:
        pass

    def _start_write(self, record, done):
        st = self._require_state()
        value = record.value

        # line 1
        wsn = st.w_sync[self.pid] + 1
        st.w_sync[self.pid] = wsn
        st.record_value(wsn, value)
        message = WriteMessage(bit=wsn % 2, value=value)

        # line 2
        quorum, w_sync = self.quorum, st.w_sync
        self.network.send(self.pid, [j for j in self._peers if w_sync[j] == wsn - 1], message)

        # line 3: wait (#{j : w_sync_w[j] = wsn} >= n - t); line 4: return()
        def write_quorum_reached():
            return w_sync.count(wsn) >= quorum.quorum_size

        self.add_guard(write_quorum_reached, done, label=("write#%d line 3 quorum", wsn))

    def _start_read(self, record, done):
        st = self._require_state()

        # line 5
        rsn = st.r_sync[self.pid] + 1
        st.r_sync[self.pid] = rsn

        # line 6
        self.network.send(self.pid, self._peers, READ)

        # line 7: wait (#{j : r_sync_i[j] = rsn} >= n - t)
        quorum, r_sync, w_sync = self.quorum, st.r_sync, st.w_sync

        def read_quorum_reached():
            return r_sync.count(rsn) >= quorum.quorum_size

        def after_proceed_quorum():
            # line 8
            sn = w_sync[self.pid]

            # line 9: wait (#{j : w_sync_i[j] >= sn} >= n - t)
            def value_known_by_quorum():
                return sum(1 for entry in w_sync if entry >= sn) >= quorum.quorum_size

            # line 10: return(history_i[sn])
            self.add_guard(
                value_known_by_quorum,
                lambda: done(st.history[sn]),
                label=("read#%d line 9 quorum (sn=%d)", rsn, sn),
            )

        self.add_guard(
            read_quorum_reached, after_proceed_quorum, label=("read#%d line 7 quorum", rsn)
        )

    def _buffer_write(self, src, message):
        w_sync = self.state.w_sync
        self._reordered_writes += 1

        def handle_buffered_write():
            self.on_message(src, message)

        # line 11: wait (b = (w_sync_i[j] + 1) mod 2)
        self.add_guard(
            lambda: message.bit == (w_sync[src] + 1) % 2,
            handle_buffered_write,
            ("line 11 reorder buffer (from p%d, bit=%d)", src, message.bit),
        )

    def _handle_read(self, src):
        w_sync = self.state.w_sync

        # line 19
        sn = w_sync[self.pid]

        # line 20: wait (w_sync_i[j] >= sn); line 21: send PROCEED() to p_j
        if w_sync[src] >= sn:
            self.network.send(self.pid, src, PROCEED)
            if self._scan_due:
                self.check_guards()
        else:

            def send_proceed():
                self.network.send(self.pid, src, PROCEED)

            self.add_guard(
                lambda: w_sync[src] >= sn,
                send_proceed,
                ("line 20 freshness wait (reader p%d, sn=%d)", src, sn),
            )


class _CountingScans(TwoBitRegisterProcess):
    """Counts the releases a delivery triggers and the ones among them that fired a wait.

    A fired wait is a queued line-11 / line-20 wait that left its queue (a
    release registers none) or the operation wait's continuation
    (``_fire_op``).  A release entered from inside another (``_await_op``
    releases again when a wait holds at once inside one) is not
    delivery-triggered.
    """

    triggered = 0
    useful = 0
    _fired = 0
    _depth = 0

    def _fire_op(self):
        _CountingScans._fired += 1
        super()._fire_op()

    def check_guards(self):
        cls = _CountingScans
        top_level = cls._depth == 0
        queued = sum(map(len, self._waits))
        fired_before = cls._fired
        cls._depth += 1
        try:
            super().check_guards()
        finally:
            cls._depth -= 1
        if top_level:
            cls.triggered += 1
            cls.useful += cls._fired > fired_before or sum(map(len, self._waits)) < queued


@pytest.fixture(scope="module", autouse=True)
def _variants_registered():
    """The store resolves algorithms by name: register the test-only variants, then forget them."""
    with registered(
        two_bit_variant("two-bit-closure-guards", _ClosureGuards),
        two_bit_variant("two-bit-counting", _CountingScans),
    ):
        yield


def _delay_model(kind: str, seed: int):
    if kind == "uniform":
        return UniformDelay(0.2, 1.0, seed=seed)
    if kind == "exponential":  # heavy reordering: line 11 buffers, line 20 waits
        return ExponentialDelay(1.0, seed=seed)
    return FixedDelay(1.0)  # every instant shared: coalesced fan-out batches


def _healing_partition(replication: int) -> FaultPlan:
    window = PartitionWindow.isolate((replication - 1,), replication, start=1.5, heal=9.0)
    return FaultPlan(name="scan-differential", link_policies=(PartitionSchedule(windows=(window,)),))


def _store_observation(spec: KVWorkloadSpec) -> dict:
    result = run_kv_workload(spec)
    store = result.store
    store.settle()
    return {
        "histories": {
            key: [
                (op.kind, op.pid, op.value, op.invoked_at, op.responded_at)
                for op in history.operations
            ]
            for key, history in store.histories().items()
        },
        "ops": [(op.op_id, op.failed, op.failure_reason) for op in result.ops],
        "stats": store.stats.snapshot(),
        "events": store.simulator.executed_events,
        "now": store.simulator.now,
        "states": {
            key: [process.state.snapshot() for process in store.register_for(key).processes]
            for key in spec.keys()
        },
        "reordered": sum(
            process.reordered_write_count
            for key in spec.keys()
            for process in store.register_for(key).processes
        ),
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("faults", ["none", "crashes", "partition", "crashes+partition"])
@pytest.mark.parametrize("delay", ["uniform", "exponential", "fixed"])
@pytest.mark.parametrize("read_fraction", [0.9, 0.2])
def test_store_runs_are_the_runs_of_the_always_scan_process(read_fraction, delay, faults, seed):
    crashes = tuple(
        CrashPoint(at_time=2.0 + shard, shard=shard, replica=1 + shard) for shard in range(2)
    )
    spec = KVWorkloadSpec(
        algorithm="two-bit",
        num_keys=6,
        num_shards=2,
        replication=5,
        read_fraction=read_fraction,
        batch_size=24,
        num_ops=160,
        delay_model=_delay_model(delay, seed),
        crash_points=crashes if "crashes" in faults else (),
        fault_plan=_healing_partition(5) if "partition" in faults else None,
        seed=seed,
    )
    assert spec.coalesce  # FixedDelay heads carry riders: _Delivery._fan_out runs
    got = _store_observation(spec)
    expected = _store_observation(spec.with_(algorithm="two-bit-closure-guards"))
    for aspect in expected:
        assert got[aspect] == expected[aspect], f"{aspect} differs"
    if delay == "fixed":
        assert got["stats"]["messages_coalesced"] > 0
    if delay == "exponential" and read_fraction < 0.5:
        assert got["reordered"] > 0  # line 11 did buffer: the differential saw it


def _cluster_observation(algorithm: str, delay: str, seed: int, kill_at: int, coalesce: bool):
    """Concurrent writes and reads on one register whose writer dies at its k-th send."""
    cluster = deploy_register(
        WorkloadSpec(
            n=5,
            algorithm=algorithm,
            initial_value="v0",
            delay_model=_delay_model(delay, seed),
            crash_points=(
                CrashPoint(shard=0, replica=0, allow_writer=True, after_messages_sent=kill_at),
            ),
            coalesce=coalesce,
        )
    )
    records = []
    for round_number in range(1, 7):
        if not cluster.processes[0].crashed:
            records.append(cluster.writer.write(f"v{round_number}", run=False))
        for pid in (1, 2, 3, 4):
            records.append(cluster.processes[pid].invoke_read(lambda _record: None))
        # Readers are sequential: let this round's reads finish (the writer's
        # write may never, once it is dead) with the next round's write racing.
        cluster.simulator.run_until(lambda: all(r.completed for r in records if r.pid != 0))
    cluster.settle()
    return {
        "records": [
            (r.pid, r.kind, r.value, r.result, r.invoked_at, r.responded_at, r.completed)
            for r in records
        ],
        "stats": cluster.network.stats.snapshot(),
        "events": cluster.simulator.executed_events,
        "now": cluster.simulator.now,
        "states": [process.state.snapshot() for process in cluster.processes],
        "crashed": [process.crashed for process in cluster.processes],
        "waiting": [process.waiting_on() for process in cluster.processes],
    }


@pytest.mark.parametrize("kill_at", [3, 6, 9, 14, 23])
@pytest.mark.parametrize("delay, coalesce", [("uniform", False), ("exponential", False), ("fixed", True)])
def test_a_writer_killed_by_its_kth_send_leaves_the_same_execution(delay, coalesce, kill_at):
    got = _cluster_observation("two-bit", delay, 5, kill_at, coalesce)
    expected = _cluster_observation("two-bit-closure-guards", delay, 5, kill_at, coalesce)
    assert got["crashed"][0], "the send-count hook did kill the writer"
    for aspect in expected:
        assert got[aspect] == expected[aspect], f"{aspect} differs"


def test_at_least_nine_in_ten_delivery_triggered_scans_fire_a_guard():
    """On the ``twobit_reads`` spec.  The legitimate miss: a ``WRITE`` moves the
    entry a line-20 wait reads while that reader is still more than one value
    behind, so the wait is scanned and stays."""
    counters = _CountingScans
    counters.triggered = counters.useful = 0
    spec = spec_for("twobit_reads", seed=1, ops=800).with_(algorithm="two-bit-counting")
    result = run_kv_workload(spec)
    assert result.verify().ok
    assert counters.triggered > 800  # every read needs at least lines 7's scan
    assert counters.useful >= 0.9 * counters.triggered, (counters.useful, counters.triggered)
