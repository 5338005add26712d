"""A two-bit process scans its waits only when one can hold — and nothing can tell.

``TwoBitRegisterProcess`` records what its pending waits await (the entries
lines 18 and 22 move) and asks for a guard scan only when a delivery moved an
entry that completes an awaited quorum count or that a line-11 / line-20 wait
reads.  The formulation it replaced scanned after *every* handler.  That one
is kept here, as the oracle: :class:`_AlwaysScan` is the same process with the
"a scan is due" flag stuck at true, so every delivery, every coalesced batch
and every ``READ`` answered at once scans, exactly as before.

The differential runs both over seeded schedules — continuous, reorder-heavy
and instant-sharing delay models (the last with coalesced fan-out batches),
timed crash points, a send-count crash hook, a healing partition — and
compares everything an execution leaves behind.  The scan fixpoint, the
registration order and the predicates are shared, so equal executions mean
the new process never skipped a scan that would have fired a guard.

The last test turns the question round: of the scans a delivery does trigger,
how many were worth it?
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.workloads import spec_for
from repro.core.process import TwoBitRegisterProcess
from repro.core.register import TWO_BIT_ALGORITHM, build_cluster
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import FaultPlan
from repro.registers import registry
from repro.registers.base import RegisterAlgorithm
from repro.sim.delays import ExponentialDelay, FixedDelay, UniformDelay
from repro.sim.failures import CrashSchedule
from repro.workloads.kv import CrashPoint, KVWorkloadSpec, run_kv_workload


class _AlwaysScan(TwoBitRegisterProcess):
    """The oracle: the formulation that scans after every handler."""

    @property
    def _scan_due(self) -> bool:
        return True

    @_scan_due.setter
    def _scan_due(self, due: bool) -> None:
        pass


class _CountingScans(TwoBitRegisterProcess):
    """Counts the scans a delivery triggers and the ones among them that fired a guard.

    A scan entered from inside another (``add_guard`` scans after a wait that
    held at once, which happens inside guard actions) is not delivery-triggered.
    """

    triggered = 0
    useful = 0
    _fired = 0
    _depth = 0

    def add_guard(self, predicate, action, label=""):
        def counted_action():
            _CountingScans._fired += 1
            action()

        return super().add_guard(predicate, counted_action, label)

    def check_guards(self):
        cls = _CountingScans
        top_level = cls._depth == 0
        fired_before = cls._fired
        cls._depth += 1
        try:
            super().check_guards()
        finally:
            cls._depth -= 1
        if top_level:
            cls.triggered += 1
            cls.useful += cls._fired > fired_before


def _variant(name: str, process_class: type) -> RegisterAlgorithm:
    return RegisterAlgorithm(
        name=name,
        description=f"two-bit, {process_class.__name__} (test only)",
        process_factory=process_class,
        bounded_control_bits=True,
    )


@pytest.fixture(scope="module", autouse=True)
def _variants_registered():
    """The store resolves algorithms by name: register the test-only variants, then forget them."""
    variants = [_variant("two-bit-always-scan", _AlwaysScan), _variant("two-bit-counting", _CountingScans)]
    for variant in variants:
        registry.register_algorithm(variant)
    yield
    for variant in variants:
        del registry._REGISTRY[variant.name]


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
    assert spec.coalesce  # FixedDelay runs go through _Delivery._fan_out
    got = _store_observation(spec)
    expected = _store_observation(spec.with_(algorithm="two-bit-always-scan"))
    for aspect in expected:
        assert got[aspect] == expected[aspect], f"{aspect} differs"
    if delay == "fixed":
        assert got["stats"]["messages_coalesced"] > 0
    if delay == "exponential" and read_fraction < 0.5:
        assert got["reordered"] > 0  # line 11 did buffer: the differential saw it


def _cluster_observation(process_class: type, delay: str, seed: int, kill_at: int, coalesce: bool):
    """Concurrent writes and reads on one register whose writer dies at its k-th send."""
    cluster = build_cluster(
        _variant(TWO_BIT_ALGORITHM.name, process_class),
        n=5,
        initial_value="v0",
        delay_model=_delay_model(delay, seed),
        crash_schedule=CrashSchedule.after_messages({0: kill_at}),
        coalesce=coalesce,
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
    got = _cluster_observation(TwoBitRegisterProcess, delay, 5, kill_at, coalesce)
    expected = _cluster_observation(_AlwaysScan, delay, 5, kill_at, coalesce)
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
