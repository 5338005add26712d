"""Pinned message bills: one seeded two-bit execution, then every algorithm.

``NetworkStats`` resolves what to ask a message per message *class*; this run
exercises every branch of that resolution the two-bit algorithm has (the
per-instance ``WRITE0``/``WRITE1`` name, the class-constant ``READ`` and
``PROCEED``, data bits of string values) together with the crash path: the
writer is killed by a send-count trigger after the first ``WRITE`` of its
second broadcast, so later messages to it are dropped and its own remaining
sends never happen.  The numbers were recorded before the accounting was
rewritten; any drift is a behaviour change, not a refactor.

The second test pins the bill of one small seeded store run per registered
algorithm — totals, ``by_type`` and ``max_control_bits`` — recorded before
``WRITE`` was priced when built and before the field-less ABD / MWMR / modulo
messages' ``data_bits`` became ``staticmethod``s: where a price is computed
may move, what it comes to may not.  The three ``mmr-*`` rows were recorded
again when consensus replicas stopped sending an estimate their AUX vouches
for and an AUX their ``DECIDE`` stands for (1,956 / 1,648 / 1,632 messages
before): there the protocol changed, not the accounting.  Their data bits
were recorded once more when a value-1 message stopped carrying the command
to peers that all hold it (95,106 / 29,012 / 34,268 before); every other
entry of those rows stood.  The two-bit data bits were recorded once more
when a ``WRITE`` to a process that holds its value stopped carrying it
(before: 592 in the first test, 13,472 in the two-bit bill, 1,728 / 1,600 /
1,216 / 1,824 / 3,360 in the crash runs); every other entry stood.

The next test pins five register runs through each kind of crash a
:class:`~repro.faults.CrashPoint` expresses — recorded while register crashes
were still a pid-keyed schedule installed by the register runner, before
they became crash points the store schedules: whatever installs a crash, the
execution it produces may not move.  Each row also pins what the run reports
(clean finish, submitted, completed, failed), recorded while a register run
still drove its own closed-loop clients: an operation whose process crashed
under it is pending, not failed.

The last test pins one interactive run per registered algorithm, its writer
killed mid-broadcast — recorded while ``create_register`` still built its own
simulator and network, before a register became a one-key store for it too.
"""

import pytest

from repro.api import create_register
from repro.faults import CrashPoint, majority_minority_split
from repro.registers.registry import available_algorithms
from repro.sim.delays import UniformDelay
from repro.workloads import REGISTER_KEY, WorkloadSpec, run_workload
from repro.workloads.kv import KVWorkloadSpec, run_kv_workload
from repro.workloads.scenarios import crash_storm


def test_snapshot_of_a_run_whose_writer_dies_mid_forward():
    cluster = create_register(
        n=5,
        initial_value="v0",
        delay_model=UniformDelay(0.2, 1.0, seed=11),
        crash_points=(CrashPoint(shard=0, replica=0, allow_writer=True, after_messages_sent=6),),
    )
    cluster.writer.write("v1")  # 4 sends by the writer
    assert cluster.reader(2).read() == "v1"  # its PROCEED is the 5th
    second = cluster.writer.write("v2", run=False)  # the 6th send kills it mid-broadcast
    cluster.settle()
    assert cluster.processes[0].crashed and not second.completed
    # The one WRITE(v2) that got out is forwarded by its receiver (rule R1).
    assert [cluster.reader(pid).read() for pid in (1, 3)] == ["v2", "v2"]
    cluster.settle()

    assert cluster.network.stats.snapshot() == {
        "messages_sent": 59,
        "messages_delivered": 53,
        "messages_dropped_to_crashed": 6,
        "control_bits_total": 118,
        "data_bits_total": 400,
        "max_control_bits": 2,
        "messages_coalesced": 0,
        "delivery_events": 59,
        "by_type": {"WRITE1": 20, "WRITE0": 17, "READ": 12, "PROCEED": 10},
        "per_sender": {0: 6, 1: 14, 2: 14, 3: 14, 4: 11},
    }
    assert cluster.simulator.executed_events == 59


#: Operation mixes of the consensus-backed objects (registers take reads and writes).
_MIXES = {
    "mmr-cas": (("read", 0.45), ("cas", 0.35), ("write", 0.20)),
    "mmr-tas": (("read", 0.5), ("tas", 0.5)),
    "mmr-counter": (("read", 0.4), ("incr", 0.6)),
}

#: sent, delivered, dropped, control bits, data bits, max control bits, by_type.
_BILLS = {
    "two-bit": (399, 385, 14, 798, 8528, 2,
                {"READ": 100, "WRITE1": 116, "PROCEED": 89, "WRITE0": 94}),
    "abd": (529, 498, 31, 3045, 15592, 9,
            {"ABD_READ_QUERY": 100, "ABD_WRITE": 80, "ABD_READ_REPLY": 89,
             "ABD_WRITE_ACK": 71, "ABD_WRITE_BACK": 100, "ABD_WRITE_BACK_ACK": 89}),
    "abd-mwmr": (670, 620, 50, 4485, 15416, 12,
                 {"MWABD_READ_QUERY": 100, "MWABD_TS_QUERY": 80, "MWABD_READ_REPLY": 87,
                  "MWABD_TS_REPLY": 68, "MWABD_WRITE_BACK": 100, "MWABD_WRITE_BACK_ACK": 87,
                  "MWABD_WRITE": 80, "MWABD_WRITE_ACK": 68}),
    "abd-bounded-emulation": (529, 498, 31, 5895, 15592, 15,
                              {"MOD_READ_QUERY": 100, "MOD_WRITE": 80, "MOD_READ_REPLY": 89,
                               "MOD_WRITE_ACK": 71, "MOD_WRITE_BACK": 100,
                               "MOD_WRITE_BACK_ACK": 89}),
    "mmr-cas": (1396, 1209, 187, 9948, 71354, 9,
                {"CONS_EST": 262, "CONS_AUX": 382, "CONS_DECIDE": 752}),
    "mmr-tas": (1116, 982, 134, 7540, 21690, 9,
                {"CONS_EST": 224, "CONS_AUX": 356, "CONS_DECIDE": 536}),
    "mmr-counter": (1082, 962, 120, 7276, 25394, 9,
                    {"CONS_EST": 214, "CONS_AUX": 344, "CONS_DECIDE": 524}),
}


def test_every_registered_algorithm_has_a_pinned_bill():
    assert sorted(_BILLS) == sorted(available_algorithms())


@pytest.mark.parametrize("algorithm", sorted(_BILLS))
def test_bill_of_a_seeded_store_run_with_a_crashed_replica(algorithm):
    spec = KVWorkloadSpec(
        algorithm=algorithm,
        num_keys=6,
        num_ops=90,
        num_shards=2,
        replication=3,
        read_fraction=0.6,
        op_mix=_MIXES.get(algorithm),
        batch_size=16,
        initial_value=None if algorithm in _MIXES else "v0",
        delay_model=UniformDelay(0.2, 1.0, seed=7),
        seed=7,
        crash_points=(CrashPoint(at_time=6.0, shard=1, replica=2),),
    )
    result = run_kv_workload(spec)
    result.store.settle()
    snapshot = result.store.stats.snapshot()
    assert (
        snapshot["messages_sent"],
        snapshot["messages_delivered"],
        snapshot["messages_dropped_to_crashed"],
        snapshot["control_bits_total"],
        snapshot["data_bits_total"],
        snapshot["max_control_bits"],
        snapshot["by_type"],
    ) == _BILLS[algorithm]


def _register(**changes):
    return WorkloadSpec(
        n=5,
        num_writes=6,
        reads_per_reader=4,
        delay_model=UniformDelay(0.2, 1.0, seed=21),
        seed=21,
        **changes,
    )


#: name -> spec, then (sent, delivered, dropped, control bits, data bits),
#: by_type, crashed flags per pid, final clock, executed events, and the
#: outcome (finished cleanly, submitted, completed, failed): an operation
#: whose own process crashed stays pending, and the run still finishes
#: cleanly (crash-stop).
_CRASH_RUNS = {
    "timed reader crash": (
        _register(crash_points=(CrashPoint(shard=0, replica=3, at_time=4.0),)),
        (223, 210, 13, 446, 1328),
        {"WRITE1": 56, "READ": 60, "PROCEED": 55, "WRITE0": 52},
        [False, False, False, True, False], 7.4082827275628516, 229,
        (True, 21, 20, 0),
    ),
    "writer crash": (
        _register(crash_points=(CrashPoint(shard=0, replica=0, allow_writer=True, at_time=5.0),)),
        (223, 217, 6, 446, 1232),
        {"WRITE1": 60, "READ": 64, "PROCEED": 59, "WRITE0": 40},
        [True, False, False, False, False], 6.698858609719283, 229,
        (True, 21, 20, 0),
    ),
    "zero-message trigger": (
        _register(crash_points=(CrashPoint(shard=0, replica=2, after_messages_sent=0),)),
        (160, 144, 16, 320, 848),
        {"WRITE1": 40, "READ": 48, "PROCEED": 36, "WRITE0": 36},
        [False, False, True, False, False], 8.00660267729394, 165,
        (True, 18, 18, 0),
    ),
    "crash inside a healing partition": (
        _register(
            fault_plan=majority_minority_split(5, start=3.0, heal=20.0),
            crash_points=(CrashPoint(shard=0, replica=1, at_time=11.5),),
        ),
        (238, 226, 12, 476, 1328),
        {"WRITE1": 58, "READ": 64, "PROCEED": 60, "WRITE0": 56},
        [False, True, False, False, False], 24.918287305832397, 244,
        (True, 22, 22, 0),
    ),
    "crash_storm(crash_writer=True)": (
        crash_storm(crash_writer=True, seed=11),
        (1134, 1030, 104, 2268, 2720),
        {"WRITE1": 126, "READ": 510, "PROCEED": 414, "WRITE0": 84},
        [True, False, False, False, False, True, False], 31.125395895697697, 1143,
        (True, 90, 88, 0),
    ),
}


@pytest.mark.parametrize("name", sorted(_CRASH_RUNS))
def test_register_crash_runs_are_pinned(name):
    spec, totals, by_type, crashed, clock, events, outcome = _CRASH_RUNS[name]
    result = run_workload(spec)
    assert (result.finished_cleanly, len(result.oplog), result.completed, result.failed) == outcome
    store = result.store
    snapshot = store.stats.snapshot()
    assert (
        snapshot["messages_sent"],
        snapshot["messages_delivered"],
        snapshot["messages_dropped_to_crashed"],
        snapshot["control_bits_total"],
        snapshot["data_bits_total"],
    ) == totals
    assert snapshot["by_type"] == by_type
    assert [p.crashed for p in store.register_for(REGISTER_KEY).processes] == crashed
    assert store.simulator.now == clock
    assert store.simulator.executed_events == events


#: algorithm -> (sent, delivered, dropped), the last four reads, completed
#: operations, executed events, final clock.
_INTERACTIVE_RUNS = {
    "abd": ((234, 200, 34), ["v1"] * 4, 16, 234, 11.05933150928017),
    "abd-bounded-emulation": ((234, 200, 34), ["v1"] * 4, 16, 234, 11.05933150928017),
    "abd-mwmr": ((234, 200, 34), ["v0"] * 4, 16, 234, 11.05933150928017),
    "mmr-cas": ((1058, 796, 262), ["v1"] * 4, 16, 1058, 16.17268208539),
    "mmr-counter": ((1058, 796, 262), ["v1"] * 4, 16, 1058, 16.17268208539),
    "mmr-tas": ((1058, 796, 262), ["v1"] * 4, 16, 1058, 16.17268208539),
    "two-bit": ((134, 120, 14), ["v1"] * 4, 17, 134, 6.65981799326897),
}


def test_every_registered_algorithm_has_a_pinned_interactive_run():
    assert sorted(_INTERACTIVE_RUNS) == sorted(available_algorithms())


@pytest.mark.parametrize("algorithm", sorted(_INTERACTIVE_RUNS))
def test_interactive_runs_with_a_writer_killed_mid_broadcast_are_pinned(algorithm):
    totals, last_reads, completed, events, clock = _INTERACTIVE_RUNS[algorithm]
    cluster = create_register(
        n=5,
        algorithm=algorithm,
        initial_value="v0",
        delay_model=UniformDelay(0.2, 1.0, seed=5),
        crash_points=(CrashPoint(shard=0, replica=0, allow_writer=True, after_messages_sent=6),),
    )
    records = []
    for round_number in range(1, 5):
        writer = cluster.processes[0]
        if not writer.crashed and writer._current_op is None:
            records.append(cluster.writer.write(f"v{round_number}", run=False))
        reads = [cluster.processes[pid].invoke_read(lambda _record: None) for pid in (1, 2, 3, 4)]
        records += reads
        cluster.simulator.run_until(lambda: all(read.completed for read in reads))
    cluster.settle()
    stats = cluster.network.stats
    assert cluster.processes[0].crashed
    assert (stats.messages_sent, stats.messages_delivered, stats.messages_dropped_to_crashed) == totals
    assert [r.result for r in records if r.kind.value == "read"][-4:] == last_reads
    assert sum(r.completed for r in records) == completed
    assert cluster.simulator.executed_events == events
    assert cluster.simulator.now == clock
