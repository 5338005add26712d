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
before): there the protocol changed, not the accounting.
"""

import pytest

from repro.core.register import build_two_bit_cluster
from repro.registers.registry import available_algorithms
from repro.sim.delays import UniformDelay
from repro.sim.failures import CrashSchedule
from repro.workloads.kv import CrashPoint, KVWorkloadSpec, run_kv_workload


def test_snapshot_of_a_run_whose_writer_dies_mid_forward():
    cluster = build_two_bit_cluster(
        n=5,
        initial_value="v0",
        delay_model=UniformDelay(0.2, 1.0, seed=11),
        crash_schedule=CrashSchedule.after_messages({0: 6}),
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
        "data_bits_total": 592,
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
    "two-bit": (399, 385, 14, 798, 13472, 2,
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
    "mmr-cas": (1396, 1209, 187, 9948, 95106, 9,
                {"CONS_EST": 262, "CONS_AUX": 382, "CONS_DECIDE": 752}),
    "mmr-tas": (1116, 982, 134, 7540, 29012, 9,
                {"CONS_EST": 224, "CONS_AUX": 356, "CONS_DECIDE": 536}),
    "mmr-counter": (1082, 962, 120, 7276, 34268, 9,
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
