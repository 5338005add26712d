"""A pinned message bill for one seeded two-bit execution.

``NetworkStats`` resolves what to ask a message per message *class*; this run
exercises every branch of that resolution the two-bit algorithm has (the
per-instance ``WRITE0``/``WRITE1`` name, the class-constant ``READ`` and
``PROCEED``, data bits of string values) together with the crash path: the
writer is killed by a send-count trigger after the first ``WRITE`` of its
second broadcast, so later messages to it are dropped and its own remaining
sends never happen.  The numbers were recorded before the accounting was
rewritten; any drift is a behaviour change, not a refactor.
"""

from repro.core.register import build_two_bit_cluster
from repro.sim.delays import UniformDelay
from repro.sim.failures import CrashSchedule


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
