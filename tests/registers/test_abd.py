"""Tests for the ABD baseline (unbounded sequence numbers)."""

import pytest

from repro.api import create_register
from repro.registers.abd import (
    ABD_ALGORITHM,
    AbdReadQuery,
    AbdReadReply,
    AbdWrite,
    AbdWriteAck,
    AbdWriteBack,
    AbdWriteBackAck,
)
from repro.sim.delays import FixedDelay, UniformDelay
from repro.workloads import WorkloadSpec, run_workload


class TestMessages:
    def test_control_bits_include_sequence_numbers(self):
        small = AbdWrite(seq=1, value="v")
        large = AbdWrite(seq=10**6, value="v")
        assert large.price[1] > small.price[1]

    def test_data_bits_only_on_value_carrying_messages(self):
        assert AbdWrite(seq=1, value="abcd").price[2] == 32
        assert AbdWriteAck(seq=1).price[2] == 0
        assert AbdReadQuery(rsn=1).price[2] == 0
        assert AbdReadReply(rsn=1, seq=1, value="ab").price[2] == 16
        assert AbdWriteBack(rsn=1, seq=1, value="ab").price[2] == 16
        assert AbdWriteBackAck(rsn=1).price[2] == 0

    def test_control_bits_grow_logarithmically(self):
        bits = [AbdWrite(seq=2**k, value=None).price[1] for k in range(1, 20)]
        assert bits == sorted(bits)
        assert bits[-1] - bits[0] == 18


class TestReadWrite:
    def test_basic_read_write(self):
        cluster = create_register(n=5, algorithm="abd", initial_value="v0")
        assert cluster.reader(1).read() == "v0"
        cluster.writer.write("v1")
        assert cluster.reader(4).read() == "v1"

    def test_read_write_back_propagates_value(self):
        """The second phase of a read installs the value at a majority."""
        cluster = create_register(n=3, algorithm="abd", initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        reader = cluster.processes[2]
        assert reader.seq == 1
        assert reader.value == "v1"

    def test_only_writer_may_write(self):
        cluster = create_register(n=3, algorithm="abd")
        with pytest.raises(PermissionError):
            cluster.reader(1).write("nope")

    def test_write_latency_is_two_delta(self):
        cluster = create_register(n=5, algorithm="abd", delay_model=FixedDelay(2.0))
        record = cluster.writer.write("v1")
        assert record.latency == pytest.approx(4.0)

    def test_read_latency_is_four_delta(self):
        cluster = create_register(n=5, algorithm="abd", delay_model=FixedDelay(2.0), initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        record = cluster.reader(2).read(run=False)
        cluster.simulator.run_until(lambda: record.completed)
        assert record.responded_at - record.invoked_at == pytest.approx(8.0)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_message_counts(self, n):
        cluster = create_register(n=n, algorithm="abd", delay_model=FixedDelay(1.0), initial_value="v0")
        before = cluster.store.total_messages()
        cluster.writer.write("v1")
        cluster.settle()
        assert cluster.store.total_messages() - before == 2 * (n - 1)
        before = cluster.store.total_messages()
        cluster.reader(1).read()
        cluster.settle()
        assert cluster.store.total_messages() - before == 4 * (n - 1)

    def test_stale_acks_do_not_complete_new_operations(self):
        """Acknowledgements are matched against the pending sequence number."""
        cluster = create_register(n=3, algorithm="abd", initial_value="v0")
        writer = cluster.processes[0]
        cluster.writer.write("v1")
        cluster.settle()
        # A forged stale ack must not be counted for the next write.
        writer.deliver(1, AbdWriteAck(seq=1))
        record = writer.invoke_write("v2", lambda r: None)
        assert list(writer._phases["write"].replies) == [0]  # only the writer itself so far
        cluster.simulator.run_until(lambda: record.completed)
        assert record.completed

    def test_atomicity_under_contention_and_crashes(self):
        from repro.faults import CrashPoint

        spec = WorkloadSpec(
            n=5,
            algorithm="abd",
            num_writes=15,
            reads_per_reader=15,
            delay_model=UniformDelay(0.2, 3.0, seed=9),
            crash_points=(
                CrashPoint(shard=0, replica=3, at_time=10.0),
                CrashPoint(shard=0, replica=4, at_time=20.0),
            ),
            seed=9,
        )
        result = run_workload(spec)
        assert result.check_atomicity().ok

    def test_local_memory_is_bounded(self):
        """ABD keeps O(n) words regardless of how many values were written."""
        cluster = create_register(n=5, algorithm="abd", initial_value="v0")
        for index in range(1, 40):
            cluster.writer.write(f"v{index}")
        cluster.settle()
        assert all(p.local_memory_words() <= 20 for p in cluster.processes)

    def test_factory_metadata(self):
        assert ABD_ALGORITHM.name == "abd"
        assert not ABD_ALGORITHM.supports_multi_writer

    def test_unknown_message_rejected(self):
        cluster = create_register(n=3, algorithm="abd")
        with pytest.raises(TypeError):
            cluster.processes[0].deliver(1, "garbage")
