"""Tests for the multi-writer ABD extension."""

import pytest

from repro.api import create_register
from repro.registers.abd_mwmr import ABD_MWMR_ALGORITHM, MwAbdWrite, MwAbdTsReply
from repro.sim.delays import FixedDelay, UniformDelay
from repro.verification.linearizability import is_linearizable
from repro.workloads import REGISTER_KEY, WorkloadSpec, run_workload


class TestTimestamps:
    def test_timestamps_order_lexicographically(self):
        assert (2, 0) > (1, 99)
        assert (1, 2) > (1, 1)

    def test_messages_report_control_bits(self):
        small = MwAbdWrite(wsn=1, ts=(1, 0), value="v")
        large = MwAbdWrite(wsn=1, ts=(10**6, 3), value="v")
        assert large.price[1] > small.price[1]
        assert MwAbdTsReply(wsn=1, ts=(0, -1)).price[2] == 0


class TestMultiWriterBehaviour:
    def test_any_process_may_write(self):
        cluster = create_register(n=5, algorithm="abd-mwmr", initial_value="v0")
        cluster.reader(3).write("from-p3")
        assert cluster.reader(1).read() == "from-p3"
        cluster.reader(1).write("from-p1")
        assert cluster.reader(4).read() == "from-p1"

    def test_later_write_wins(self):
        cluster = create_register(n=5, algorithm="abd-mwmr", initial_value="v0")
        cluster.handles[1].write("first")
        cluster.handles[2].write("second")
        assert cluster.reader(0).read() == "second"

    def test_write_takes_four_delta(self):
        """MWMR writes need the extra timestamp-query round trip: 4 delta, not 2."""
        cluster = create_register(n=5, algorithm="abd-mwmr", delay_model=FixedDelay(1.0))
        record = cluster.handles[2].write("x")
        assert record.latency == pytest.approx(4.0)

    @pytest.mark.parametrize("n", [3, 5])
    def test_write_message_count(self, n):
        cluster = create_register(n=n, algorithm="abd-mwmr", delay_model=FixedDelay(1.0))
        before = cluster.store.total_messages()
        cluster.handles[1].write("x")
        cluster.settle()
        assert cluster.store.total_messages() - before == 4 * (n - 1)

    def test_concurrent_writers_histories_are_linearizable(self):
        spec = WorkloadSpec(
            n=5,
            algorithm="abd-mwmr",
            num_writes=10,
            reads_per_reader=6,
            multi_writer=True,
            delay_model=UniformDelay(0.2, 2.0, seed=21),
            seed=21,
        )
        result = run_workload(spec)
        history = result.history(REGISTER_KEY)
        assert len(history) <= 64
        assert is_linearizable(history)

    def test_multi_writer_flag_required_in_workloads(self):
        spec = WorkloadSpec(n=3, algorithm="abd", num_writes=2, reads_per_reader=1, multi_writer=True)
        with pytest.raises(ValueError, match="multiple writers"):
            run_workload(spec)

    def test_factory_metadata(self):
        assert ABD_MWMR_ALGORITHM.supports_multi_writer

    def test_unknown_message_rejected(self):
        cluster = create_register(n=3, algorithm="abd-mwmr")
        with pytest.raises(TypeError):
            cluster.processes[0].deliver(1, object())
