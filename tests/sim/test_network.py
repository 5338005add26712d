"""Unit tests for channels, delivery semantics and message accounting."""

from dataclasses import dataclass

import pytest

from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.network import Network, Subnet
from repro.sim.scheduler import Simulator

from tests.sim.conftest import EchoProcess, RecorderProcess, build_recorders


@dataclass(frozen=True)
class CountedMessage:
    """A message with explicit control/data bit accounting for tests."""

    payload: str
    control: int = 7
    data: int = 16
    type_name: str = "COUNTED"

    def control_bits(self) -> int:
        return self.control

    def data_bits(self) -> int:
        return self.data


class TestDelivery:
    def test_message_delivered_after_fixed_delay(self, simulator):
        network = Network(simulator, delay_model=FixedDelay(2.0))
        sender, receiver = build_recorders(simulator, network, 2)
        network.send(sender.pid, receiver.pid, "hello")
        simulator.run()
        assert receiver.received == [(0, "hello")]
        assert simulator.now == 2.0

    def test_no_self_sends_allowed(self, simulator, network):
        (process,) = build_recorders(simulator, network, 1)
        with pytest.raises(ValueError, match="itself"):
            network.send(process.pid, process.pid, "loop")

    def test_unknown_destination_rejected(self, simulator, network):
        build_recorders(simulator, network, 1)
        with pytest.raises(KeyError):
            network.send(0, 99, "void")

    def test_duplicate_pid_registration_rejected(self, simulator, network):
        build_recorders(simulator, network, 1)
        with pytest.raises(ValueError, match="duplicate"):
            RecorderProcess(0, simulator, network)

    def test_list_send_reaches_every_listed_process(self, simulator, network):
        processes = build_recorders(simulator, network, 4)
        network.send(0, [1, 3], "to-some")
        simulator.run()
        assert [process.received for process in processes] == [
            [],
            [(0, "to-some")],
            [],
            [(0, "to-some")],
        ]

    def test_reliable_no_loss_no_duplication(self, simulator):
        network = Network(simulator, delay_model=UniformDelay(0.1, 5.0, seed=3))
        processes = build_recorders(simulator, network, 3)
        for i in range(50):
            network.send(0, 1, f"m{i}")
        simulator.run()
        payloads = [message for _src, message in processes[1].received]
        assert sorted(payloads) == sorted(f"m{i}" for i in range(50))

    def test_non_fifo_reordering_happens_with_random_delays(self, simulator):
        network = Network(simulator, delay_model=UniformDelay(0.1, 10.0, seed=11))
        processes = build_recorders(simulator, network, 2)
        for i in range(30):
            network.send(0, 1, i)
        simulator.run()
        received = [message for _src, message in processes[1].received]
        assert sorted(received) == list(range(30))
        assert received != list(range(30)), "uniform random delays should reorder messages"

    def test_echo_round_trip(self, simulator, network):
        ping = EchoProcess(0, simulator, network)
        pong = EchoProcess(1, simulator, network)
        ping.send(1, "ping")
        simulator.run()
        assert pong.received == [(0, "ping")]
        assert ping.received == [(1, "echo:ping")]


class TestCrashSemantics:
    def test_message_to_crashed_process_is_dropped(self, simulator, network):
        sender, receiver = build_recorders(simulator, network, 2)
        receiver.crash()
        network.send(sender.pid, receiver.pid, "lost")
        simulator.run()
        assert receiver.received == []
        assert network.stats.messages_dropped_to_crashed == 1
        assert network.stats.messages_delivered == 0

    def test_crashed_sender_cannot_send(self, simulator, network):
        sender, receiver = build_recorders(simulator, network, 2)
        sender.crash()
        sender.send(receiver.pid, "never")
        simulator.run()
        assert receiver.received == []
        assert network.stats.messages_sent == 0

    def test_in_flight_message_from_later_crashed_sender_still_delivered(self, simulator):
        network = Network(simulator, delay_model=FixedDelay(5.0))
        sender, receiver = build_recorders(simulator, network, 2)
        network.send(sender.pid, receiver.pid, "sent-before-crash")
        simulator.schedule_at(1.0, sender.crash)
        simulator.run()
        assert receiver.received == [(0, "sent-before-crash")]

    def test_crash_between_send_and_delivery_drops_message(self, simulator):
        network = Network(simulator, delay_model=FixedDelay(5.0))
        sender, receiver = build_recorders(simulator, network, 2)
        network.send(sender.pid, receiver.pid, "doomed")
        simulator.schedule_at(1.0, receiver.crash)
        simulator.run()
        assert receiver.received == []
        assert network.stats.messages_dropped_to_crashed == 1


class TestAccounting:
    def test_stats_count_sends_and_deliveries(self, simulator, network):
        build_recorders(simulator, network, 3)
        network.send(0, 1, "a")
        network.send(1, 2, "b")
        simulator.run()
        assert network.stats.messages_sent == 2
        assert network.stats.messages_delivered == 2

    def test_control_and_data_bits_accounted(self, simulator, network):
        build_recorders(simulator, network, 2)
        network.send(0, 1, CountedMessage("x", control=3, data=10))
        network.send(0, 1, CountedMessage("y", control=9, data=20))
        simulator.run()
        assert network.stats.control_bits_total == 12
        assert network.stats.data_bits_total == 30
        assert network.stats.max_control_bits == 9

    def test_messages_without_accounting_count_zero_bits(self, simulator, network):
        build_recorders(simulator, network, 2)
        network.send(0, 1, "plain string")
        simulator.run()
        assert network.stats.control_bits_total == 0
        assert network.stats.max_control_bits == 0

    def test_by_type_aggregation(self, simulator, network):
        build_recorders(simulator, network, 2)
        network.send(0, 1, CountedMessage("x"))
        network.send(0, 1, CountedMessage("y"))
        network.send(0, 1, "untyped")
        simulator.run()
        assert network.stats.by_type["COUNTED"] == 2
        assert network.stats.by_type["str"] == 1

    def test_per_sender_counts(self, simulator, network):
        build_recorders(simulator, network, 3)
        network.send(0, 1, "a")
        network.send(0, 2, "b")
        network.send(1, 2, "c")
        simulator.run()
        assert network.stats.per_sender == {0: 2, 1: 1}

    def test_mark_and_since_mark(self, simulator, network):
        build_recorders(simulator, network, 2)
        network.send(0, 1, "a")
        network.stats.mark("window")
        network.send(0, 1, "b")
        network.send(0, 1, "c")
        assert network.stats.since_mark("window") == 2

    def test_message_records_kept_when_enabled(self, simulator):
        network = Network(simulator, delay_model=FixedDelay(1.5), record_messages=True)
        build_recorders(simulator, network, 2)
        network.send(0, 1, "tracked")
        simulator.run()
        assert len(network.records) == 1
        record = network.records[0]
        assert record.src == 0 and record.dst == 1
        assert record.send_time == 0.0 and record.delivery_time == 1.5
        assert record.delivered

    def test_snapshot_is_plain_dict(self, simulator, network):
        build_recorders(simulator, network, 2)
        network.send(0, 1, "a")
        simulator.run()
        snapshot = network.stats.snapshot()
        assert snapshot["messages_sent"] == 1
        assert isinstance(snapshot["by_type"], dict)

    def test_subnet_records_shared_with_parent(self, simulator):
        # With record_messages=True, a subnet's MessageRecords must land in
        # the parent's records list so the aggregate bill (shared stats) and
        # the record log agree.
        parent = Network(simulator, delay_model=FixedDelay(1.0), record_messages=True)
        subnet_a = Subnet(parent, name="a")
        subnet_b = Subnet(parent, name="b")
        build_recorders(simulator, subnet_a, 2)
        build_recorders(simulator, subnet_b, 2)
        subnet_a.send(0, 1, "on-a")
        subnet_b.send(1, 0, "on-b")
        simulator.run()
        assert parent.stats.messages_sent == 2
        assert len(parent.records) == 2
        assert subnet_a.records is parent.records
        assert subnet_b.records is parent.records
        assert {record.message for record in parent.records} == {"on-a", "on-b"}

    def test_instance_level_bit_accessors_still_counted(self, simulator, network):
        # The per-class accessor cache must fall back to per-instance getattr
        # when the *class* defines the accessor as a non-method (the generic
        # path), preserving the original duck-typed contract.
        class WeirdMessage:
            control_bits = "not-callable"  # class attr, not a method

            def data_bits(self):
                return 4

        build_recorders(simulator, network, 2)
        network.send(0, 1, WeirdMessage())
        simulator.run()
        assert network.stats.control_bits_total == 0
        assert network.stats.data_bits_total == 4
        assert network.stats.by_type == {"WeirdMessage": 1}


class TestTopologyHelpers:
    def test_process_ids_sorted(self, simulator, network):
        build_recorders(simulator, network, 3)
        assert network.process_ids == [0, 1, 2]

    def test_in_flight_and_quiescent(self, simulator, network):
        build_recorders(simulator, network, 2)
        assert network.quiescent()
        network.send(0, 1, "x")
        assert network.in_flight_total() == 1
        assert not network.quiescent()
        simulator.run()
        assert network.quiescent()

    def test_delivery_hook_invoked(self, simulator, network):
        build_recorders(simulator, network, 2)
        seen = []
        network.add_delivery_hook(lambda src, dst, msg: seen.append((src, dst, msg)))
        network.send(0, 1, "observed")
        simulator.run()
        assert seen == [(0, 1, "observed")]

    def test_negative_delay_model_rejected(self, simulator):
        class Broken(FixedDelay):
            def sample(self, src, dst):
                return -1.0

        network = Network(simulator, delay_model=Broken(1.0))
        build_recorders(simulator, network, 2)
        with pytest.raises(ValueError, match="negative delay"):
            network.send(0, 1, "x")
