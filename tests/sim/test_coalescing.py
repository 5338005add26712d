"""Tests for same-instant message coalescing in the network layer."""

import pytest

from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.network import Network, Subnet
from repro.transport.runtime import ProcessBase as Process
from repro.sim.scheduler import Simulator


class Recorder(Process):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))
        self._scan_due = True  # the test's guards read `received`


def build(n=4, coalesce=True, delay_model=None, record_messages=False):
    simulator = Simulator()
    network = Network(
        simulator,
        delay_model=delay_model or FixedDelay(1.0),
        record_messages=record_messages,
        coalesce=coalesce,
    )
    processes = [Recorder(pid, simulator, network) for pid in range(n)]
    return simulator, network, processes


class TestCoalescedDelivery:
    def test_fan_in_shares_one_heap_event(self):
        simulator, network, processes = build(4, coalesce=True)
        for src in (1, 2, 3):
            network.send(src, 0, f"from-{src}")
        # Three logical messages, one scheduled delivery event.
        assert simulator.pending_events == 1
        simulator.drain()
        assert simulator.executed_events == 1
        assert processes[0].received == [(1, "from-1"), (2, "from-2"), (3, "from-3")]
        assert network.stats.messages_sent == 3
        assert network.stats.messages_delivered == 3
        assert network.stats.messages_coalesced == 2
        assert network.stats.snapshot()["delivery_events"] == 1

    def test_disabled_schedules_one_event_per_message(self):
        simulator, network, processes = build(4, coalesce=False)
        for src in (1, 2, 3):
            network.send(src, 0, f"from-{src}")
        assert simulator.pending_events == 3
        simulator.drain()
        assert simulator.executed_events == 3
        assert processes[0].received == [(1, "from-1"), (2, "from-2"), (3, "from-3")]
        assert network.stats.messages_coalesced == 0

    def test_distinct_destinations_do_not_coalesce(self):
        simulator, network, _ = build(4, coalesce=True)
        network.send(0, 1, "a")
        network.send(0, 2, "b")
        assert simulator.pending_events == 2
        assert network.stats.messages_coalesced == 0

    def test_distinct_instants_do_not_coalesce(self):
        simulator, network, _ = build(3, coalesce=True, delay_model=UniformDelay(0.1, 5.0, seed=3))
        for _ in range(10):
            network.send(1, 0, "x")
        # Random delays virtually never collide on the same float instant.
        assert network.stats.messages_coalesced == 0
        assert simulator.pending_events == 10

    def test_logical_counts_and_records_match_uncoalesced(self):
        results = {}
        for coalesce in (False, True):
            simulator, network, processes = build(4, coalesce=coalesce, record_messages=True)
            for round_ in range(3):
                for src in (1, 2, 3):
                    network.send(src, 0, ("ping", round_))
            simulator.drain()
            results[coalesce] = (
                network.stats.messages_sent,
                network.stats.messages_delivered,
                sorted((r.src, r.dst, r.message, r.delivery_time) for r in network.records),
            )
        assert results[False] == results[True]

    def test_messages_after_head_fired_start_a_fresh_event(self):
        simulator, network, processes = build(3, coalesce=True)
        network.send(1, 0, "first")
        simulator.drain()
        network.send(2, 0, "second")
        assert network.stats.messages_coalesced == 0
        simulator.drain()
        assert processes[0].received == [(1, "first"), (2, "second")]

    def test_crashed_destination_drops_all_coalesced_messages(self):
        simulator, network, processes = build(4, coalesce=True)
        for src in (1, 2, 3):
            network.send(src, 0, "x")
        processes[0].crash()
        simulator.drain()
        assert processes[0].received == []
        assert network.stats.messages_dropped_to_crashed == 3
        assert network.stats.messages_delivered == 0

    def test_destination_crashing_mid_fanout_drops_the_rest(self):
        # A handler that crashes the destination while the fan-out is running:
        # the remaining logical messages of the same event must be dropped.
        class CrashOnSecond(Recorder):
            def on_message(self, src, message):
                super().on_message(src, message)
                if len(self.received) == 2:
                    self.crash()

        simulator = Simulator()
        network = Network(simulator, delay_model=FixedDelay(1.0), coalesce=True)
        target = CrashOnSecond(0, simulator, network)
        peers = [Recorder(pid, simulator, network) for pid in range(1, 4)]
        for peer in peers:
            network.send(peer.pid, 0, f"from-{peer.pid}")
        simulator.drain()
        assert [src for src, _ in target.received] == [1, 2]
        assert network.stats.messages_delivered == 2
        assert network.stats.messages_dropped_to_crashed == 1

    def test_in_flight_accounting_balances(self):
        simulator, network, _ = build(4, coalesce=True)
        for src in (1, 2, 3):
            network.send(src, 0, "x")
        assert network.in_flight_total() == 3
        simulator.drain()
        assert network.quiescent()

    def test_guards_fire_within_the_coalesced_instant(self):
        # A quorum-style wait must be satisfied by the same event that
        # delivers the awaited batch (deferred scan, same virtual time).
        simulator, network, processes = build(4, coalesce=True)
        fired_at = []
        processes[0].add_guard(
            lambda: len(processes[0].received) >= 2,
            lambda: fired_at.append(simulator.now),
            label="two messages",
        )
        for src in (1, 2, 3):
            network.send(src, 0, "x")
        simulator.drain()
        assert fired_at == [1.0]

    def test_lazy_label_mentions_coalesced_count(self):
        simulator, network, _ = build(3, coalesce=True)
        network.send(1, 0, "a")
        network.send(2, 0, "b")
        (label,) = simulator.pending_labels()
        assert "+1 coalesced" in label


class TestSubnetCoalescing:
    def test_subnets_inherit_the_flag_with_private_indexes(self):
        simulator = Simulator()
        parent = Network(simulator, delay_model=FixedDelay(1.0), coalesce=True)
        subnet_a = Subnet(parent, name="a")
        subnet_b = Subnet(parent, name="b")
        assert subnet_a.coalesce and subnet_b.coalesce
        a = [Recorder(pid, simulator, subnet_a) for pid in range(3)]
        b = [Recorder(pid, simulator, subnet_b) for pid in range(3)]
        # Same (dst, instant) key on both subnets: pid 0 at t=1.  The indexes
        # are subnet-local, so the two deployments never share an event.
        subnet_a.send(1, 0, "a1")
        subnet_a.send(2, 0, "a2")
        subnet_b.send(1, 0, "b1")
        subnet_b.send(2, 0, "b2")
        assert simulator.pending_events == 2
        simulator.drain()
        assert a[0].received == [(1, "a1"), (2, "a2")]
        assert b[0].received == [(1, "b1"), (2, "b2")]
        # Shared aggregate bill counts logical messages.
        assert parent.stats.messages_sent == 4
        assert parent.stats.messages_coalesced == 2


class TestLinkPolicyInteraction:
    def test_policy_sees_each_logical_message_and_reshapes_its_delay(self):
        from repro.faults.partitions import PartitionSchedule, PartitionWindow

        simulator, network, processes = build(4, coalesce=True)
        window = PartitionWindow.isolate((1,), 4, start=0.0, heal=10.0)
        network.link_policy = PartitionSchedule(windows=(window,))
        # p1 is cut off: its message is held past the heal; p2/p3 coalesce at t=1.
        for src in (1, 2, 3):
            network.send(src, 0, f"from-{src}")
        assert simulator.pending_events == 2
        simulator.drain()
        assert [src for src, _ in processes[0].received] == [2, 3, 1]
        assert network.stats.messages_coalesced == 1
        assert simulator.now == pytest.approx(11.0)
