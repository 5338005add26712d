"""Handler-level unit tests for the two-bit algorithm (Figure 1, lines 11-22).

These tests drive a single process's message handlers directly (bypassing the
network's delay) so each pseudocode branch can be exercised in isolation:
the line-11 reorder wait, the line-13/15 append-and-forward branch (rule R1),
the line-16 catch-up branch (rule R2), the line-19..21 READ freshness wait,
and the line-22 PROCEED counter.
"""

import pytest

from repro.core.messages import ProceedMessage, ReadMessage, WriteMessage
from repro.api import create_register
from repro.sim.delays import FixedDelay


def make_cluster(n=3, **kwargs):
    return create_register(n=n, initial_value="v0", delay_model=FixedDelay(1.0), **kwargs)


class TestWriteHandlerInOrder:
    def test_first_value_appended_and_forwarded(self):
        cluster = make_cluster(n=3)
        receiver = cluster.processes[2]
        receiver.deliver(0, WriteMessage(bit=1, value="v1"))
        state = receiver.state
        # lines 12-14: the value is appended and w_sync updated
        assert state.history == ["v0", "v1"]
        assert state.w_sync[2] == 1  # own entry (line 14)
        assert state.w_sync[0] == 1  # sender entry (line 18)
        # line 15: forwarded to every process that (locally) knows only wsn-1
        # values: here p0 (still 0 when line 15 ran) and p1.
        sends = cluster.network.stats.by_type
        assert sends.get("WRITE1", 0) == 2

    def test_duplicate_value_from_second_sender_not_reappended(self):
        cluster = make_cluster(n=3)
        receiver = cluster.processes[2]
        receiver.deliver(0, WriteMessage(bit=1, value="v1"))
        before = len(receiver.state.history)
        # The same (first) value now arrives from p1: wsn = w_sync[1]+1 = 1 which
        # equals w_sync[2] (not +1), so neither branch of lines 13/16 fires.
        messages_before = cluster.network.stats.messages_sent
        receiver.deliver(1, WriteMessage(bit=1, value="v1"))
        assert len(receiver.state.history) == before
        assert receiver.state.w_sync[1] == 1  # line 18 still updates the sender entry
        assert cluster.network.stats.messages_sent == messages_before  # nothing sent

    def test_catch_up_rule_r2_direct(self):
        """line 16: a stale sender is sent the *next* value it is missing.

        p2 legitimately learns values #1 and #2 from the writer; then p1's
        forward of value #1 arrives late.  p2 must answer it with
        ``WRITE(0, v2)`` so p1 can catch up (and with nothing else).
        """
        cluster = make_cluster(n=3)
        receiver = cluster.processes[2]
        receiver.deliver(0, WriteMessage(bit=1, value="v1"))
        receiver.deliver(0, WriteMessage(bit=0, value="v2"))
        assert receiver.state.w_sync[2] == 2
        messages_before = cluster.network.stats.messages_sent
        write0_before = cluster.network.stats.by_type.get("WRITE0", 0)
        # p1's (legitimate) forward of value #1 arrives only now.
        receiver.deliver(1, WriteMessage(bit=1, value="v1"))
        assert receiver.state.w_sync[1] == 1
        assert cluster.network.stats.messages_sent == messages_before + 1
        assert cluster.network.stats.by_type.get("WRITE0", 0) == write0_before + 1

    def test_catch_up_rule_r2_end_to_end_with_slow_link(self):
        """A slow p0->p2 link forces p2 to learn values via p1, then rule R2
        (and the normal forwarding) still brings every history to convergence."""
        from repro.sim.delays import FixedDelay, PerLinkDelay

        slow = PerLinkDelay(default=FixedDelay(1.0), overrides={(0, 2): FixedDelay(25.0)})
        cluster = create_register(
            n=3, initial_value="v0", delay_model=slow, check_invariants=True
        )
        cluster.writer.write("v1")
        cluster.writer.write("v2")
        cluster.settle()
        for process in cluster.processes:
            assert process.state.history == ["v0", "v1", "v2"]
        assert cluster.monitor.report.ok

    def test_history_prefix_never_skips(self):
        cluster = make_cluster(n=3)
        receiver = cluster.processes[1]
        receiver.deliver(0, WriteMessage(bit=1, value="v1"))
        receiver.deliver(0, WriteMessage(bit=0, value="v2"))
        receiver.deliver(0, WriteMessage(bit=1, value="v3"))
        assert receiver.state.history == ["v0", "v1", "v2", "v3"]
        assert receiver.state.w_sync[1] == 3


class TestWriteHandlerReordering:
    def test_out_of_order_write_is_deferred_until_predecessor_arrives(self):
        """line 11: WRITE(0, v2) overtaking WRITE(1, v1) must wait."""
        cluster = make_cluster(n=3)
        receiver = cluster.processes[2]
        receiver.deliver(0, WriteMessage(bit=0, value="v2"))  # overtook its predecessor
        assert receiver.state.history == ["v0"]  # deferred, not applied
        assert receiver.reordered_write_count == 1
        assert len(receiver.waiting_on()) == 1
        receiver.deliver(0, WriteMessage(bit=1, value="v1"))  # the predecessor
        # Both are now applied, in sending order.
        assert receiver.state.history == ["v0", "v1", "v2"]
        assert receiver.state.w_sync[0] == 2
        assert receiver.waiting_on() == []

    def test_in_order_messages_are_not_counted_as_reordered(self):
        cluster = make_cluster(n=3)
        receiver = cluster.processes[1]
        receiver.deliver(0, WriteMessage(bit=1, value="v1"))
        receiver.deliver(0, WriteMessage(bit=0, value="v2"))
        assert receiver.reordered_write_count == 0


class TestReadAndProceedHandlers:
    def test_read_answered_immediately_when_requester_is_fresh(self):
        cluster = make_cluster(n=3)
        responder = cluster.processes[1]
        responder.deliver(2, ReadMessage())
        # sn = w_sync[1][1] = 0 and w_sync[1][2] = 0 >= 0, so PROCEED goes out at once.
        assert cluster.network.stats.by_type.get("PROCEED", 0) == 1

    def test_read_deferred_until_requester_catches_up(self):
        """line 20: the responder waits until it knows the reader is fresh enough."""
        cluster = make_cluster(n=3)
        responder = cluster.processes[1]
        # p1 learns value #1 from the writer; it now believes p2 knows nothing.
        responder.deliver(0, WriteMessage(bit=1, value="v1"))
        responder.deliver(2, ReadMessage())
        assert cluster.network.stats.by_type.get("PROCEED", 0) == 0
        assert len(responder.waiting_on()) == 1
        # p2's own copy of value #1 eventually reaches p1 (the forward p2 does
        # when it learns v1); here we deliver it directly.
        responder.deliver(2, WriteMessage(bit=1, value="v1"))
        assert cluster.network.stats.by_type.get("PROCEED", 0) == 1

    def test_read_answered_at_once_builds_no_wait_but_releases_like_one(self):
        """A line-20 wait that holds when registered fires at once, then
        releases what is due.  Inside a coalesced delivery batch handlers run
        back to back with the release deferred to the end (``on_message``
        below, not ``deliver``); the release a READ triggers there must still
        happen."""
        cluster = make_cluster(n=3)
        responder = cluster.processes[1]
        responder.on_message(0, WriteMessage(bit=0, value="v2"))  # overtook: line-11 wait
        responder.on_message(0, WriteMessage(bit=1, value="v1"))  # enables it, unreleased
        assert responder.state.history == ["v0", "v1"] and len(responder.waiting_on()) == 1
        responder.on_message(2, ReadMessage())
        # sn = 1 > w_sync[2] = 0: p2 is not fresh, this READ waits (line 20) —
        # and registering the wait released nothing.
        assert len(responder.waiting_on()) == 2
        responder.state.w_sync[2] = 1
        responder.on_message(2, ReadMessage())  # fresh now: PROCEED at once, then the release
        assert cluster.network.stats.by_type.get("PROCEED", 0) == 2
        assert responder.state.history == ["v0", "v1", "v2"]
        assert responder.waiting_on() == []

    def test_a_crashed_responder_answers_no_read(self):
        cluster = make_cluster(n=3)
        responder = cluster.processes[1]
        responder.crash()
        responder._handle_read(2)
        assert cluster.network.stats.messages_sent == 0 and responder.waiting_on() == []

    def test_proceed_increments_r_sync(self):
        cluster = make_cluster(n=3)
        reader = cluster.processes[2]
        assert reader.state.r_sync == [0, 0, 0]
        reader.deliver(0, ProceedMessage())
        reader.deliver(0, ProceedMessage())
        reader.deliver(1, ProceedMessage())
        assert reader.state.r_sync == [2, 1, 0]

    def test_unknown_message_type_rejected(self):
        cluster = make_cluster(n=3)
        with pytest.raises(TypeError, match="unknown message"):
            cluster.processes[1].deliver(0, object())


class TestReleaseOrder:
    """Waits that come true together fire in registration order, in passes.

    p1 knows values #1 and #2 from the writer.  From p2 it then receives a
    ``WRITE`` of value #2 that overtook value #1 (line 11 holds it), value
    #1 (line 18 moves ``w_sync[2]`` to 1), a ``READ`` (line 20 holds its
    ``PROCEED`` until ``w_sync[2] >= 2``) and value #3 (line 11 holds it
    too, behind value #2).  Delivered one by one, each wait is released by
    the delivery that reaches it.  Delivered as one coalesced batch, the
    release at its end sees the three waits due together: value #2's
    ``WRITE`` runs lines 12-18 and moves ``w_sync[2]`` to 2, which releases
    the ``PROCEED`` before value #3 (registration order), and value #3 is
    then appended and forwarded.  Either way p1 sends the same messages,
    in the same order.
    """

    MESSAGES = (
        (2, WriteMessage(bit=0, value="v2")),
        (2, WriteMessage(bit=1, value="v1")),
        (2, ReadMessage()),
        (2, WriteMessage(bit=1, value="v3")),
    )
    SENT = [
        (1, 2, WriteMessage(bit=0, value="v2")),  # line 16: catch p2 up on value #1
        (1, 2, ProceedMessage()),  # line 21
        (1, 0, WriteMessage(bit=1, value="v3")),  # line 15: value #3, appended
        (1, 2, WriteMessage(bit=1, value="v3")),
    ]
    BUFFERED_V2 = "line 11 reorder buffer (from p2, bit=0)"
    FRESHNESS = "line 20 freshness wait (reader p2, sn=2)"
    BUFFERED_V3 = "line 11 reorder buffer (from p2, bit=1)"

    @staticmethod
    def receiver():
        cluster = make_cluster(n=4)
        receiver = cluster.processes[1]
        receiver.deliver(0, WriteMessage(bit=1, value="v1"))
        receiver.deliver(0, WriteMessage(bit=0, value="v2"))
        sent = []
        cluster.network.add_send_hook(lambda src, dst, message: sent.append((src, dst, message)))
        return receiver, sent

    def test_one_by_one_each_delivery_releases_what_it_reached(self):
        receiver, sent = self.receiver()
        labels = []
        for src, message in self.MESSAGES:
            receiver.deliver(src, message)
            labels.append(receiver.waiting_on())
        assert labels == [[self.BUFFERED_V2], [], [], []]
        assert sent == self.SENT
        assert receiver.state.history == ["v0", "v1", "v2", "v3"]

    def test_a_coalesced_batch_releases_in_registration_order_after_its_last_handler(self):
        receiver, sent = self.receiver()
        labels = []
        for src, message in self.MESSAGES:
            receiver.on_message(src, message)
            labels.append(receiver.waiting_on())
        assert labels == [
            [self.BUFFERED_V2],
            [self.BUFFERED_V2],
            [self.BUFFERED_V2, self.FRESHNESS],
            [self.BUFFERED_V2, self.FRESHNESS, self.BUFFERED_V3],
        ]
        assert sent == self.SENT[:1]
        receiver.check_guards()
        assert sent == self.SENT
        assert receiver.waiting_on() == []
        assert receiver.state.history == ["v0", "v1", "v2", "v3"]
        assert receiver.reordered_write_count == 2


    def test_a_line_9_that_holds_at_once_releases_again_from_the_first_wait(self):
        """p1's read is registered between p2's waits and p3's.  The batch's
        release fires p2's held ``WRITE`` — which makes p2's earlier-registered
        line-20 wait hold — then the read's line 7; its line 9 holds at once,
        and the release starts again from the first wait: p2's ``PROCEED``
        goes before p3's."""
        cluster = make_cluster(n=4)
        receiver = cluster.processes[1]
        receiver.deliver(0, WriteMessage(bit=1, value="v1"))
        receiver.deliver(0, WriteMessage(bit=0, value="v2"))
        sent = []
        cluster.network.add_send_hook(lambda src, dst, message: sent.append((src, dst, message)))
        receiver.on_message(2, ReadMessage())  # line 20: until w_sync[2] >= 2
        receiver.on_message(2, WriteMessage(bit=0, value="v2"))  # line 11: overtook value #1
        results = []
        receiver.invoke_read(lambda record: results.append(record.result))  # line 7
        receiver.on_message(3, ReadMessage())  # line 20: until w_sync[3] >= 2
        assert receiver.waiting_on() == [
            "line 20 freshness wait (reader p2, sn=2)",
            "line 11 reorder buffer (from p2, bit=0)",
            "read#1 line 7 quorum",
            "line 20 freshness wait (reader p3, sn=2)",
        ]
        for src, message in (
            (2, WriteMessage(bit=1, value="v1")),
            (3, WriteMessage(bit=1, value="v1")),
            (3, WriteMessage(bit=0, value="v2")),
            (2, ProceedMessage()),
            (3, ProceedMessage()),
        ):
            receiver.on_message(src, message)
        receiver.check_guards()
        assert results == ["v2"] and receiver.waiting_on() == []
        assert sent == [
            (1, 0, ReadMessage()),  # line 6
            (1, 2, ReadMessage()),
            (1, 3, ReadMessage()),
            (1, 2, WriteMessage(bit=0, value="v2")),  # line 16: catch p2 up
            (1, 3, WriteMessage(bit=0, value="v2")),  # line 16: catch p3 up
            (1, 2, ProceedMessage()),
            (1, 3, ProceedMessage()),
        ]


class TestSetupErrors:
    def test_operations_require_finish_setup(self):
        from repro.core.process import TwoBitRegisterProcess
        from repro.sim.network import Network
        from repro.sim.scheduler import Simulator

        simulator = Simulator()
        network = Network(simulator)
        process = TwoBitRegisterProcess(0, simulator, network, writer_pid=0)
        with pytest.raises(RuntimeError, match="finish_setup"):
            process.invoke_write("v1", lambda record: None)


class TestWaitDiagnostics:
    """Wait labels are rendered on demand; the text a stuck run prints is
    the text the eager f-strings used to produce.  ``waiting_on`` names the
    operation's wait (lines 3, 7, 9) as well as the pending guards."""

    @staticmethod
    def labels(process):
        return process.waiting_on()

    def test_reorder_buffered_write(self):
        cluster = make_cluster(n=3)
        receiver = cluster.processes[2]
        receiver.deliver(0, WriteMessage(bit=0, value="v2"))
        assert self.labels(receiver) == ["line 11 reorder buffer (from p0, bit=0)"]

    def test_blocked_read_and_the_freshness_wait_it_causes(self):
        cluster = make_cluster(n=3)
        cluster.reader(2).read(run=False)
        assert self.labels(cluster.processes[2]) == ["read#1 line 7 quorum"]
        assert cluster.simulator.pending_labels() == [
            "deliver READ() p2->p0",
            "deliver READ() p2->p1",
        ]
        # p1 learns value #1 first, so it must hold p2's READ back (line 20).
        responder = cluster.processes[1]
        responder.deliver(0, WriteMessage(bit=1, value="v1"))
        responder.deliver(2, ReadMessage())
        assert self.labels(responder) == ["line 20 freshness wait (reader p2, sn=1)"]
        assert cluster.simulator.pending_labels() == [
            "deliver READ() p2->p0",
            "deliver READ() p2->p1",
            "deliver WRITE1('v1') p1->p0",
            "deliver WRITE1('v1') p1->p2",
        ]

    @pytest.mark.parametrize("read_first", [True, False])
    def test_the_operation_wait_is_named_in_registration_order(self, read_first):
        cluster = make_cluster(n=3)
        process = cluster.processes[1]
        if read_first:
            cluster.reader(1).read(run=False)
        # p1 learns value #1 first, so it holds p2's READ back (line 20).
        process.deliver(0, WriteMessage(bit=1, value="v1"))
        process.deliver(2, ReadMessage())
        if not read_first:
            cluster.reader(1).read(run=False)
        read_wait, freshness_wait = "read#1 line 7 quorum", "line 20 freshness wait (reader p2, sn=1)"
        expected = [read_wait, freshness_wait] if read_first else [freshness_wait, read_wait]
        assert self.labels(process) == expected
        assert self.labels(process) == expected  # reading them moves nothing

    def test_write_and_line_9_waits(self):
        cluster = make_cluster(n=5)
        cluster.writer.write("v1", run=False)
        assert self.labels(cluster.processes[0]) == ["write#1 line 3 quorum"]
        reader = cluster.processes[2]
        reader.deliver(0, WriteMessage(bit=1, value="v1"))
        cluster.reader(2).read(run=False)
        reader.deliver(0, ProceedMessage())
        reader.deliver(1, ProceedMessage())
        # Two PROCEEDs end line 7 (3 of 5 with its own entry); only p0 and p2
        # itself are known to hold value #1, one short of the line-9 quorum.
        assert self.labels(reader) == ["read#1 line 9 quorum (sn=1)"]

    def test_a_satisfied_wait_leaves_nothing_pending(self):
        cluster = make_cluster(n=3)
        responder = cluster.processes[1]
        responder.deliver(2, ReadMessage())  # line 20 holds: PROCEED at once
        responder.deliver(0, WriteMessage(bit=1, value="v1"))  # line 11 holds
        assert self.labels(responder) == []
