"""Unit tests for the shared quorum phase engine (repro.quorum)."""

import pytest

from repro.quorum import (
    HIGHEST_PAIR,
    AckCounter,
    MaxReply,
    NO_SELF_REPLY,
    PhaseRegisterProcess,
    QuorumTracker,
    ReplyAggregator,
)
from repro.registers.base import OperationRecord
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


class TestTrackerHome:
    def test_canonical_home_is_repro_quorum(self):
        from repro.quorum.tracker import QuorumTracker as canonical

        assert canonical is QuorumTracker

    def test_registers_base_reexports_the_same_class(self):
        from repro.registers.base import QuorumTracker as legacy

        assert legacy is QuorumTracker

    def test_threshold_arithmetic(self):
        tracker = QuorumTracker(5)
        assert tracker.t == 2
        assert tracker.quorum_size == 3
        assert not tracker.satisfied(2)
        assert tracker.satisfied(3)


class TestAggregators:
    def test_ack_counter_counts_the_responders(self):
        assert AckCounter().result({0: None, 2: "ignored"}) == 2

    def test_max_reply_plain_ordering(self):
        assert MaxReply().result({0: (1, 0), 1: (3, 1), 2: (2, 2)}) == (3, 1)

    def test_max_reply_key_breaks_ties_by_arrival_order(self):
        # With a key function, ties keep the first-seen payload — the exact
        # semantics of the pre-engine max(..., key=pair[0]) selection.
        agg = MaxReply(key=lambda pair: pair[0])
        assert agg.result({0: (2, "first"), 1: (2, "second")}) == (2, "first")
        assert HIGHEST_PAIR.result({1: (2, "second"), 0: (2, "first")}) == (2, "second")

    def test_max_reply_rejects_empty(self):
        with pytest.raises(ValueError):
            MaxReply().result({})

    def test_base_aggregator_result_is_none(self):
        assert ReplyAggregator().result({0: "x"}) is None


def _bare_phase(n, on_quorum=lambda phase: None, aggregator=None, self_reply=NO_SELF_REPLY):
    """Process 0 of ``n`` with one phase started and nothing delivered yet."""
    _, _, processes = build_ping_pong(n)
    process = processes[0]
    phase = process.start_phase(
        "write",
        tag=1,
        message=PingMessage(),
        aggregator=aggregator,
        self_reply=self_reply,
        on_quorum=on_quorum,
        label="bare",
    )
    return process, phase


class TestQuorumCollector:
    def test_one_reply_per_responder(self):
        process, phase = _bare_phase(5, self_reply=None)
        assert process.phase_reply("write", 1, tag=1)
        assert not process.phase_reply("write", 1, "again", tag=1)  # duplicate ignored
        assert process.phase_reply("write", 2, tag=1)
        assert phase.replies == {0: None, 1: None, 2: None}
        assert phase.result() == 3

    def test_fires_at_threshold(self):
        seen = []
        process, _phase = _bare_phase(5, on_quorum=seen.append)
        for pid in range(2):
            process.phase_reply("write", pid, tag=1)
        assert seen == []
        process.phase_reply("write", 2, tag=1)
        assert len(seen) == 1

    def test_closed_phase_rejects_replies_but_keeps_them(self):
        process, phase = _bare_phase(3)
        process.phase_reply("write", 0, tag=1)
        process.close_phases("write")
        assert not process.phase_reply("write", 1, tag=1)
        assert phase.closed and set(phase.replies) == {0}

    def test_continuation_runs_inside_the_reply_that_completes_the_quorum(self):
        seen = []
        process, phase = _bare_phase(5, on_quorum=lambda phase: seen.append(sorted(phase.replies)))
        reply = process.phase_reply
        assert reply("write", 0, tag=1) and reply("write", 1, tag=1) and not reply("write", 1, tag=1)
        assert seen == [] and phase.on_quorum is not None
        assert reply("write", 4, tag=1)  # the third distinct reply of five: n - t
        assert seen == [[0, 1, 4]] and phase.on_quorum is None
        assert reply("write", 2, tag=1) and reply("write", 3, tag=1)  # past the quorum: recorded
        assert seen == [[0, 1, 4]] and len(phase.replies) == 5

    def test_accept_records_a_reply_and_runs_nothing(self):
        seen = []
        process, phase = _bare_phase(3, on_quorum=seen.append)
        phase.accept(1, "x")
        phase.accept(2)
        assert phase.replies == {1: "x", 2: None} and seen == []
        # The next counted reply finds the quorum there.
        assert process.phase_reply("write", 0, tag=1) and seen == [phase]

    def test_the_aggregator_reduces_the_finished_reply_set(self):
        results = []
        process, _phase = _bare_phase(
            3, on_quorum=lambda phase: results.append(phase.result()),
            aggregator=HIGHEST_PAIR, self_reply=(1, "own"),
        )
        process.phase_reply("write", 2, (3, "newer"), tag=1)
        assert results == [(3, "newer")]


class PingMessage:
    price = ("PING", 0, 0)


class PongMessage:
    price = ("PONG", 0, 0)

    def __init__(self, tag):
        self.tag = tag


class PingPongProcess(PhaseRegisterProcess):
    """Minimal quorum protocol: broadcast PING, collect PONGs until n - t."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.round = 0
        self.quorum_results = []

    def start_round(self):
        self.round += 1
        tag = self.round
        return self.start_phase(
            "ping",
            tag=tag,
            message=PingMessage(),
            self_reply=None,
            on_quorum=lambda phase: self.quorum_results.append(
                (phase.tag, sorted(phase.replies))
            ),
            label=f"ping round {tag}",
        )

    def on_message(self, src, message):
        if isinstance(message, PingMessage):
            self.send(src, PongMessage(tag=None))
        elif isinstance(message, PongMessage):
            self.phase_reply("ping", src, tag=self.round if message.tag is None else message.tag)


def build_ping_pong(n=5):
    simulator = Simulator()
    network = Network(simulator)
    processes = [PingPongProcess(pid, simulator, network, writer_pid=0) for pid in range(n)]
    for process in processes:
        process.finish_setup()
    return simulator, network, processes


class TestPhaseRegisterProcess:
    def test_phase_reaches_quorum_and_fires_once(self):
        simulator, network, processes = build_ping_pong(5)
        processes[0].start_round()
        simulator.drain()
        assert len(processes[0].quorum_results) == 1
        tag, responders = processes[0].quorum_results[0]
        assert tag == 1
        assert 0 in responders  # the self-reply counts
        # Quorum fired at n - t even though all n eventually reply.
        assert len(responders) >= processes[0].quorum.quorum_size

    def test_broadcast_counts_messages(self):
        simulator, network, processes = build_ping_pong(5)
        processes[0].start_round()
        simulator.drain()
        # 4 PINGs out, 4 PONGs back.
        assert network.stats.by_type == {"PING": 4, "PONG": 4}

    def test_stale_tag_rejected(self):
        simulator, network, processes = build_ping_pong(3)
        process = processes[0]
        process.start_round()
        simulator.drain()
        before = dict(process._phases["ping"].replies)
        # A forged reply carrying an old tag must not land anywhere.
        process.start_round()
        assert not process.phase_reply("ping", 1, tag=1)  # round is now 2
        assert process.phase_reply("ping", 1, tag=2)
        assert before == {0: None, 1: None, 2: None}

    def test_unknown_slot_rejected(self):
        _, _, processes = build_ping_pong(3)
        assert not processes[0].phase_reply("nope", 1, tag=0)

    def test_close_phases_freezes_replies(self):
        simulator, _, processes = build_ping_pong(5)
        process = processes[0]
        process.start_round()
        process.close_phases("ping", "missing-slot-is-fine")
        simulator.drain()
        # Only the self-reply landed before the close.
        assert sorted(process._phases["ping"].replies) == [0]
        assert process.quorum_results == []
        # A closed phase never fires: it let go of its continuation.
        assert process._phases["ping"].on_quorum is None

    def test_phase_words_counts_retained_replies(self):
        simulator, _, processes = build_ping_pong(5)
        process = processes[0]
        assert process.phase_words("ping") == 0
        process.start_round()
        simulator.drain()
        assert process.phase_words("ping") == 5
        assert process.phase_words("ping", "other") == 5

    def test_start_phase_sends_the_one_message_to_every_peer_in_pid_order(self):
        simulator, network, processes = build_ping_pong(4)
        sent = []
        network.add_send_hook(lambda src, dst, message: sent.append((src, dst, message)))
        processes[2].start_round()
        assert [(src, dst) for src, dst, _ in sent] == [(2, 0), (2, 1), (2, 3)]
        assert len({id(message) for _, _, message in sent}) == 1

    def test_quorum_waits_are_counted_not_polled(self, monkeypatch):
        """No engine-based register registers a guard: ``deliver`` never scans."""
        from repro.workloads.kv import KVWorkloadSpec, run_kv_workload

        def no_guards(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} registered a guard")

        monkeypatch.setattr(PhaseRegisterProcess, "add_guard", no_guards)
        for algorithm in ("abd", "abd-mwmr", "abd-bounded-emulation"):
            result = run_kv_workload(KVWorkloadSpec(algorithm=algorithm, num_ops=60, seed=3))
            assert result.verify().ok and len(result.completed_ops()) == 60

    def test_no_self_reply_sentinel_distinct_from_none(self):
        simulator, _, processes = build_ping_pong(5)
        process = processes[0]
        phase = process.start_phase(
            "bare",
            tag=0,
            message=PingMessage(),
            self_reply=NO_SELF_REPLY,
            on_quorum=lambda phase: None,
            label="bare",
        )
        assert phase.replies == {}
