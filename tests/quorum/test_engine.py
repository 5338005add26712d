"""Unit tests for the shared quorum phase engine (repro.quorum)."""

import pytest

from repro.quorum import (
    AckCounter,
    MaxReply,
    NO_SELF_REPLY,
    PhaseRegisterProcess,
    QuorumCollector,
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
    def test_one_reply_per_responder(self):
        agg = AckCounter()
        assert agg.accept(1, None)
        assert not agg.accept(1, None)  # duplicate ignored
        assert agg.accept(2, None)
        assert agg.responders == 2
        assert agg.result() == 2

    def test_max_reply_plain_ordering(self):
        agg = MaxReply()
        agg.accept(0, (1, 0))
        agg.accept(1, (3, 1))
        agg.accept(2, (2, 2))
        assert agg.result() == (3, 1)

    def test_max_reply_key_breaks_ties_by_arrival_order(self):
        # With a key function, ties keep the first-seen payload — the exact
        # semantics of the pre-engine max(..., key=pair[0]) selection.
        agg = MaxReply(key=lambda pair: pair[0])
        agg.accept(0, (2, "first"))
        agg.accept(1, (2, "second"))
        assert agg.result() == (2, "first")

    def test_max_reply_rejects_empty(self):
        with pytest.raises(ValueError):
            MaxReply().result()

    def test_base_aggregator_result_is_none(self):
        agg = ReplyAggregator()
        agg.accept(0, "x")
        assert agg.result() is None


class TestQuorumCollector:
    def test_satisfied_at_threshold(self):
        phase = QuorumCollector("write", 1, AckCounter(), QuorumTracker(5))
        for pid in range(2):
            phase.accept(pid)
        assert not phase.satisfied()
        phase.accept(2)
        assert phase.satisfied()

    def test_closed_phase_rejects_replies_but_keeps_them(self):
        phase = QuorumCollector("write", 1, AckCounter(), QuorumTracker(3))
        phase.accept(0)
        phase.accept(1)
        phase.close()
        assert not phase.accept(2)
        assert set(phase.replies) == {0, 1}

    def test_continuation_runs_inside_the_accept_that_completes_the_quorum(self):
        seen = []
        phase = QuorumCollector(
            "write", 1, AckCounter(), QuorumTracker(5), lambda phase: seen.append(sorted(phase.replies))
        )
        assert phase.accept(0) and phase.accept(1) and not phase.accept(1)
        assert seen == [] and phase.on_quorum is not None
        assert phase.accept(4)  # the third distinct reply of five: n - t
        assert seen == [[0, 1, 4]] and phase.on_quorum is None
        assert phase.accept(2) and phase.accept(3)  # past the quorum: recorded, nothing runs
        assert seen == [[0, 1, 4]] and len(phase.replies) == 5

    def test_a_custom_aggregator_decides_what_counts(self):
        class EvenOnly(ReplyAggregator):
            def accept(self, src, payload):
                return src % 2 == 0 and super().accept(src, payload)

        seen = []
        phase = QuorumCollector("vote", 0, EvenOnly(), QuorumTracker(3), seen.append)
        assert not phase.accept(1) and phase.accept(0) and not phase.accept(3)
        assert seen == []
        assert phase.accept(2)
        assert seen == [phase] and sorted(phase.replies) == [0, 2]


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
        assert processes[0].active_phase("nope", tag=0) is None
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
