"""Live loopback cluster: end-to-end smoke + cross-backend equivalence.

These tests launch real OS processes talking asyncio TCP on 127.0.0.1, so
they are the slowest in the suite (a few seconds each) but also the proof
that the same register algorithms run unmodified over real sockets.
"""

import asyncio

import pytest

from repro.core.messages import WIRE_CODES
from repro.faults.plan import CrashPoint
from repro.registers.base import OperationKind
from repro.transport.live import _ReplicaServer, consensus_audit
from repro.workloads.kv import iter_kv_operations, run_kv_workload
from repro.workloads.scenarios import consensus_smoke, kv_uniform


def live_spec(**overrides):
    defaults = dict(num_keys=6, num_ops=60, replication=3, seed=13)
    defaults.update(overrides)
    return kv_uniform(**defaults).with_(transport="live")


class TestLiveLoopbackRun:
    def test_closed_loop_run_is_clean_and_linearizable(self):
        result = run_kv_workload(live_spec())
        assert result.finished_cleanly
        assert result.completed == 60 and result.failed == 0
        assert result.total_messages() > 0
        assert result.store is None and result.virtual_makespan is None
        report = result.check_linearizability()
        assert report.ok
        assert report.keys_checked == len(result.histories())
        # Wall-clock metrics plane: wall throughput present, virtual nulled.
        assert result.metrics["virtual_throughput"] is None
        assert result.metrics["wall_throughput"] > 0
        assert result.wall_throughput() > 0
        assert result.metrics["messages"]["total"] == result.total_messages()

    def test_open_loop_poisson_run_is_clean(self):
        result = run_kv_workload(
            live_spec(num_ops=40).with_(arrival="poisson", arrival_rate=200.0)
        )
        assert result.finished_cleanly
        assert result.completed == 40
        assert result.check_linearizability().ok

    def test_open_loop_latency_is_stamped_when_the_result_frame_arrives(self):
        """Regression: completion used to be stamped at *collection* time.

        The open-loop driver fired the whole schedule and only then walked
        the futures, stamping ``responded_at`` as it went — so every latency
        included the rest of the firing loop (p50 of seconds at 1,000 ops/s
        where the wire answers in ~2 ms).  Stamped on arrival, a 300 ops/s
        loopback run sits far below 100 ms, and the history stays
        Wing–Gong-clean (a later stamp only ever widened intervals; an
        on-arrival stamp is still inside the true one).
        """
        spec = live_spec(num_ops=300, num_keys=8, algorithm="abd-mwmr").with_(
            arrival="poisson", arrival_rate=300.0
        )
        result = run_kv_workload(spec)
        assert result.finished_cleanly and result.completed == 300
        assert result.metrics["latency"]["all"]["p50"] < 0.100
        assert result.check_linearizability(swmr_fast_path=False).ok


class TestLiveBill:
    def test_a_two_bit_run_bills_two_bits_per_message_on_the_wire(self):
        """The replicas ship their own bill, so the paper's claims are
        measured on sockets: every message carries two control bits (C1),
        there are four wire types (C2), and a read costs 2(n-1) messages, a
        write n(n-1) (C3)."""
        n = 3
        spec = live_spec(num_ops=120, algorithm="two-bit", read_fraction=0.5)
        result = run_kv_workload(spec)
        assert result.finished_cleanly and result.failed == 0
        reads = sum(op.kind == "read" for op in iter_kv_operations(spec))
        writes = spec.num_ops - reads
        assert reads and writes
        stats = result.stats
        assert stats.max_control_bits == 2  # C1
        assert stats.control_bits_total == 2 * stats.messages_sent
        assert set(stats.by_type) == set(WIRE_CODES)  # C2
        assert stats.messages_sent == reads * 2 * (n - 1) + writes * n * (n - 1)  # C3
        assert sorted(stats.per_sender) == list(range(n))
        assert sum(stats.per_sender.values()) == stats.messages_sent

    def test_a_crashed_replica_ships_its_bill_and_the_claims_hold_over_it(self):
        """A crash point halts its replica, which still answers the stats
        drain: every message sent landed, delivered or dropped at the crashed
        replica, and C1–C3 hold over the whole bill, the victim's sends
        included.  Operations it never served send less, so C3 is a bound."""
        n, k = 3, 60
        spec = live_spec(num_ops=120, algorithm="two-bit", read_fraction=0.5).with_(
            crash_points=(CrashPoint(shard=0, replica=2, after_messages_sent=k),)
        )
        result = run_kv_workload(spec)
        assert result.finished_cleanly and result.verify().ok
        assert {replica for _shard, replica in result.crashed} == {2}
        reads = sum(op.kind == "read" for op in iter_kv_operations(spec))
        writes = spec.num_ops - reads
        stats = result.stats
        assert stats.messages_dropped_to_crashed > 0
        assert stats.messages_sent == stats.messages_delivered + stats.messages_dropped_to_crashed
        assert stats.max_control_bits == 2  # C1
        assert stats.control_bits_total == 2 * stats.messages_sent
        assert set(stats.by_type) <= set(WIRE_CODES)  # C2
        assert stats.messages_sent <= reads * 2 * (n - 1) + writes * n * (n - 1)  # C3
        assert sorted(stats.per_sender) == list(range(n)) and stats.per_sender[2] == k
        assert sum(stats.per_sender.values()) == stats.messages_sent


class TestCrossBackendEquivalence:
    def test_sim_and_live_execute_the_identical_operation_set(self):
        """Satellite gate: same seeded spec, both backends, same operations.

        The op-mix RNG stream is independent of the arrival model and of the
        transport, so a simulated run and a live loopback run of the same
        spec execute the exact same (kind, key, value) sequence; only the
        timings differ (virtual units vs wall seconds), by design.
        """
        sim_spec = kv_uniform(num_keys=6, num_ops=60, replication=3, seed=13)
        spec = live_spec()

        def op_set(s):
            return [
                (op.kind, op.key, op.value) for op in iter_kv_operations(s)
            ]

        assert op_set(sim_spec) == op_set(spec)

        sim_result = run_kv_workload(sim_spec)
        live_result = run_kv_workload(spec)
        sim_result.check_atomicity()
        assert live_result.check_linearizability().ok
        assert live_result.finished_cleanly

        from collections import Counter

        sim_ops = Counter(
            (op.kind.value, op.key, op.value) for op in sim_result.completed_ops()
        )
        live_ops = Counter()
        for key, history in live_result.histories().items():
            for record in history.operations:
                kind = OperationKind.WRITE if record.is_write else OperationKind.READ
                live_ops[(kind.value, key, record.value if record.is_write else None)] += 1
        assert sim_ops == live_ops

    def test_both_backends_checker_clean_on_every_algorithm(self):
        for algorithm in ("two-bit", "abd-mwmr"):
            spec = live_spec(num_ops=30, algorithm=algorithm)
            live_result = run_kv_workload(spec)
            assert live_result.finished_cleanly, algorithm
            assert live_result.check_linearizability().ok, algorithm
            sim_result = run_kv_workload(spec.with_(transport="sim"))
            sim_result.check_atomicity()


class TestLiveConsensusAudit:
    """A live replica reports its consensus log with its stats; the client audits it."""

    def test_a_live_consensus_run_carries_a_clean_audit(self):
        result = run_kv_workload(consensus_smoke(num_keys=4, num_ops=40).with_(transport="live"))
        assert result.verify().invariants == []

    def test_replies_that_disagree_are_reported_by_key_and_slot(self):
        def reply(*logs):
            return {
                "kind": "stats_reply",
                "consensus": [
                    {"key": key, "decided": decided, "commands": commands}
                    for key, decided, commands in logs
                ],
            }

        replies = {
            0: reply(("k0001", [[0, 1], [1, 0]], [0]), ("k0002", [[3, 1]], [])),
            1: reply(("k0001", [[0, 1], [1, 1]], [0, 1])),
            2: {"kind": "stats_reply"},  # hosts no consensus-backed key
        }
        assert consensus_audit(replies) == [
            "agreement violation at key 'k0001' slot 1: p0->0, p1->1",
            "validity violation at key 'k0002' slot 3: decided 1 "
            "but no replica knows a command for the slot",
        ]

    def test_only_consensus_replicas_add_a_log_to_their_reply(self):
        async def replies():
            out = {}
            for algorithm in ("abd-mwmr", "mmr-cas"):
                server = _ReplicaServer(0, 3, algorithm, None)
                server.live_key("k0000")
                out[algorithm] = server._stats_reply()
            return out

        register, consensus = (asyncio.run(replies())[name] for name in ("abd-mwmr", "mmr-cas"))
        # A register replica's answer keeps its size: nothing to audit.
        assert "consensus" not in register and consensus_audit({0: register}) is None
        assert consensus["consensus"] == [{"key": "k0000", "decided": [], "commands": []}]
        assert consensus_audit({0: consensus}) == []
