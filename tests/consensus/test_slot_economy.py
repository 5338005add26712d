"""The consensus slot economy: what a slot costs, and who may settle it.

Exact message bills at ``n = 3`` on FIFO-like links (``FixedDelay``): a lone
command is one instance of one round and no coin traffic, an idle owner's
slot is one relayed ``DECIDE``.  Then the crashed-owner cases: holes left by
a dead owner are decided 0 by instances among the survivors, and an owner or
proposer that dies mid-broadcast never splits or stalls them.
"""

from __future__ import annotations

from collections import Counter

from repro.consensus import ConsDecide, ConsEst, consensus_invariants
from repro.registers.base import OperationKind
from repro.store.store import KVStore, StoreConfig

N = 3
BROADCAST = N * (N - 1)  # one message from every replica to every other


def store_and_sends():
    """A one-shard ``mmr-cas`` store (fixed unit delays) and its send log."""
    store = KVStore(
        StoreConfig(algorithm="mmr-cas", num_shards=1, replication=N, initial_value=None)
    )
    sends = []
    store.network.add_send_hook(lambda src, dst, message: sends.append((src, dst, message)))
    return store, sends


def cas(store, expected, new, replica):
    return store.submit_op(OperationKind.CAS, "k", (expected, new), replica=replica)


def replicas(store):
    return list(store.register_for("k").processes)


def crash_after_first(store, pid, message_class):
    """Kill replica ``pid`` the moment its first ``message_class`` is on the wire."""
    process = replicas(store)[pid]

    def hook(src, dst, message):
        if src == pid and isinstance(message, message_class):
            process.crash()

    store.network.add_send_hook(hook)


def assert_survivors_agree(store, dead):
    processes = replicas(store)
    assert consensus_invariants({"k": processes}) == []
    assert store.check_linearizability(swmr_fast_path=False).ok
    alive = [process for process in processes if process.pid != dead]
    assert len({tuple(sorted(process.decided.items())) for process in alive}) == 1
    assert len({process.frontier for process in alive}) == 1
    return alive


class TestExactBills:
    def test_a_lone_command_is_one_instance_of_one_round(self):
        store, _ = store_and_sends()
        op = cas(store, None, "a", replica=0)  # slot 0: nothing to yield below it
        store.drive()
        store.settle()
        assert op.completed and op.record.result is True
        assert store.stats.messages_sent == 3 * BROADCAST == 18
        assert store.stats.by_type == {
            "CONS_EST": BROADCAST,
            "CONS_AUX": BROADCAST,
            "CONS_DECIDE": BROADCAST,
        }
        for process in replicas(store):
            assert process.decided == {0: 1}
            assert process.rounds_entered == 1  # decided in round 0

    def test_an_idle_live_owner_settles_its_slot_with_one_relayed_decide(self):
        store, sends = store_and_sends()
        op = cas(store, None, "a", replica=2)  # slot 2: slots 0 and 1 are gaps
        store.drive()
        store.settle()
        assert op.completed
        for process in replicas(store):
            assert process.decided == {0: 0, 1: 0, 2: 1}
        # Each gap cost n(n-1) DECIDEs (the owner's broadcast plus the
        # relays) and nothing else; the command slot cost its 18.
        by_slot = Counter((message.slot, message.type_name) for _, _, message in sends)
        for gap in (0, 1):
            assert {kind: n for (slot, kind), n in by_slot.items() if slot == gap} == {
                "CONS_DECIDE": BROADCAST
            }
        assert store.stats.messages_sent == 3 * BROADCAST + 2 * BROADCAST
        # The owners decided by themselves, before any peer told them.
        first = {}
        for src, _, message in sends:
            if isinstance(message, ConsDecide):
                first.setdefault(message.slot, src)
        assert first[0] == 0 and first[1] == 1

    def test_rotating_commands_cost_eighteen_messages_each(self):
        store, _ = store_and_sends()
        value = None
        for index in range(9):  # slot i is proposed by its owner: no gaps at all
            op = cas(store, value, index, replica=index % N)
            store.drive()
            assert op.completed and op.record.result is True
            value = index
        store.settle()
        assert store.stats.messages_sent == 9 * 3 * BROADCAST
        assert "CONS_COIN" not in store.stats.by_type
        assert replicas(store)[0].decided == {slot: 1 for slot in range(9)}


class TestCrashedOwners:
    def test_a_dead_owners_holes_are_decided_zero_by_instances(self):
        store, sends = store_and_sends()
        store.crash_server(0, 1)  # replica 1 is down from t = 0
        value, ops = None, []
        for index in range(8):
            op = cas(store, value, index, replica=(0, 2)[index % 2])
            store.drive()
            ops.append(op)
            value = index
        store.settle()
        assert all(op.completed and op.record.result is True for op in ops)
        alive = assert_survivors_agree(store, dead=1)
        holes = [slot for slot in alive[0].decided if slot % N == 1]
        assert holes and all(alive[0].decided[slot] == 0 for slot in holes)
        # Nobody could yield those slots, so each was proposed 0 — by both
        # survivors — and went through rounds 0 and 1.
        for hole in holes:
            proposers = {
                (src, message.round)
                for src, _, message in sends
                if isinstance(message, ConsEst) and message.slot == hole
            }
            assert proposers == {(0, 0), (0, 1), (2, 0), (2, 1)}
            assert all(
                message.value == 0
                for _, _, message in sends
                if isinstance(message, ConsEst) and message.slot == hole
            )

    def test_an_owner_dying_mid_yield_neither_splits_nor_stalls_the_survivors(self):
        store, sends = store_and_sends()
        crash_after_first(store, 1, ConsDecide)  # its DECIDE(1, 0) reaches p0 only
        op = cas(store, None, "a", replica=2)
        store.drive()
        store.settle()
        assert op.completed and op.record.result is True
        assert replicas(store)[1].crashed
        decides_by_p1 = [dst for src, dst, m in sends if src == 1 and isinstance(m, ConsDecide)]
        assert decides_by_p1 == [0]
        alive = assert_survivors_agree(store, dead=1)
        assert alive[0].decided == {0: 0, 1: 0, 2: 1}
        # p0's relay carried the yield to p2: no instance ran for slot 1.
        assert not [m for _, _, m in sends if isinstance(m, ConsEst) and m.slot == 1]

    def test_a_proposer_dying_mid_estimate_leaves_a_decidable_slot(self):
        store, sends = store_and_sends()
        crash_after_first(store, 0, ConsEst)  # its EST(0, 1) reaches p1 only
        lost = cas(store, None, "a", replica=0)
        store.drive()
        assert lost.failed
        follow_up = cas(store, "a", "b", replica=1)
        store.drive()
        store.settle()
        assert follow_up.completed
        alive = assert_survivors_agree(store, dead=0)
        # p1 echoed the estimate with its command, so the survivors decided
        # 1 and applied the dead proposer's swap before the follow-up's.
        assert alive[0].decided[0] == 1
        assert all(process.commands[0] == [0, "cas", (None, "a")] for process in alive)
        assert follow_up.record.result is True


class TestStuckReports:
    def test_a_stalled_consensus_operation_names_what_the_log_waits_for(self):
        store, _ = store_and_sends()
        store.crash_server(0, 1)
        replicas(store)[2].crash()  # one more than t: no quorum is left
        op = cas(store, None, "a", replica=0)
        store.drive()
        assert op.failed
        assert "waiting on: slot 0 round 0: AUX 0/2 within bin_values" in op.failure_reason

    def test_waiting_on_names_holes_and_unknown_commands(self):
        store, _ = store_and_sends()
        process = replicas(store)[0]
        assert process.waiting_on() == []
        process.decided[1] = 0  # as if a DECIDE for slot 1 had arrived alone
        assert process.waiting_on() == [
            "frontier 0: slot 0 undecided (owner p0, no instance here)"
        ]
        process.decided[0] = 1
        assert process.waiting_on() == ["slot 0 decided 1, command unknown"]
        process.crash()
        assert process.waiting_on() == []
