"""The consensus slot economy: what a slot costs, and who may settle it.

Exact message bills at ``n = 3`` on FIFO-like links (``FixedDelay``): a lone
command is one instance of one round and no coin traffic — twelve messages,
because a joining replica's echo completes its own quorum (``t = 1``) and its
AUX vouches for it, and the proposer's ``DECIDE`` stands for its AUX — and an
idle owner's slot is one relayed ``DECIDE``.  At ``n = 5`` and ``n = 7`` an
echo completes nothing by itself and the lone bill is the full ``3n(n - 1)``:
both sides of that property are pinned, data bits included.  The twelve are
the bill of links that keep to the triangle inequality; where a joiner's AUX
overtakes the proposer's EST on the way to the other joiner the command is
ten, also pinned.  Then the crashed-owner cases: holes
left by a dead owner are decided 0 by instances among the survivors, and an
owner or proposer that dies mid-broadcast never splits or stalls them.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.consensus import ConsAux, ConsDecide, ConsEst, consensus_invariants
from repro.registers.base import OperationKind
from repro.sim.delays import FixedDelay, PerLinkDelay
from repro.store.store import KVStore, StoreConfig

N = 3
BROADCAST = N * (N - 1)  # one message from every replica to every other
COMMAND = [0, "cas", (None, "a")]  # what ``cas(store, None, "a", replica=0)`` proposes


def store_and_sends(n=N, **config):
    """A one-shard ``mmr-cas`` store (fixed unit delays) and its send log."""
    store = KVStore(
        StoreConfig(algorithm="mmr-cas", num_shards=1, replication=n, initial_value=None, **config)
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
        # The proposer's EST; each joiner's AUX (its echo rides on it); every
        # replica's DECIDE (the proposer's stands for its AUX).
        assert store.stats.messages_sent == 2 * BROADCAST == 12
        assert store.stats.by_type == {"CONS_EST": 2, "CONS_AUX": 4, "CONS_DECIDE": BROADCAST}
        # The command rides on all twelve — as it rode on twelve of the
        # eighteen (the EST and the DECIDE) before the AUX carried it.
        assert store.stats.data_bits_total == 12 * ConsEst(0, 0, 1, COMMAND).data_bits() == 1356
        for process in replicas(store):
            assert process.decided == {0: 1}
            assert process.rounds_entered == 1  # decided in round 0

    def test_an_aux_that_overtakes_the_estimate_spares_the_late_joiner_its_own(self):
        # FIFO links that break the triangle inequality, as sockets do: p1's
        # AUX (two hops) reaches p2 before p0's EST (one slow hop).  p2 counts
        # it as p1's estimate too, has both quorums in its first step and
        # decides there — its DECIDE stands for its AUX.  So a command is ten
        # or twelve messages by the schedule; the EST and DECIDE counts are not.
        slow = PerLinkDelay(FixedDelay(1.0), {(0, 2): FixedDelay(2.5)})
        store, sends = store_and_sends(delay_model=slow)
        op = cas(store, None, "a", replica=0)
        store.drive()
        store.settle()
        assert op.completed and op.record.result is True
        assert store.stats.by_type == {"CONS_EST": 2, "CONS_AUX": 2, "CONS_DECIDE": BROADCAST}
        assert [type(message) for src, _, message in sends if src == 2] == [ConsDecide] * 2
        for process in replicas(store):
            assert process.decided == {0: 1} and process.state == "a"
            assert process.rounds_entered == 1

    @pytest.mark.parametrize("n", [5, 7])
    def test_without_a_one_echo_quorum_a_lone_command_is_three_full_broadcasts(self, n):
        # t >= 2: the first echo leaves the quorum short, so it goes out by
        # itself, the AUX follows a step later and the decision one after it.
        store, _ = store_and_sends(n)
        op = cas(store, None, "a", replica=0)
        store.drive()
        store.settle()
        assert op.completed and op.record.result is True
        broadcast = n * (n - 1)
        assert store.stats.messages_sent == 3 * broadcast == {5: 60, 7: 126}[n]
        assert store.stats.by_type == {
            "CONS_EST": broadcast,
            "CONS_AUX": broadcast,
            "CONS_DECIDE": broadcast,
        }
        # The price off the property: every value-1 AUX carries the command
        # (it is counted as an estimate, with nothing missing), none stands
        # for an echo here, so the command rides on three broadcasts where it
        # rode on two — 4,520 / 9,492 data bits before.  Control bits unmoved.
        assert store.stats.data_bits_total == 3 * broadcast * ConsEst(0, 0, 1, COMMAND).data_bits()
        assert store.stats.data_bits_total == {5: 6780, 7: 14238}[n]
        assert store.stats.control_bits_total == {5: 280, 7: 588}[n]
        assert all(process.rounds_entered == 1 for process in replicas(store))

    def test_an_idle_live_owner_settles_its_slot_with_one_relayed_decide(self):
        store, sends = store_and_sends()
        op = cas(store, None, "a", replica=2)  # slot 2: slots 0 and 1 are gaps
        store.drive()
        store.settle()
        assert op.completed
        for process in replicas(store):
            assert process.decided == {0: 0, 1: 0, 2: 1}
        # Each gap cost n(n-1) DECIDEs (the owner's broadcast plus the
        # relays) and nothing else; the command slot cost its 12.
        by_slot = Counter((message.slot, message.type_name) for _, _, message in sends)
        for gap in (0, 1):
            assert {kind: n for (slot, kind), n in by_slot.items() if slot == gap} == {
                "CONS_DECIDE": BROADCAST
            }
        assert store.stats.messages_sent == 2 * BROADCAST + 2 * BROADCAST
        # The owners decided by themselves, before any peer told them.
        first = {}
        for src, _, message in sends:
            if isinstance(message, ConsDecide):
                first.setdefault(message.slot, src)
        assert first[0] == 0 and first[1] == 1

    def test_rotating_commands_cost_twelve_messages_each(self):
        store, _ = store_and_sends()
        value = None
        for index in range(9):  # slot i is proposed by its owner: no gaps at all
            op = cas(store, value, index, replica=index % N)
            store.drive()
            assert op.completed and op.record.result is True
            value = index
        store.settle()
        assert store.stats.messages_sent == 9 * 2 * BROADCAST == 108
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
        # survivors — and went through rounds 0 and 1.  A replica's estimate
        # is on the wire as its EST or as the AUX that vouches for it.
        by_slot = Counter(message.slot for _, _, message in sends)
        for hole in holes:
            estimates = [
                (src, message)
                for src, _, message in sends
                if isinstance(message, (ConsEst, ConsAux)) and message.slot == hole
            ]
            assert {(src, message.round) for src, message in estimates} == {
                (0, 0), (0, 1), (2, 0), (2, 1)
            }
            assert all(message.value == 0 for _, message in estimates)
            assert by_slot[hole] == 18  # 20 when every echo was sent
        commands = [slot for slot, value in alive[0].decided.items() if value == 1]
        assert len(commands) == 8 and all(by_slot[slot] == 8 for slot in commands)

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

    def test_the_command_of_a_dead_proposer_travels_on_the_aux_that_vouches_for_its_echo(self):
        store, sends = store_and_sends()
        crash_after_first(store, 0, ConsEst)  # its EST(0, 1, cand) reaches p1 only
        lost = cas(store, None, "a", replica=0)
        store.drive()
        assert lost.failed
        store.settle()
        # p1's echo completed its own quorum, so it was never sent: the AUX
        # is the only carrier the command has left, and p2 learns it there.
        slot0 = [(src, dst, message) for src, dst, message in sends if message.slot == 0]
        assert [(src, dst) for src, dst, m in slot0 if isinstance(m, ConsEst)] == [(0, 1)]
        from_p1 = [message for src, dst, message in slot0 if (src, dst) == (1, 2)]
        assert from_p1[0] == ConsAux(slot=0, round=0, value=1, cand=COMMAND)
        assert from_p1[0].data_bits() == ConsEst(0, 0, 1, COMMAND).data_bits() > 0
        alive = assert_survivors_agree(store, dead=0)
        assert [process.pid for process in alive] == [1, 2]
        for process in alive:
            assert process.decided == {0: 1} and process.commands[0] == COMMAND
            assert process.state == "a" and process.frontier == 1


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
