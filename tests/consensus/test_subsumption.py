"""The soundness argument for subsumption, as a test.

A consensus replica does not send a message when, in the same step and to the
same peers, it goes on to send one that makes it a no-op: an echo ``EST(r, v)``
followed by the ``AUX(r, v)`` (the AUX *vouches* for it — a receiver counts
every AUX as its sender's EST too), and an AUX followed by the ``DECIDE`` of
the round (a decided peer drops it).  The claim is that every run of these
replicas is a run, under a legal schedule, of the protocol that sends every
message: links are not FIFO, so the withheld message may be delivered right
behind the one that subsumes it, and there it changes nothing.

That protocol is kept here, as the **oracle** (``_Unsubsumed``: the handlers
as they were, on a transport that delivers nothing by itself).  ``_Shadow``
runs one oracle replica in lock-step with every real replica of a seeded
store run and replays each real step into it — a delivered ``AUX`` as the AUX
then its ``EST``, anything a ``DECIDE`` subsumes right behind the ``DECIDE``
— asserting, step by step, that

* the delivered message *was sent* by the oracle (it is in the oracle's
  in-flight bag), and an early-delivered one is a no-op when the real network
  delivers it later;
* the real replica sends nothing the oracle does not, and whatever it
  withholds is subsumed by a message of the same step to the same peer;
* ``decided``, ``frontier``, ``state``, ``commands``, the per-round tallies
  and every client result agree.

The message format is shared (a value-1 AUX carries the command on both
sides).  A replica killed inside a broadcast stops the oracle after the same
destinations.  Below the replay: the rule as a wire invariant, the exact
steps the four prototype traps were about, and four source mutants that each
fail a named test.
"""

from __future__ import annotations

import inspect
import random
import textwrap
from collections import Counter, defaultdict
from functools import partial
from types import SimpleNamespace

import pytest

from repro.consensus import mmr
from repro.consensus.mmr import (
    COIN_PREFIX,
    ConsAux,
    ConsCoin,
    ConsDecide,
    ConsEst,
    ConsensusObjectProcess,
    SkipAuxConsensusProcess,
    common_coin,
    consensus_invariants,
)
from repro.faults import FaultPlan, PartitionSchedule, PartitionWindow
from repro.registers.base import OperationKind, OperationRecord
from repro.sim.delays import ExponentialDelay, FixedDelay, UniformDelay
from repro.store.store import KVStore, StoreConfig

# ------------------------------------------------------------------ the oracle


class _Unsubsumed(ConsensusObjectProcess):
    """The replica that sends every message: the handlers before subsumption."""

    def _bv_step(self, slot, instance, round, value):
        state = instance.at(round)
        senders = state.est_senders[value]
        if self.pid not in senders:
            senders.add(self.pid)
            cand = self.commands.get(slot) if value == 1 else None
            self.send(self._peers, ConsEst(slot=slot, round=round, value=value, cand=cand))
        if len(senders) >= self.quorum.quorum_size and value not in state.bin_values:
            state.bin_values.append(value)
        if round == instance.round:
            self._resolve(slot, instance, state)

    def _resolve(self, slot, instance, state):
        bin_values, aux = state.bin_values, state.aux_senders
        if not bin_values:
            return
        round, quorum, first = instance.round, self.quorum.quorum_size, bin_values[0]
        if self.pid not in aux[first]:
            aux[first].add(self.pid)
            cand = self.commands.get(slot) if first == 1 else None
            self.send(self._peers, ConsAux(slot=slot, round=round, value=first, cand=cand))
        vals = [value for value in bin_values if aux[value]]
        if sum(len(aux[value]) for value in vals) < quorum:
            return
        if round >= len(COIN_PREFIX):
            shares = state.coin_senders
            if self.pid not in shares:
                shares.add(self.pid)
                share = ConsCoin(slot=slot, round=round, value=common_coin(slot, round))
                self.send(self._peers, share)
            if len(shares) < quorum:
                return
        coin = common_coin(slot, round)
        if len(vals) == 1:
            instance.est = vals[0]
            if vals[0] == coin:
                self._decide(slot, coin)
                return
        else:
            instance.est = coin
        self._enter_round(slot, instance, round + 1)

    def _joined(self, slot, est):
        if slot not in self.instances:
            self._start_instance(slot, est)
        return self.instances[slot]

    def _on_est(self, src, message, slot):
        instance = self._joined(slot, message.value)
        instance.at(message.round).est_senders[message.value].add(src)
        self._bv_step(slot, instance, message.round, message.value)

    def _on_aux(self, src, message, slot):
        instance = self._joined(slot, message.value)
        state = instance.at(message.round)
        state.aux_senders[message.value].add(src)
        if message.round == instance.round:
            self._resolve(slot, instance, state)

    _HANDLERS = {**ConsensusObjectProcess._HANDLERS, ConsEst: _on_est, ConsAux: _on_aux}


class _Wire:
    """A transport that delivers nothing by itself: sends pile up in ``sent``."""

    def __init__(self):
        self._processes = {}
        self.sent = []  # (src, dst, message), in send order

    def register(self, process):
        self._processes[process.pid] = process

    @property
    def process_ids(self):
        return sorted(self._processes)

    def send(self, src, dst, message):
        for pid in (dst,) if isinstance(dst, int) else dst:
            self.sent.append((src, pid, message))

    def take(self, slot=None):
        """Everything sent since the last call (for one slot, if given), and forget it."""
        sent, self.sent = self.sent, []
        return [entry for entry in sent if slot is None or entry[2].slot == slot]


def _cluster(replica=ConsensusObjectProcess, n=3):
    """``n`` replicas of class ``replica`` on a scripted wire (the test delivers)."""
    wire, clock = _Wire(), SimpleNamespace(now=0.0)
    processes = [
        replica(pid, clock, wire, writer_pid=0, t=(n - 1) // 2, initial_value=None)
        for pid in range(n)
    ]
    for process in processes:
        process.finish_setup()
    return wire, processes


def _subsumes(strong, weak):
    """Is ``weak``, delivered right behind ``strong`` on the same link, a no-op?"""
    if strong.slot != weak.slot:
        return False
    if isinstance(strong, ConsDecide):
        return not isinstance(weak, ConsDecide)
    return (
        isinstance(strong, ConsAux)
        and isinstance(weak, ConsEst)
        and (strong.round, strong.value) == (weak.round, weak.value)
    )


def _view(process):
    """Everything a replica knows and can still read.

    Not the empty tallies (they are made on first look), and not the command
    of a slot decided 0: nothing reads it again (its proposer moved it to a
    later slot), and a message that trails the ``DECIDE`` may still record it.
    """
    instances = {}
    for slot, instance in process.instances.items():
        rounds = {}
        for number, state in instance.rounds.items():
            tallies = (
                [sorted(pids) for pids in state.est_senders],
                list(state.bin_values),
                [sorted(pids) for pids in state.aux_senders],
                sorted(state.coin_senders),
            )
            if any(any(part) for part in tallies):
                rounds[number] = tallies
        instances[slot] = (instance.est, instance.round, rounds)
    return {
        "crashed": process.crashed,
        "decided": dict(process.decided),
        "frontier": process.frontier,
        "state": process.state,
        "commands": {
            slot: cand for slot, cand in process.commands.items() if process.decided.get(slot) != 0
        },
        "next_own": process._next_own,
        "inflight_slot": process._inflight_slot,
        "pending": process._pending is not None,
        "rounds_entered": process.rounds_entered,
        "instances": instances,
    }


class _Shadow:
    """Oracle replicas in lock-step with the real replicas of one key's register."""

    def __init__(self, store, key="k"):
        self.real = list(store.register_for(key).processes)
        self.wire, self.oracle = _cluster(_Unsubsumed, len(self.real))
        #: In flight per link ``(src, dst)``: the real network's, the oracle's.
        self.real_flight, self.flight = defaultdict(list), defaultdict(list)
        #: Delivered to the oracle behind the message that subsumes them while
        #: the real network still carries them: their real delivery is a no-op.
        self.early = defaultdict(list)
        self.depth = 0  # > 0 while a real step runs
        self.sent = []  # the running real step's sends: (dst, message)
        self.script = []  # its completions and the commands they issued, in order
        self.decided_in = {}  # slot -> round, for decisions the running step took itself
        self.steps = 0
        self.withheld = Counter()  # (what stood for it, what was not sent) -> messages
        self.early_noops = 0
        self.rounds = Counter()  # round -> EST / AUX / share messages sent in it
        store.network.add_send_hook(self._on_send)
        for process in self.real:
            process.on_message = partial(self._on_message, process, process.on_message)
            process._submit_command = partial(self._on_submit, process, process._submit_command)
            process._decide = partial(self._on_decide, process, process._decide)
            process.crash = partial(self._on_crash, process, process.crash)

    # ---------------------------------------------------------- the real side

    def _on_send(self, src, dst, message):
        self.real_flight[src, dst].append(message)
        self.sent.append((dst, message))
        self.rounds[getattr(message, "round", None)] += 1

    def _on_decide(self, process, decide, slot, value):
        instance = process.instances.get(slot)
        if instance is not None:  # not a relay, not a yield: this round's outcome
            self.decided_in[slot] = instance.round
        decide(slot, value)

    def _on_crash(self, process, crash):
        crash()
        if not self.depth:  # a scheduled crash, between steps (else the step's end sees it)
            self.oracle[process.pid].crash()

    def _on_message(self, process, handler, src, message):
        self._step(process, partial(handler, src, message), ("deliver", src, message))

    def _on_submit(self, process, submit, record, done):
        def logged_done(result=None):
            self.script.append(("done", result))
            done(result)

        if self.depth:
            # The driver issues a replica's next queued command from inside
            # the completion of its previous one: same replica, same step.
            assert process is self.stepping
            self.script.append(("submit", record))
            submit(record, logged_done)
        else:
            self._step(process, partial(submit, record, logged_done), ("submit", record))

    def _step(self, process, run, cause):
        assert not self.depth, "steps do not nest"
        self.stepping, self.sent, self.script, self.decided_in = process, [], [], {}
        self.depth += 1
        try:
            run()
        finally:
            self.depth -= 1
        self.steps += 1
        _assert_nothing_subsumed_was_sent(process.pid, self.sent, self.decided_in)
        self._replay(process.pid, cause, self.sent, process.crashed)
        got, expected = _view(process), _view(self.oracle[process.pid])
        for aspect in expected:
            assert got[aspect] == expected[aspect], (
                f"p{process.pid} {aspect} differs from the oracle's after step "
                f"{self.steps} {cause}: {got[aspect]} != {expected[aspect]}"
            )

    # -------------------------------------------------------- the oracle side

    def _replay(self, pid, cause, sent, crashed):
        oracle = self.oracle[pid]
        self.wire.take()
        if cause[0] == "submit":
            self._oracle_submit(oracle, cause[1])
        else:
            _, src, message = cause
            link, real_link, early = (
                self.flight[src, pid], self.real_flight[src, pid], self.early[src, pid]
            )
            real_link.remove(message)
            if message in early:
                early.remove(message)  # the oracle has had it, behind its subsumer
                assert not sent, f"p{pid} answered the early-counted {message} with {sent}"
                self.early_noops += 1
            else:
                assert message in link, f"the oracle never sent {message} from p{src} to p{pid}"
                link.remove(message)
                oracle.deliver(src, message)
                for weaker in [other for other in link if _subsumes(message, other)]:
                    # The legal schedule: right behind the message that subsumes it.
                    link.remove(weaker)
                    oracle.deliver(src, weaker)
                    if weaker in real_link:
                        early.append(weaker)
        assert not self.script, f"p{pid} completed or issued what the oracle did not: {self.script}"
        made = [(dst, message) for _, dst, message in self.wire.take()]
        for entry in sent:
            assert entry in made, f"p{pid} sent {entry}, which the oracle does not send"
        for dst, message in made:
            stronger = [m for d, m in sent if d == dst and _subsumes(m, message)]
            if (dst, message) in sent:
                pass
            elif stronger:
                self.withheld[stronger[0].type_name, message.type_name] += 1
            elif crashed:
                continue  # the broadcast was cut short before dst: so is the oracle's
            else:
                raise AssertionError(
                    f"p{pid} withheld {message} from p{dst} and sent nothing that stands for it"
                )
            self.flight[pid, dst].append(message)
        if crashed:
            oracle.crash()

    def _oracle_submit(self, oracle, record):
        oracle._submit_command(record, partial(self._oracle_done, oracle))

    def _oracle_done(self, oracle, result=None):
        assert self.script and self.script.pop(0) == ("done", result), (
            f"oracle p{oracle.pid} completed a command with {result!r}; the replica did not"
        )
        while self.script and self.script[0][0] == "submit":
            self._oracle_submit(oracle, self.script.pop(0)[1])


def _assert_nothing_subsumed_was_sent(pid, sent, decided_in):
    """The rule on the wire: what one step sent one peer for one slot."""
    for dst, message in sent:
        others = [other for peer, other in sent if peer == dst and other.slot == message.slot]
        if isinstance(message, ConsAux):
            echo = [
                other for other in others
                if isinstance(other, ConsEst)
                and (other.round, other.value) == (message.round, message.value)
            ]
            assert not echo, f"p{pid} sent p{dst} {echo[0]} and {message} in one step"
            if decided_in.get(message.slot) == message.round:
                decide = [other for other in others if isinstance(other, ConsDecide)]
                assert not decide, f"p{pid} sent p{dst} {message} and {decide[0]} in one step"


# ------------------------------------------------------------------ the runs


def _run(
    n,
    delay_model,
    submissions,
    *,
    coalesce=True,
    dead=None,
    crash_at=None,
    kill=None,
    partition=None,
):
    """One seeded single-key run of real replicas with their oracles in lock-step.

    ``submissions`` are ``(tick, replica)`` increments on a half-unit grid;
    ``dead`` is down from the start, ``crash_at = (time, replica)`` dies
    between two steps, ``kill = (replica, message class)`` inside the
    broadcast of its first message of that class.
    """
    store = KVStore(
        StoreConfig(
            algorithm="mmr-counter",
            num_shards=1,
            replication=n,
            initial_value=None,
            delay_model=delay_model,
            coalesce=coalesce,
        )
    )
    shadow = _Shadow(store)
    if partition is not None:
        plan = FaultPlan(name="heal", link_policies=(PartitionSchedule(windows=(partition,)),))
        store.install_fault_plan(plan)
    if dead is not None:
        store.crash_server(0, dead, allow_writer=True)
    if crash_at is not None:
        store.crash_server_at(crash_at[0], 0, crash_at[1], allow_writer=True)
    if kill is not None:
        victim, message_class = shadow.real[kill[0]], kill[1]

        def hook(src, dst, message):
            if src == victim.pid and isinstance(message, message_class):
                victim.crash()

        store.network.add_send_hook(hook)
    ops = []
    for tick, pid in submissions:
        store.simulator.schedule_at(
            0.5 * tick,
            lambda pid=pid: ops.append(store.submit_op(OperationKind.INCR, "k", 1, replica=pid)),
        )
    store.simulator.run(until=0.5 * max(tick for tick, _ in submissions) + 0.25)
    store.drive()
    store.settle()
    assert consensus_invariants({"k": shadow.real}) == []
    assert store.check_linearizability(swmr_fast_path=False).ok
    if all(op.completed for op in ops):  # else a dead replica's increment may have landed too
        assert sorted(op.record.result for op in ops) == list(range(1, len(ops) + 1))
    return store, shadow, ops


def _submissions(seed, n, count=14, span=16):
    """Seeded ``(tick, replica)`` pairs: bursts on every replica, so slots are contended."""
    rng = random.Random(seed)
    return [(rng.randrange(span), rng.randrange(n)) for _ in range(count)]


DELAYS = {
    "uniform": lambda seed: UniformDelay(0.2, 1.6, seed=seed),
    "reordering": lambda seed: ExponentialDelay(base=0.05, mean=1.5, cap=12.0, seed=seed),
    "fixed-coalesced": lambda seed: FixedDelay(1.0),
}


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("delays", sorted(DELAYS))
def test_every_run_is_a_run_of_the_protocol_that_sends_every_message(delays, n):
    withheld, steps, early = Counter(), 0, 0
    for seed in range(8):
        _, shadow, ops = _run(n, DELAYS[delays](seed), _submissions(seed, n))
        assert all(op.completed for op in ops)
        withheld += shadow.withheld
        steps += shadow.steps
        early += shadow.early_noops
    assert steps > 1000
    # The runs do exercise the rules: both of them where one echo completes a
    # quorum (t = 1); past that only a late decider's DECIDE stands for its
    # AUX, and only where links reorder — on which an AUX also overtakes the
    # estimate it is counted as.
    if n == 3:
        assert withheld["CONS_AUX", "CONS_EST"] > 0 and withheld["CONS_DECIDE", "CONS_AUX"] > 0
    if delays == "reordering":
        assert withheld["CONS_DECIDE", "CONS_AUX"] > 0 and early > 0


def _contended(seed, n, dead):
    """Bursts of commands on heavy-tailed links: a straggling proposal finds
    its slot being filled with a 0-instance (and with ``dead`` down from the
    start, every slot of its is a hole)."""
    return _run(
        n,
        ExponentialDelay(base=0.05, mean=2.0, cap=15.0, seed=seed),
        _submissions(seed, n, count=24, span=10),
        dead=dead,
    )


@pytest.mark.parametrize("dead", [None, 1])
@pytest.mark.parametrize("n", [3, 5])
def test_contended_slots_replay_through_the_seeded_rounds(n, dead):
    rounds, withheld = Counter(), Counter()
    for seed in range(8):
        _, shadow, _ = _contended(seed, n, dead)
        rounds += shadow.rounds
        withheld += shadow.withheld
    # Slots held both values: instances went past the two fixed coins.
    assert rounds[1] > 0 and rounds[2] > 0, rounds
    assert withheld["CONS_DECIDE", "CONS_AUX"] > 0


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("seed", range(6))
def test_a_replica_crashing_between_two_steps_replays(seed, n):
    _run(
        n,
        UniformDelay(0.2, 1.6, seed=seed),
        _submissions(seed, n),
        crash_at=(1.0 + 1.5 * seed, seed % n),
    )


@pytest.mark.parametrize("delays", sorted(DELAYS))
def test_a_proposer_killed_mid_estimate_replays(delays):
    for seed in range(4):
        store, shadow, ops = _run(
            3, DELAYS[delays](seed), [(0, 0), (1, 1), (2, 2), (4, 1), (6, 2)], kill=(0, ConsEst)
        )
        assert shadow.real[0].crashed and ops[0].failed
        assert all(op.completed for op in ops[1:])


@pytest.mark.parametrize("delays", sorted(DELAYS))
def test_an_owner_killed_mid_yield_replays(delays):
    for seed in range(4):
        store, shadow, ops = _run(
            3, DELAYS[delays](seed), [(0, 2), (3, 0), (5, 2)], kill=(1, ConsDecide)
        )
        assert shadow.real[1].crashed and all(op.completed for op in ops)


@pytest.mark.parametrize("seed", range(4))
def test_a_replica_killed_mid_vouching_aux_replays(seed):
    # The cut broadcast is an AUX that stands for an echo: the oracle stops
    # after the same destinations, having sent them the echo as well.
    _, shadow, ops = _run(
        3, UniformDelay(0.2, 1.6, seed=seed), [(0, 0), (3, 2), (6, 0)], kill=(1, ConsAux)
    )
    assert shadow.real[1].crashed and all(op.completed for op in ops)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_a_healing_partition_replays(seed, n):
    window = PartitionWindow.isolate((seed % n,), n, start=0.5 + seed, heal=6.0 + 2 * seed)
    _, _, ops = _run(
        n, UniformDelay(0.2, 1.6, seed=seed), _submissions(seed, n), partition=window
    )
    assert all(op.completed for op in ops)


# ------------------------------------------------- the steps, one at a time


def _propose(process, value=1):
    """Hand ``process`` a client command (an increment); returns what applying it gave."""
    results = []
    record = OperationRecord(op_id=0, pid=process.pid, kind=OperationKind.INCR, value=value)
    process._submit_command(record, results.append)
    return results


COMMAND = [0, "incr", 1]


def test_a_joiners_echo_rides_on_an_aux_that_carries_the_command(replica=ConsensusObjectProcess):
    """Trap 2: the sender is counted *before* the joiner's own first step —
    only then does the echo complete the quorum in its own step and get
    vouched for.  And the AUX that vouches carries what the echo carried."""
    wire, (p0, p1, p2) = _cluster(replica)
    _propose(p0)
    est = ConsEst(slot=0, round=0, value=1, cand=COMMAND)
    assert wire.take() == [(0, 1, est), (0, 2, est)]
    p1.deliver(0, est)
    aux = ConsAux(slot=0, round=0, value=1, cand=COMMAND)
    assert wire.take() == [(1, 0, aux), (1, 2, aux)]  # no EST, and the command is aboard
    assert p1.rounds_entered == 1 and p1.instances[0].at(0).est_senders[1] == {0, 1}
    # p2 hears the AUX before the proposer's EST: it is all p2 needs.
    p2.deliver(1, aux)
    assert p2.decided == {0: 1} and p2.commands[0] == COMMAND and p2.state == 1
    assert wire.take() == [(2, dst, ConsDecide(slot=0, value=1, cand=COMMAND)) for dst in (0, 1)]


def test_an_aux_is_its_senders_estimate_and_the_decide_stands_for_ours(
    replica=ConsensusObjectProcess,
):
    """Trap 1: the AUX is tallied as its EST *and* as the AUX before the one
    pass over the round.  Two passes (the EST, then the AUX) send our own
    AUX in the first and never let the ``DECIDE`` stand for it."""
    wire, (p0, p1, p2) = _cluster(replica)
    results = _propose(p0)
    wire.take()
    p0.deliver(1, ConsAux(slot=0, round=0, value=1, cand=COMMAND))
    assert p0.decided == {0: 1} and results == [1]
    assert wire.take() == [(0, dst, ConsDecide(slot=0, value=1, cand=COMMAND)) for dst in (1, 2)]


def _hole(replica, slot=1):
    """p0 and p2 settle dead p1's ``slot``: p0 proposes 0, p2 joins, p0 hears p2's AUX."""
    wire, (p0, p1, p2) = _cluster(replica)
    p0._start_instance(slot, 0)
    est = ConsEst(slot=slot, round=0, value=0)
    assert wire.take() == [(0, 1, est), (0, 2, est)]
    p2.deliver(0, est)
    aux = ConsAux(slot=slot, round=0, value=0)
    assert wire.take(slot) == [(2, 0, aux), (2, 1, aux)]
    p0.deliver(2, aux)
    return wire, p0, p2


def test_an_aux_is_sent_when_the_step_advances(replica=ConsensusObjectProcess):
    """Round 0 of an all-zero instance cannot decide (its coin is 1): the
    step that completes it goes on to round 1, and no ``DECIDE`` stands for
    the AUX it tallied — p2 is waiting for it."""
    wire, p0, p2 = _hole(replica)
    aux, est = ConsAux(slot=1, round=0, value=0), ConsEst(slot=1, round=1, value=0)
    assert wire.take(1) == [(0, 1, aux), (0, 2, aux), (0, 1, est), (0, 2, est)]
    p2.deliver(0, aux)
    assert wire.take(1) == [(2, 0, est), (2, 1, est)] and p2.instances[1].round == 1
    # Round 1: the echo is out already, so p0's AUX vouches for nothing, and
    # p2's DECIDE (coin 0) stands for p2's.
    p0.deliver(2, est)
    aux = ConsAux(slot=1, round=1, value=0)
    assert wire.take(1) == [(0, 1, aux), (0, 2, aux)]
    p2.deliver(0, est)
    assert wire.take(1) == [(2, 0, aux), (2, 1, aux)]
    p2.deliver(0, aux)
    assert wire.take(1) == [(2, dst, ConsDecide(slot=1, value=0)) for dst in (0, 1)]
    assert p2.decided[1] == 0


def _seeded_round(replica):
    """p0 in round 2 of a slot whose round-2 coin is 0, estimate 0, echo sent."""
    slot = next(s for s in range(1, 200, 3) if common_coin(s, 2) == 0)  # p1's slots
    wire, (p0, p1, p2) = _cluster(replica)
    deliveries = [
        (2, ConsEst(slot=slot, round=0, value=0)),  # join: the echo completes, AUX(0, 0)
        (2, ConsAux(slot=slot, round=0, value=0)),  # vals {0}, coin 1: on to round 1
        (1, ConsEst(slot=slot, round=1, value=1)),  # the echo completes: AUX(1, 1)
        (2, ConsEst(slot=slot, round=1, value=0)),  # bin_values [1, 0]
        (2, ConsAux(slot=slot, round=1, value=0)),  # vals {0, 1}: adopt coin 0, round 2
    ]
    for src, message in deliveries:
        p0.deliver(src, message)
    assert p0.instances[slot].round == 2 and p0.instances[slot].est == 0
    est = ConsEst(slot=slot, round=2, value=0)
    assert wire.take(slot)[-2:] == [(0, 1, est), (0, 2, est)]
    return wire, slot, p0


def test_a_seeded_round_sends_its_aux_before_its_share(replica=ConsensusObjectProcess):
    """The AUX quorum is there in the step that tallies our AUX, the coin
    shares are not: nothing is decided yet, so both go out — AUX first."""
    wire, slot, p0 = _seeded_round(replica)
    p0.deliver(2, ConsAux(slot=slot, round=2, value=0))  # p2's AUX overtook its EST
    aux, share = ConsAux(slot=slot, round=2, value=0), ConsCoin(slot=slot, round=2, value=0)
    assert wire.take(slot) == [(0, 1, aux), (0, 2, aux), (0, 1, share), (0, 2, share)]
    p0.deliver(2, share)
    assert wire.take(slot) == [(0, dst, ConsDecide(slot=slot, value=0)) for dst in (1, 2)]


def test_a_seeded_rounds_decide_stands_for_the_aux_and_the_share():
    wire, slot, p0 = _seeded_round(ConsensusObjectProcess)
    p0.deliver(2, ConsCoin(slot=slot, round=2, value=0))  # buffered: no AUX quorum yet
    assert wire.take(slot) == []
    p0.deliver(2, ConsAux(slot=slot, round=2, value=0))
    assert wire.take(slot) == [(0, dst, ConsDecide(slot=slot, value=0)) for dst in (1, 2)]


def test_the_skip_aux_mutant_neither_vouches_nor_withholds_its_aux():
    """Trap 4: what ``repro explore`` must find is "decides without the AUX
    quorum" — on the wire the mutant is the protocol that sends everything."""
    wire, (p0, p1, p2) = _cluster(SkipAuxConsensusProcess)
    _propose(p0)
    est = ConsEst(slot=0, round=0, value=1, cand=COMMAND)
    assert wire.take() == [(0, 1, est), (0, 2, est)]
    p1.deliver(0, est)
    aux = ConsAux(slot=0, round=0, value=1, cand=COMMAND)
    decide = ConsDecide(slot=0, value=1, cand=COMMAND)
    assert wire.take() == [(1, dst, message) for message in (est, aux, decide) for dst in (0, 2)]


def test_the_wire_rule_is_checked_and_has_teeth():
    est, aux = ConsEst(slot=4, round=1, value=0), ConsAux(slot=4, round=1, value=0)
    decide = ConsDecide(slot=4, value=0)
    # The AUX of one round and a DECIDE taken in another; then different peers.
    _assert_nothing_subsumed_was_sent(0, [(1, aux), (2, aux), (1, decide)], {4: 2})
    _assert_nothing_subsumed_was_sent(0, [(1, est), (2, aux)], {})
    with pytest.raises(AssertionError, match="in one step"):
        _assert_nothing_subsumed_was_sent(0, [(1, est), (1, aux)], {})
    with pytest.raises(AssertionError, match="in one step"):
        _assert_nothing_subsumed_was_sent(0, [(1, aux), (1, decide)], {4: 1})


# ------------------------------------------------------------ source mutants


def _mutant(method, old, new):
    """``ConsensusObjectProcess`` with ``old`` replaced by ``new`` in ``method``'s source."""
    source = textwrap.dedent(inspect.getsource(getattr(ConsensusObjectProcess, method)))
    assert source.count(old) == 1, f"{method} no longer reads {old!r}: update the mutant"
    namespace = dict(vars(mmr))
    exec(source.replace(old, new), namespace)
    body = {method: namespace[method]}
    if method == "_on_est":
        handlers = {ConsEst: namespace[method], ConsAux: namespace[method]}
        body["_HANDLERS"] = {**ConsensusObjectProcess._HANDLERS, **handlers}
    return type(f"Mutant{method}", (ConsensusObjectProcess,), body)


MUTANTS = {
    "the vouching AUX drops cand": (
        "_resolve",
        "cand = self.commands.get(slot) if first == 1 else None",
        "cand = None",
        test_a_joiners_echo_rides_on_an_aux_that_carries_the_command,
    ),
    "the receiver does not count an AUX as its EST": (
        "_on_est",
        "state.est_senders[message.value].add(src)",
        "state.est_senders[message.value].update([src] * (message.__class__ is ConsEst))",
        test_an_aux_is_its_senders_estimate_and_the_decide_stands_for_ours,
    ),
    "the AUX is withheld when the step advances instead of decides": (
        "_resolve",
        "if not decides or self.skip_aux_quorum:",
        "if not ready or self.skip_aux_quorum:",
        test_an_aux_is_sent_when_the_step_advances,
    ),
    "the AUX is withheld in a seeded round before the shares are in": (
        "_resolve",
        "if not decides or self.skip_aux_quorum:",
        "if not (decides or round >= len(COIN_PREFIX) and vals == [common_coin(slot, round)])"
        " or self.skip_aux_quorum:",
        test_a_seeded_round_sends_its_aux_before_its_share,
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_source_mutant_fails_its_named_test(name):
    method, old, new, named_test = MUTANTS[name]
    replica = _mutant(method, old, new)
    named_test()  # green on the replica as it is
    with pytest.raises(AssertionError):
        named_test(replica=replica)
