"""Who holds a slot's command, as a test.

A value-1 ``EST``, ``AUX`` or ``DECIDE`` carries the slot's command only
while some destination may lack it.  A destination holds it if it owns the
slot (only the owner's proposal brings 1 into a slot, with the command), if
it sent the sender value 1 in that round (a replica sends value 1 only once
it holds the command), or if it is the replica whose ``DECIDE`` is being
relayed.  The claim is that a bare value-1 message never reaches a replica
that lacks the command, so no decision waits on a command it would
otherwise have had.

Seeded single-key runs at n = 3 and n = 5, under uniform, reordering
(heavy-tailed exponential) and fixed delays, each healthy, with a proposer
killed inside its first estimate broadcast, and under a healing partition.
Every delivery is audited; at quiescence no live replica waits on an
unknown command and agreement and validity hold.  A source mutant that
counts every non-owner as holding the command must fail the audit.
"""

from __future__ import annotations

import inspect
import random
import textwrap
from functools import partial
from types import MethodType

import pytest

from repro.consensus import mmr
from repro.consensus.mmr import ConsCoin, ConsensusObjectProcess, consensus_invariants
from repro.faults import CrashPoint, FaultPlan, PartitionSchedule, PartitionWindow
from repro.registers.base import OperationKind
from repro.sim.delays import ExponentialDelay, FixedDelay, UniformDelay
from repro.store.store import KVStore, StoreConfig

DELAYS = {
    "uniform": lambda seed: UniformDelay(0.2, 1.6, seed=seed),
    "reordering": lambda seed: ExponentialDelay(base=0.05, mean=1.5, cap=12.0, seed=seed),
    "fixed": lambda seed: FixedDelay(1.0),
}
FAULTS = ("none", "proposer killed mid-estimate", "healing partition")
SEEDS = range(4)


def _is_bare_one(message):
    """A value-1 consensus message that could carry the command and does not."""
    return message.__class__ is not ConsCoin and message.value == 1 and message.cand is None


class _Audit:
    """What the wire did with bare value-1 messages on one store."""

    def __init__(self, store, processes):
        self.bare_sent = 0
        self.delivered = 0
        self.stranded = []  # (src, dst, message): bare, to a replica without the command
        store.network.add_send_hook(self._on_send)
        for process in processes:
            process.on_message = partial(self._on_message, process, process.on_message)

    def _on_send(self, _src, _dst, message):
        self.bare_sent += _is_bare_one(message)

    def _on_message(self, process, handler, src, message):
        if _is_bare_one(message):
            self.delivered += 1
            if message.slot not in process.commands:
                self.stranded.append((src, process.pid, message))
        handler(src, message)


def _run(n, delays, fault, seed, mutate=None):
    """One seeded ``mmr-counter`` run of one key, audited and judged at quiescence."""
    store = KVStore(
        StoreConfig(
            algorithm="mmr-counter",
            num_shards=1,
            replication=n,
            initial_value=None,
            delay_model=DELAYS[delays](seed),
        )
    )
    processes = list(store.register_for("k").processes)
    if mutate is not None:
        for process in processes:
            mutate(process)
    audit = _Audit(store, processes)
    rng = random.Random(seed)
    proposer = seed % n
    # The first command is the proposer's, alone at time 0: its first send
    # is its estimate, and a kill after (n - 1) // 2 sends cuts it short.
    submissions = [(0, proposer)] + [(1 + rng.randrange(14), rng.randrange(n)) for _ in range(12)]
    if fault == "proposer killed mid-estimate":
        point = CrashPoint(
            shard=0, replica=proposer, allow_writer=True, after_messages_sent=(n - 1) // 2
        )
        store.install_crash_points([point])
    elif fault == "healing partition":
        window = PartitionWindow.isolate(
            ((seed + 1) % n,), n, start=0.5 + seed, heal=6.0 + 2 * seed
        )
        store.install_fault_plan(
            FaultPlan(name="heal", link_policies=(PartitionSchedule(windows=(window,)),))
        )
    ops = []
    for tick, pid in submissions:
        store.simulator.schedule_at(
            0.5 * tick,
            lambda pid=pid: ops.append(store.submit_op(OperationKind.INCR, "k", 1, replica=pid)),
        )
    store.simulator.run(until=0.5 * max(tick for tick, _ in submissions) + 0.25)
    store.drive()
    store.settle()
    if fault == "proposer killed mid-estimate":
        assert processes[proposer].crashed
    assert not audit.stranded, (
        f"seed {seed}: bare value-1 messages reached replicas without the "
        f"command: {audit.stranded[:3]}"
    )
    unknown = [
        wait
        for process in processes
        if not process.crashed
        for wait in process.waiting_on()
        if "command unknown" in wait
    ]
    assert not unknown, f"left waiting at quiescence: {unknown}"
    assert consensus_invariants({"k": processes}) == []
    return audit


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("delays", sorted(DELAYS))
@pytest.mark.parametrize("n", [3, 5])
def test_a_bare_command_reaches_only_replicas_that_hold_it(n, delays, fault, mutate=None):
    bare_sent = delivered = 0
    for seed in SEEDS:
        audit = _run(n, delays, fault, seed, mutate)
        bare_sent += audit.bare_sent
        delivered += audit.delivered
    # The rule does cut: some value-1 message went without the command.
    assert bare_sent > 0 and delivered > 0


def _counts_every_non_owner_as_holding(process):
    """The mutant: a message carries the command only for an owner that may lack it."""
    source = textwrap.dedent(inspect.getsource(ConsensusObjectProcess._command_for))
    old = "if peer != owner and peer != relay and peer not in holders:"
    assert source.count(old) == 1, f"_command_for no longer reads {old!r}: update the mutant"
    namespace = dict(vars(mmr))
    exec(source.replace(old, old.replace("peer != owner", "peer == owner")), namespace)
    process._command_for = MethodType(namespace["_command_for"], process)


@pytest.mark.parametrize("n", [3, 5])
def test_the_mutant_that_drops_the_command_to_every_non_owner_fails(n):
    with pytest.raises(AssertionError, match="without the command"):
        test_a_bare_command_reaches_only_replicas_that_hold_it(
            n, "uniform", "none", mutate=_counts_every_non_owner_as_holding
        )
