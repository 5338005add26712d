"""Signature-free binary consensus (Mostéfaoui–Moumen–Raynal) over the quorum engine.

This is the paper's companion algorithm: randomized binary Byzantine
consensus, instantiated here for the crash-failure geometry the rest of the
repository uses (``n = 2t + 1`` replicas, up to ``t`` crashes, asynchronous
reliable channels).  Each *instance* decides one bit through a sequence of
rounds; every round is two broadcast exchanges plus a common coin:

1. **EST / BV-broadcast** — each process broadcasts ``EST(r, est)``.  A
   process that receives ``EST(r, w)`` from ``t + 1`` distinct senders
   without having broadcast ``(r, w)`` itself echoes it (*amplification*:
   a value backed by one correct process reaches everyone); a value received
   from ``n - t`` distinct senders is *delivered* into ``bin_values[r]``.
   Only proposed values can ever be delivered — this is what makes the
   algorithm safe without signatures.
2. **AUX** — upon the first delivery of round ``r`` a process broadcasts
   ``AUX(r, w)`` for one delivered ``w``, then waits for ``n - t`` AUX
   messages whose values are all in its own ``bin_values[r]``; the set of
   those values is ``vals``.
3. **Coin** — the processes obtain a common coin ``c`` for ``(slot, r)``.
   If ``vals == {v}``: adopt ``est = v`` and **decide** ``v`` when
   ``v == c``.  If ``vals == {0, 1}``: adopt ``est = c``.  Enter round
   ``r + 1`` otherwise.

The coin here is the *seeded oracle* common in reproduction harnesses: every
process derives the round's coin from the deterministic run RNG
(:func:`repro.sim.rng.make_rng`), so it is common by construction and the
whole run stays replayable from one seed.  In the default ``exchange`` mode
processes still *transact* the coin — each broadcasts its share and waits
for ``n - t`` shares — so the message pattern (and hence the fault surface
explored by ``repro chaos``/``repro explore``) matches a real
common-coin protocol; ``local`` mode skips the exchange for cheap bulk runs.

A decided process broadcasts ``DECIDE`` exactly once and drops every further
consensus message for that slot (no replies) — the per-slot message bill is
deterministic, which the cross-backend differential test relies on.

On top of the binary instances sits a small slot-based replicated state
machine (:class:`ConsensusObjectProcess`): slot ``s`` is *owned* by replica
``s mod n``; a replica with a pending client command proposes 1 for the
smallest owned free slot at-or-after its apply frontier (proposing 0 for any
empty slots in between so the log cannot stall), piggybacks the command on
its value-1 EST messages, and applies decided commands strictly in slot
order against the sequential SMR spec
(:class:`repro.verification.specs.SMRSpec`).  Decide-0 on an owned slot just
moves the proposal to the next owned slot.  This turns binary consensus into
linearizable CAS / test-and-set / counter / read-write objects whose
histories the Wing–Gong checker verifies against the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.quorum.aggregators import ReplyAggregator
from repro.quorum.engine import PhaseBroadcast, PhaseRegisterProcess, QuorumCollector
from repro.registers.base import OperationKind, OperationRecord, RegisterAlgorithm
from repro.registers.costmodels import int_bits, value_bits
from repro.sim.rng import make_rng
from repro.verification.specs import SMRSpec

__all__ = [
    "CONSENSUS_ALGORITHMS",
    "ConsAux",
    "ConsCoin",
    "ConsDecide",
    "ConsEst",
    "ConsensusObjectProcess",
    "SkipAuxConsensusProcess",
    "common_coin",
    "consensus_invariants",
]

#: Bits to name one of the four consensus message types on the wire.
CONS_TYPE_BITS = 2

#: Rounds after which an instance aborts loudly.  The seeded coin decides a
#: two-value round with probability 1/2, so 100 rounds without a decision
#: (probability ~2^-100) always indicates a logic bug, never bad luck.
ROUND_CAP = 100

#: The sequential state machine applied to decided commands — the *same*
#: object the linearizability checker replays histories against, so the
#: implementation and its specification cannot drift apart.
_SMR_SPEC = SMRSpec()


def _cand_bits(cand: Any) -> int:
    """Wire size of a piggybacked command ``[proposer, kind, value]``."""
    if cand is None:
        return 0
    proposer, kind, value = cand
    return int_bits(proposer) + 8 * len(kind) + value_bits(value)


@dataclass(frozen=True)
class ConsEst(object):
    """Round-``round`` estimate broadcast (the BV-broadcast payload).

    Value-1 estimates from processes that know slot's command piggyback it
    as ``cand`` (``[proposer_pid, kind, value]`` — a *list* so the simulator
    and the JSON-decoded live wire agree byte-for-byte), which is how the
    command payload disseminates without a separate message type.
    """

    slot: int
    round: int
    value: int
    cand: Any = None

    type_name = "CONS_EST"

    def control_bits(self) -> int:
        return CONS_TYPE_BITS + int_bits(self.slot) + int_bits(self.round) + 1

    def data_bits(self) -> int:
        return _cand_bits(self.cand)


@dataclass(frozen=True)
class ConsAux(object):
    """Round-``round`` auxiliary broadcast: one delivered ``bin_values`` entry."""

    slot: int
    round: int
    value: int

    type_name = "CONS_AUX"

    def control_bits(self) -> int:
        return CONS_TYPE_BITS + int_bits(self.slot) + int_bits(self.round) + 1

    def data_bits(self) -> int:
        return 0


@dataclass(frozen=True)
class ConsCoin(object):
    """Common-coin share for ``(slot, round)`` (exchange mode only)."""

    slot: int
    round: int
    value: int

    type_name = "CONS_COIN"

    def control_bits(self) -> int:
        return CONS_TYPE_BITS + int_bits(self.slot) + int_bits(self.round) + 1

    def data_bits(self) -> int:
        return 0


@dataclass(frozen=True)
class ConsDecide(object):
    """One-shot decision announcement; carries the command for decide-1 slots."""

    slot: int
    value: int
    cand: Any = None

    type_name = "CONS_DECIDE"

    def control_bits(self) -> int:
        return CONS_TYPE_BITS + int_bits(self.slot) + 1

    def data_bits(self) -> int:
        return _cand_bits(self.cand)


@lru_cache(maxsize=8192)
def common_coin(slot: int, round: int) -> int:
    """The seeded common coin for ``(slot, round)`` — deterministic, global.

    Derived from seed 0 with a dedicated label so it is independent of the
    workload seed, the key, the subnet and the transport backend; every
    process of every backend computes the same coin, which is exactly the
    "common coin" abstraction the MMR algorithm assumes.
    """
    return make_rng(0, "mmr-common-coin", slot, round).randrange(2)


class _AuxCollector(QuorumCollector):
    """AUX quorum: ``n - t`` replies whose values are in ``bin_values[r]``.

    The reply set and the delivered-value set both grow over time, so
    ``satisfied`` recounts on every accept *and* after every ``bin_values``
    delivery (the caller re-checks); ``vals`` is the paper's ``vals`` set.
    """

    def __init__(self, slot: str, tag: Any, tracker, bin_values: List[int]) -> None:
        super().__init__(slot=slot, tag=tag, aggregator=ReplyAggregator(), tracker=tracker)
        self._bin_values = bin_values  # live alias of the round's delivery list

    def satisfied(self) -> bool:
        good = sum(1 for value in self.aggregator.replies.values() if value in self._bin_values)
        return self.tracker.satisfied(good)

    def vals(self) -> Set[int]:
        return {value for value in self.aggregator.replies.values() if value in self._bin_values}


class _Instance:
    """Per-slot state of one running binary-consensus instance."""

    __slots__ = (
        "est",
        "round",
        "sent_est",
        "est_senders",
        "bin_values",
        "aux",
        "sent_aux",
        "coin",
        "sent_coin",
    )

    def __init__(self, est: int) -> None:
        self.est = est
        self.round = 0
        #: ``(round, value)`` pairs this process has broadcast.
        self.sent_est: Set[Tuple[int, int]] = set()
        #: ``(round, value) -> set of sender pids`` (self included at send).
        self.est_senders: Dict[Tuple[int, int], Set[int]] = {}
        #: ``round -> delivered values in delivery order`` (first entry is
        #: the value this process's AUX carries).
        self.bin_values: Dict[int, List[int]] = {}
        #: ``round -> AUX collector``.
        self.aux: Dict[int, _AuxCollector] = {}
        self.sent_aux: Set[int] = set()
        #: ``round -> coin-share collector`` (exchange mode).
        self.coin: Dict[int, QuorumCollector] = {}
        self.sent_coin: Set[int] = set()


class ConsensusObjectProcess(PhaseRegisterProcess):
    """A replica serving one linearizable SMR object via MMR consensus.

    Every replica accepts every operation kind (consensus makes the object
    multi-writer by construction); the driver serializes operations per
    process, so one pending command slot suffices.  See the module docstring
    for the slot-ownership / proposal / apply rules.
    """

    #: ``"exchange"`` transacts coin shares (default); ``"local"`` reads the
    #: seeded oracle without messages.
    coin_mode = "exchange"

    #: Fault-injection hook (``repro explore`` mutations): ``True`` removes
    #: the AUX exchange and decides straight off the first delivered
    #: ``bin_values`` entry — a real agreement bug the harness must catch.
    skip_aux_quorum = False

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Active (undecided) instances, ``slot -> _Instance``.
        self.instances: Dict[int, _Instance] = {}
        #: Decided slots, ``slot -> 0 | 1``.
        self.decided: Dict[int, int] = {}
        #: Known commands, ``slot -> [proposer, kind, value]``.
        self.commands: Dict[int, Any] = {}
        #: First slot not yet applied (or skipped as decide-0).
        self.frontier = 0
        #: Current SMR object state.
        self.state: Any = self.initial_value
        #: This replica's one in-flight client command.
        self._pending: Optional[Tuple[OperationRecord, Callable[..., None]]] = None
        #: Slot the pending command is currently proposed at, if any.
        self._inflight_slot: Optional[int] = None
        #: Total rounds entered across instances (diagnostics / benchmarks).
        self.rounds_entered = 0

    # ------------------------------------------------------------ client ops

    def _check_write_permission(self) -> None:
        """Consensus objects are multi-writer: every replica takes writes."""

    def _start_write(self, record: OperationRecord, done: Callable[..., None]) -> None:
        self._submit_command(record, done)

    def _start_read(self, record: OperationRecord, done: Callable[..., None]) -> None:
        self._submit_command(record, done)

    def _start_operation(self, record: OperationRecord, done: Callable[..., None]) -> None:
        self._submit_command(record, done)

    def _submit_command(self, record: OperationRecord, done: Callable[..., None]) -> None:
        if self._pending is not None:
            raise RuntimeError(
                f"process {self.pid} already has a command in flight "
                "(the driver serializes operations per process)"
            )
        self._pending = (record, done)
        self._propose_pending()

    def _propose_pending(self) -> None:
        """Propose the pending command at the smallest owned free slot."""
        if self._pending is None or self._inflight_slot is not None or self.crashed:
            return
        floor = self.frontier
        while floor in self.decided:
            floor += 1
        target = floor
        while target % self.n != self.pid or target in self.instances or target in self.decided:
            target += 1
        record, _ = self._pending
        self._inflight_slot = target
        self.commands.setdefault(target, [self.pid, record.kind.value, record.value])
        # Propose 0 for every empty slot below the target so the log keeps
        # advancing: a decide-0 slot is skipped by everyone's apply loop.
        for slot in range(floor, target):
            if slot not in self.instances and slot not in self.decided:
                self._start_instance(slot, 0)
        if target not in self.instances and target not in self.decided:
            self._start_instance(target, 1)

    # --------------------------------------------------------- instance core

    def _start_instance(self, slot: int, est: int) -> None:
        instance = _Instance(est)
        self.instances[slot] = instance
        self._enter_round(slot, instance, 0)

    def _enter_round(self, slot: int, instance: _Instance, round: int) -> None:
        if round >= ROUND_CAP:
            raise RuntimeError(
                f"consensus instance for slot {slot} exceeded {ROUND_CAP} rounds "
                f"at process {self.pid} — the seeded coin makes this a logic "
                "bug, not bad luck"
            )
        instance.round = round
        self.rounds_entered += 1
        self._broadcast_est(slot, instance, round, instance.est)
        if slot in self.decided:
            return
        # Buffered deliveries from faster peers may already complete the
        # round the moment we enter it.
        self._maybe_send_aux(slot, instance, round)
        if slot not in self.decided:
            self._try_resolve(slot, instance, round)

    def _broadcast_est(self, slot: int, instance: _Instance, round: int, value: int) -> None:
        if (round, value) in instance.sent_est:
            return
        instance.sent_est.add((round, value))
        senders = instance.est_senders.setdefault((round, value), set())
        senders.add(self.pid)
        cand = self.commands.get(slot) if value == 1 else None
        PhaseBroadcast(message=ConsEst(slot=slot, round=round, value=value, cand=cand)).send_from(
            self
        )
        self._note_est(slot, instance, round, value)

    def _note_est(self, slot: int, instance: _Instance, round: int, value: int) -> None:
        """Re-check the BV-broadcast thresholds for ``(round, value)``.

        The Byzantine original echoes at ``t + 1`` distinct senders — enough
        to prove one *correct* process broadcast the value, which needs
        ``n >= 3t + 1`` to terminate.  In the crash geometry (``n = 2t + 1``)
        every sender is honest, so the echo fires on first sighting: without
        this, two surviving processes proposing opposite bits deadlock in
        round 0 (one sender per value never reaches ``t + 1``).  Delivery
        keeps the ``n - t`` quorum threshold, so ``bin_values`` still only
        holds values the whole quorum has seen and re-broadcast.
        """
        senders = instance.est_senders.get((round, value), ())
        if senders and (round, value) not in instance.sent_est:
            self._broadcast_est(slot, instance, round, value)  # echo
            if slot in self.decided:
                return
        delivered = instance.bin_values.setdefault(round, [])
        if len(senders) >= self.quorum.quorum_size and value not in delivered:
            delivered.append(value)
            self._maybe_send_aux(slot, instance, round)
            if slot in self.decided:
                return
            # A new delivery can validate buffered AUX replies of this round.
            self._try_resolve(slot, instance, round)

    def _aux_collector(self, slot: int, instance: _Instance, round: int) -> _AuxCollector:
        collector = instance.aux.get(round)
        if collector is None:
            collector = _AuxCollector(
                slot="cons-aux",
                tag=(slot, round),
                tracker=self.quorum,
                bin_values=instance.bin_values.setdefault(round, []),
            )
            instance.aux[round] = collector
        return collector

    def _coin_collector(self, instance: _Instance, round: int) -> QuorumCollector:
        collector = instance.coin.get(round)
        if collector is None:
            collector = QuorumCollector(
                slot="cons-coin",
                tag=round,
                aggregator=ReplyAggregator(),
                tracker=self.quorum,
            )
            instance.coin[round] = collector
        return collector

    def _maybe_send_aux(self, slot: int, instance: _Instance, round: int) -> None:
        if round != instance.round or round in instance.sent_aux:
            return
        delivered = instance.bin_values.get(round)
        if not delivered:
            return
        instance.sent_aux.add(round)
        value = delivered[0]
        collector = self._aux_collector(slot, instance, round)
        PhaseBroadcast(message=ConsAux(slot=slot, round=round, value=value)).send_from(self)
        collector.accept(self.pid, value)

    def _try_resolve(self, slot: int, instance: _Instance, round: int) -> None:
        """Decide / adopt / advance once the round's quorums are complete."""
        if slot in self.decided or round != instance.round:
            return
        if self.skip_aux_quorum:
            # MUTATION (repro explore, ``mmr-skip-aux``): decide from the
            # first delivered value without the n-t AUX exchange.  Different
            # processes can deliver 0 and 1 in opposite orders, so this
            # decides divergent values under contention — the harness's job
            # is to find the schedule that proves it.
            delivered = instance.bin_values.get(round)
            if not delivered:
                return
            vals = {delivered[0]}
        else:
            if round not in instance.sent_aux:
                return
            aux = instance.aux.get(round)
            if aux is None or not aux.satisfied():
                return
            if self.coin_mode == "exchange":
                if round not in instance.sent_coin:
                    instance.sent_coin.add(round)
                    share = common_coin(slot, round)
                    collector = self._coin_collector(instance, round)
                    PhaseBroadcast(message=ConsCoin(slot=slot, round=round, value=share)).send_from(
                        self
                    )
                    collector.accept(self.pid, share)
                if not self._coin_collector(instance, round).satisfied():
                    return
            vals = aux.vals()
        coin = common_coin(slot, round)
        if len(vals) == 1:
            value = next(iter(vals))
            instance.est = value
            if value == coin:
                self._decide(slot, value)
                return
        else:
            instance.est = coin
        self._enter_round(slot, instance, round + 1)

    def _decide(self, slot: int, value: int) -> None:
        if slot in self.decided:
            return
        self.decided[slot] = value
        self.instances.pop(slot, None)
        cand = self.commands.get(slot) if value == 1 else None
        PhaseBroadcast(message=ConsDecide(slot=slot, value=value, cand=cand)).send_from(self)
        self._apply_ready()

    # ------------------------------------------------------------- the log

    def _apply_ready(self) -> None:
        """Apply decided slots in order; complete our command when it lands."""
        while True:
            slot = self.frontier
            if slot not in self.decided:
                break
            if self.decided[slot] == 1:
                cand = self.commands.get(slot)
                if cand is None:
                    # The command payload has not reached us yet (its
                    # proposer crashed mid-broadcast).  Applying out of
                    # order would fork the state machine, so stall here —
                    # a liveness gap under faults, never a safety one.
                    break
                proposer, kind, value = cand[0], cand[1], cand[2]
                result, self.state = _SMR_SPEC.apply(self.state, OperationKind(kind), value)
                self.frontier = slot + 1
                if proposer == self.pid and self._inflight_slot == slot:
                    self._inflight_slot = None
                    record, done = self._pending
                    self._pending = None
                    done(result)
            else:
                self.frontier = slot + 1
                if self._inflight_slot == slot:
                    # Our proposal lost to a skip decision; move it to the
                    # next owned slot.
                    self._inflight_slot = None
        self._propose_pending()

    # ------------------------------------------------------------- messages

    def on_message(self, src: int, message: Any) -> None:
        if isinstance(message, ConsEst):
            self._on_est(src, message)
        elif isinstance(message, ConsAux):
            self._on_aux(src, message)
        elif isinstance(message, ConsCoin):
            self._on_coin(src, message)
        elif isinstance(message, ConsDecide):
            self._on_decide(src, message)
        else:
            raise TypeError(f"unexpected message {message!r}")

    def _learn_command(self, slot: int, cand: Any) -> None:
        if cand is not None and slot not in self.commands:
            self.commands[slot] = list(cand)
            if slot in self.decided:
                self._apply_ready()  # a late command can unblock the frontier

    def _join(self, slot: int, est: int) -> _Instance:
        """Join an instance we have not proposed in by copying ``est``."""
        instance = _Instance(est)
        self.instances[slot] = instance
        return instance

    def _on_est(self, src: int, message: ConsEst) -> None:
        slot = message.slot
        self._learn_command(slot, message.cand)
        if slot in self.decided:
            return  # silently dropped; our DECIDE already reached src's link
        instance = self.instances.get(slot)
        joined = instance is None
        if joined:
            instance = self._join(slot, message.value)
        instance.est_senders.setdefault((message.round, message.value), set()).add(src)
        if joined:
            # Entering round 0 broadcasts our (copied) EST, which re-checks
            # the thresholds for the triggering message as a side effect.
            self._enter_round(slot, instance, 0)
            if slot in self.decided or (message.round, message.value) == (0, instance.est):
                return
        self._note_est(slot, instance, message.round, message.value)

    def _on_aux(self, src: int, message: ConsAux) -> None:
        slot = message.slot
        if slot in self.decided:
            return
        instance = self.instances.get(slot)
        if instance is None:
            # Unreachable on FIFO links (src's ESTs precede its AUX), kept
            # for robustness under message loss: join on the AUX value.
            instance = self._join(slot, message.value)
            self._enter_round(slot, instance, 0)
            if slot in self.decided:
                return
        self._aux_collector(slot, instance, message.round).accept(src, message.value)
        self._try_resolve(slot, instance, message.round)

    def _on_coin(self, src: int, message: ConsCoin) -> None:
        slot = message.slot
        if slot in self.decided:
            return
        instance = self.instances.get(slot)
        if instance is None:
            return  # never started the instance; the coin share is moot
        self._coin_collector(instance, message.round).accept(src, message.value)
        self._try_resolve(slot, instance, message.round)

    def _on_decide(self, src: int, message: ConsDecide) -> None:
        slot = message.slot
        self._learn_command(slot, message.cand)
        if slot in self.decided:
            return
        self.decided[slot] = message.value
        self.instances.pop(slot, None)
        # Relay our own DECIDE so slower peers cut over too, then apply.
        cand = self.commands.get(slot) if message.value == 1 else None
        PhaseBroadcast(message=ConsDecide(slot=slot, value=message.value, cand=cand)).send_from(
            self
        )
        self._apply_ready()

    # ----------------------------------------------------------- accounting

    def local_memory_words(self) -> int:
        words = 2 * len(self.decided) + 4 * len(self.commands) + 2
        for instance in self.instances.values():
            words += 3
            words += sum(2 + len(s) for s in instance.est_senders.values())
            words += sum(1 + len(v) for v in instance.bin_values.values())
            words += sum(1 + len(c.aggregator.replies) for c in instance.aux.values())
            words += sum(1 + len(c.aggregator.replies) for c in instance.coin.values())
        return words


class SkipAuxConsensusProcess(ConsensusObjectProcess):
    """The ``mmr-skip-aux`` mutant: decides without the AUX quorum."""

    skip_aux_quorum = True


class LocalCoinConsensusProcess(ConsensusObjectProcess):
    """Coin read locally from the seeded oracle (no share exchange)."""

    coin_mode = "local"


def _consensus_algorithm(name: str, description: str, factory: Any) -> RegisterAlgorithm:
    return RegisterAlgorithm(
        name=name,
        description=description,
        process_factory=factory,
        supports_multi_writer=True,
        bounded_control_bits=False,
        spec="smr",
    )


MMR_CAS_ALGORITHM = _consensus_algorithm(
    "mmr-cas",
    "compare-and-swap object over MMR binary consensus (slot-based SMR)",
    ConsensusObjectProcess,
)

#: TAS and counter objects run the *same* replica code — the SMR spec gives
#: each operation kind its meaning — but registering them separately keeps
#: scenario names, reports and benchmarks self-describing.
MMR_TAS_ALGORITHM = _consensus_algorithm(
    "mmr-tas",
    "test-and-set object over MMR binary consensus (slot-based SMR)",
    ConsensusObjectProcess,
)

MMR_COUNTER_ALGORITHM = _consensus_algorithm(
    "mmr-counter",
    "replicated counter over MMR binary consensus (slot-based SMR)",
    ConsensusObjectProcess,
)

MMR_LOCAL_COIN_ALGORITHM = _consensus_algorithm(
    "mmr-cas-localcoin",
    "mmr-cas with the coin read locally from the seeded oracle (no exchange)",
    LocalCoinConsensusProcess,
)

CONSENSUS_ALGORITHMS = (
    MMR_CAS_ALGORITHM,
    MMR_TAS_ALGORITHM,
    MMR_COUNTER_ALGORITHM,
    MMR_LOCAL_COIN_ALGORITHM,
)


# ---------------------------------------------------------------- invariants


def consensus_invariants(processes_by_key: Dict[Any, List[ConsensusObjectProcess]]) -> List[str]:
    """Agreement / validity violations across deployed consensus replicas.

    ``processes_by_key`` maps each deployed key to its replica processes
    (crashed ones included — a decision taken before crashing still binds).
    Returns human-readable violation strings, empty when the run is clean:

    * **agreement** — two replicas decided different values for one slot;
    * **validity** — a slot decided 1 with no command known anywhere (1 can
      only enter an execution through a command-bearing proposal).
    """
    violations: List[str] = []
    for key, processes in processes_by_key.items():
        decisions: Dict[int, Dict[int, int]] = {}
        commands: Set[int] = set()
        for process in processes:
            commands.update(process.commands)
            for slot, value in process.decided.items():
                decisions.setdefault(slot, {})[process.pid] = value
        for slot in sorted(decisions):
            by_pid = decisions[slot]
            if len(set(by_pid.values())) > 1:
                violations.append(
                    f"agreement violation at key {key!r} slot {slot}: "
                    + ", ".join(f"p{pid}->{val}" for pid, val in sorted(by_pid.items()))
                )
            if 1 in by_pid.values() and slot not in commands:
                violations.append(
                    f"validity violation at key {key!r} slot {slot}: decided 1 "
                    "but no replica knows a command for the slot"
                )
    return violations


def replica_invariants(store: Any) -> Optional[List[str]]:
    """:func:`consensus_invariants` over the replica processes ``store`` exposes.

    Returns ``None`` — not an empty list — when there is nothing to audit:
    no store at all (live runs keep their replicas in other OS processes),
    a merged shard-parallel view (no process objects), or a store that
    deployed no consensus-backed key.  Callers then report "n/a" instead of
    claiming a vacuous pass.
    """
    if not hasattr(store, "register_for"):
        return None
    by_key = {}
    for key in store.deployed_keys:
        processes = [
            process
            for process in store.register_for(key).processes
            if isinstance(process, ConsensusObjectProcess)
        ]
        if processes:
            by_key[key] = processes
    return consensus_invariants(by_key) if by_key else None
