"""Signature-free binary consensus (Mostéfaoui–Moumen–Raynal) and its slot log.

This is the paper's companion algorithm: randomized binary Byzantine
consensus, instantiated here for the crash-failure geometry the rest of the
repository uses (``n = 2t + 1`` replicas, up to ``t`` crashes, asynchronous
reliable channels).  Each *instance* decides one bit through a sequence of
rounds; every round is two broadcast exchanges plus a common coin:

1. **EST / BV-broadcast** — each process broadcasts ``EST(r, est)``, echoes
   a value it has not broadcast on first sighting (see
   :meth:`ConsensusObjectProcess._bv_step` for why not ``t + 1``), and
   *delivers* a value received from ``n - t`` distinct senders into
   ``bin_values[r]``.  Only proposed values can ever be delivered — this is
   what makes the algorithm safe without signatures.
2. **AUX** — upon the first delivery of round ``r`` a process broadcasts
   ``AUX(r, w)`` for one delivered ``w``, then waits for ``n - t`` AUX
   messages whose values are all in its own ``bin_values[r]``; the set of
   those values is ``vals``.
3. **Coin** — with ``c`` the common coin of ``(slot, r)``: if
   ``vals == {v}`` adopt ``est = v`` and **decide** ``v`` when ``v == c``;
   if ``vals == {0, 1}`` adopt ``est = c``.  Enter round ``r + 1`` otherwise.

**The coin.**  Agreement never uses the coin's distribution: once a process
decides ``v`` in round ``r`` every process leaves ``r`` with ``est = v``,
whatever ``c`` was.  Only termination needs fair coins, and only eventually
(Aspnes' *Notes*, PAPERS.md).  So the first coins are the constants
:data:`COIN_PREFIX` — ``1`` in round 0 (an unopposed command decides in one
round), ``0`` in round 1 (an all-zero instance decides in two) — and cost
no message; from round 2 on the coin is the *seeded oracle* of
reproduction harnesses (derived from :func:`repro.sim.rng.make_rng`, common
by construction, replayable) and decides a split round with probability
1/2.  Processes *transact* a seeded coin (broadcast a share, wait for
``n - t``) so the fault surface matches a real common-coin protocol.

A decided process broadcasts ``DECIDE`` exactly once and drops every further
consensus message for that slot (no replies).

**Subsumption.**  A replica does not send a message when, in the same step
and to the same peers, it goes on to send one that makes it a no-op.  An
``AUX(r, v)`` also counts as its sender's ``EST(r, v)`` (``v`` entered the
sender's ``bin_values`` after it broadcast that EST: a sent message, delivered
early), so an echo followed by the AUX in its own step is not sent — the AUX
*vouches* for it — nor is an AUX followed by its round's ``DECIDE`` (a decided
peer drops it).  On non-FIFO links the withheld message right behind the one
that subsumes it is a legal schedule of the protocol that sends both, and a
no-op there: every run is one of that protocol's.  The saving needs an echo
to complete ``n - t`` by itself: ``t = 1``.

**The slot log** (:class:`ConsensusObjectProcess`).  Slot ``s`` is *owned*
by replica ``s mod n``, and 1 can enter slot ``s`` only through a
command-bearing proposal of its owner (everyone else proposes 0 or copies
an estimate it received).  Three rules follow:

* a replica with a pending client command proposes 1, command piggybacked
  on its value-1 ESTs (see **Who holds the command**), at its smallest
  unused owned slot — and starts no other instance;
* an owner that sees any consensus message for a slot at or above an owned
  slot it never proposed in **decides that slot 0 by itself** (one relayed
  ``DECIDE``): no instance for the slot can hold a 1, so 0 is the only
  decidable value (validity) and every instance agrees with it;
* a replica that is handed a ``DECIDE`` for a slot it has already decided
  while a lower slot is still an undecided hole — a decided slot waits
  behind it and its owner, crashed or slow, has not yielded — proposes 0
  for the hole; a quorum is alive, so the instance decides (0, in round 1)
  without the owner and needs no timer.

**Who holds the command.**  A value-1 ``EST``, ``AUX`` or ``DECIDE``
carries the slot's command (``cand``) only while some destination may lack
it (:meth:`ConsensusObjectProcess._command_for`).  A destination holds it if
it owns the slot, if it is in the round's ``est_senders[1]`` (which tallies
value-1 AUX senders too), or if it sent the ``DECIDE`` being relayed; when
every destination holds it the message goes bare, in the same one send.
Why a bare message never strands a replica: only the owner's proposal
brings 1 into a slot, and the owner stores the command as it proposes; a
replica sends value 1 only after it proposed or received a value-1
message; a value-1 message goes bare only to replicas covered by those
two.  By induction every value-1 sender holds the command, so a bare
message reaches only replicas that hold it, and schedules, histories,
message counts and control bits are those of the protocol that always
carries it: only data bits fall.

Decided commands are applied strictly in slot order against the sequential
SMR spec (:class:`repro.verification.specs.SMRSpec`); decide-0 on a proposed
slot moves the command to the proposer's next owned slot.  This turns binary
consensus into linearizable CAS / test-and-set / counter / read-write
objects whose histories the Wing–Gong checker verifies against the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.registers.base import (
    OperationKind, OperationRecord, OperationRefused, RegisterAlgorithm, RegisterProcess,
)
from repro.registers.costmodels import Price, int_bits, value_bits
from repro.sim.rng import make_rng
from repro.verification.specs import SMRSpec

__all__ = [
    "COIN_PREFIX",
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

#: The coins of an instance's first rounds (see the module docstring).
COIN_PREFIX = (1, 0)

#: Rounds after which an instance aborts loudly.  From round 2 on the seeded
#: coin decides a two-value round with probability 1/2, so 100 rounds without
#: a decision (probability ~2^-98) always indicates a logic bug, never bad luck.
ROUND_CAP = 100

#: The sequential state machine applied to decided commands — the *same*
#: object the linearizability checker replays histories against, so the
#: implementation and its specification cannot drift apart.
_SMR_SPEC = SMRSpec()

#: A command's kind by its wire value (a dict hit, not an ``Enum`` call).
_KINDS = {kind.value: kind for kind in OperationKind}


def _cand_bits(cand: Any) -> int:
    """Wire size of a piggybacked command ``[proposer, kind, value]``."""
    if cand is None:
        return 0
    proposer, kind, value = cand
    return int_bits(proposer) + 8 * len(kind) + value_bits(value)


def _round_bits(slot: int, round: int) -> int:
    """Control bits of a round message: type, slot, round and the binary value."""
    return CONS_TYPE_BITS + int_bits(slot) + int_bits(round) + 1


# A consensus message's price is a property: the network computes it when it
# bills the send.  The classes are frozen dataclasses (``==``, ``hash``,
# ``repr``, ``fields()`` and ``FrozenInstanceError`` are the dataclass's) whose
# ``__init__`` writes the instance dict: a replica builds one per broadcast,
# and the dataclass-made one pays ``object.__setattr__`` per field.


@dataclass(frozen=True, init=False)
class ConsEst(object):
    """Round-``round`` estimate broadcast (the BV-broadcast payload).

    A value-1 estimate piggybacks the slot's command as ``cand``
    (``[proposer_pid, kind, value]`` — a *list* so the simulator and the
    JSON-decoded live wire agree byte-for-byte) while some destination may
    lack it (**Who holds the command** in the module docstring), which is
    how the command payload disseminates without a separate message type.
    """

    slot: int
    round: int
    value: int
    cand: Any = None

    def __init__(self, slot: int, round: int, value: int, cand: Any = None) -> None:
        fields = self.__dict__
        fields["slot"] = slot
        fields["round"] = round
        fields["value"] = value
        fields["cand"] = cand

    @property
    def price(self) -> Price:
        cand = self.cand
        data = 0 if cand is None else _cand_bits(cand)
        return "CONS_EST", _round_bits(self.slot, self.round), data


@dataclass(frozen=True, init=False)
class ConsAux(object):
    """Round-``round`` auxiliary broadcast: one delivered ``bin_values`` entry.

    Counted as its sender's ``EST(round, value)`` too (it may be sent *instead*
    of it), so a value-1 AUX carries the command exactly as the EST does.
    """

    slot: int
    round: int
    value: int
    cand: Any = None

    def __init__(self, slot: int, round: int, value: int, cand: Any = None) -> None:
        fields = self.__dict__
        fields["slot"] = slot
        fields["round"] = round
        fields["value"] = value
        fields["cand"] = cand

    @property
    def price(self) -> Price:
        cand = self.cand
        data = 0 if cand is None else _cand_bits(cand)
        return "CONS_AUX", _round_bits(self.slot, self.round), data


@dataclass(frozen=True, init=False)
class ConsCoin(object):
    """Common-coin share for ``(slot, round)`` (seeded rounds only)."""

    slot: int
    round: int
    value: int

    def __init__(self, slot: int, round: int, value: int) -> None:
        fields = self.__dict__
        fields["slot"] = slot
        fields["round"] = round
        fields["value"] = value

    @property
    def price(self) -> Price:
        return "CONS_COIN", _round_bits(self.slot, self.round), 0


@dataclass(frozen=True, init=False)
class ConsDecide(object):
    """One-shot decision announcement; a decide-1 one carries the command
    while some destination may lack it."""

    slot: int
    value: int
    cand: Any = None

    def __init__(self, slot: int, value: int, cand: Any = None) -> None:
        fields = self.__dict__
        fields["slot"] = slot
        fields["value"] = value
        fields["cand"] = cand

    @property
    def price(self) -> Price:
        cand = self.cand
        data = 0 if cand is None else _cand_bits(cand)
        return "CONS_DECIDE", CONS_TYPE_BITS + int_bits(self.slot) + 1, data


@lru_cache(maxsize=8192)
def common_coin(slot: int, round: int) -> int:
    """The common coin for ``(slot, round)`` — deterministic, global.

    :data:`COIN_PREFIX` for the first rounds; after that derived from seed 0
    with a dedicated label so it is independent of the workload seed, the
    key, the subnet and the transport backend; every process of every
    backend computes the same coin, which is exactly the "common coin"
    abstraction the MMR algorithm assumes.
    """
    if round < len(COIN_PREFIX):
        return COIN_PREFIX[round]
    return make_rng(0, "mmr-common-coin", slot, round).randrange(2)


class _Round:
    """One round's tallies; this process's own broadcasts are counted in them."""

    __slots__ = ("est_senders", "bin_values", "aux_senders", "coin_senders")

    def __init__(self) -> None:
        #: ``value -> pids`` whose ``EST(value)`` arrived (or was sent).
        self.est_senders: Tuple[Set[int], Set[int]] = (set(), set())
        #: Delivered values in delivery order (the first is what our AUX carries).
        self.bin_values: List[int] = []
        #: ``value -> pids`` whose ``AUX(value)`` arrived (or was sent).
        self.aux_senders: Tuple[Set[int], Set[int]] = (set(), set())
        #: Pids whose coin share arrived (or was sent) — seeded rounds only.
        self.coin_senders: Set[int] = set()


class _Rounds(dict):
    """``round -> tallies``, made on first look (peers may run ahead)."""

    __slots__ = ()

    def __missing__(self, round: int) -> _Round:
        state = self[round] = _Round()
        return state


class _Instance:
    """Per-slot state of one running binary-consensus instance."""

    __slots__ = ("est", "round", "rounds")

    def __init__(self, est: int) -> None:
        self.est = est
        self.round = 0
        self.rounds: Dict[int, _Round] = _Rounds({0: _Round()})  # round 0 is entered at once


class ConsensusObjectProcess(RegisterProcess):
    """A replica serving one linearizable SMR object via MMR consensus.

    Every replica accepts every operation kind (consensus makes the object
    multi-writer by construction); the driver serializes operations per
    process, so one pending command slot suffices.  See the module docstring
    for the slot-ownership / proposal / yield / hole-filling rules.
    """

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
        #: Smallest owned slot neither proposed in nor yielded: every owned
        #: slot below it has an instance here or is decided, none from it on.
        self._next_own = self.pid
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

    def abandon_operation(self) -> None:
        """Keep the stalled command: it may still be decided and applied
        later, so this replica goes on refusing new operations until then."""

    def crash(self) -> None:
        """Halt, and drop the pending command with its continuation: a
        crashed replica takes no step, so the command never completes here
        (its peers may still decide it)."""
        super().crash()
        self._pending = self._inflight_slot = None

    def _refuse_overlap(self, kind: OperationKind) -> None:
        held = self._current_op
        if held.failed:  # the driver failed it as stalled; it is still proposed
            slot = self._inflight_slot
            raise OperationRefused(
                f"replica p{self.pid} still holds its stalled {held.kind.value} at slot "
                f"{slot} (command {self.commands.get(slot)}) until that slot resolves"
            )
        super()._refuse_overlap(kind)

    def _submit_command(self, record: OperationRecord, done: Callable[..., None]) -> None:
        if self._pending is not None:
            raise RuntimeError(
                f"process {self.pid} already has a command in flight "
                "(the driver serializes operations per process)"
            )
        self._pending = (record, done)
        self._propose_pending()

    def _propose_pending(self) -> None:
        """Propose the (slotless) pending command at the smallest unused owned slot."""
        record, _ = self._pending
        target = self._inflight_slot = self._next_own
        self._next_own = target + self.quorum.n
        self.commands[target] = [self.pid, record.kind.value, record.value]
        self._start_instance(target, 1)

    def _yield_through(self, slot: int) -> None:
        """Decide 0 every owned slot up to ``slot`` that we never proposed in.

        Someone is working at ``slot``, so the log needs those slots settled,
        and only our proposal could have put a 1 into them.
        """
        while self._next_own <= slot:
            own = self._next_own
            self._next_own = own + self.quorum.n
            self._decide(own, 0)

    # --------------------------------------------------------- instance core

    def _start_instance(self, slot: int, est: int) -> None:
        instance = self.instances[slot] = _Instance(est)
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
        # Buffered deliveries from faster peers may already complete the
        # round the moment we enter it.
        self._bv_step(slot, instance, round, instance.est)

    def _bv_step(self, slot: int, instance: _Instance, round: int, value: int) -> None:
        """Broadcast / echo ``EST(round, value)``, deliver it at ``n - t`` senders.

        The Byzantine original echoes at ``t + 1`` distinct senders — enough
        to prove one *correct* process broadcast the value, which needs
        ``n >= 3t + 1`` to terminate.  In the crash geometry (``n = 2t + 1``)
        every sender is honest, so the echo fires on first sighting: without
        this, two surviving processes proposing opposite bits deadlock in
        round 0 (one sender per value never reaches ``t + 1``).  Delivery
        keeps the ``n - t`` quorum threshold, so ``bin_values`` still only
        holds values the whole quorum has seen and re-broadcast.
        """
        state, pid = instance.rounds[round], self.pid
        senders, bin_values = state.est_senders[value], state.bin_values
        echo = pid not in senders
        senders.add(pid)
        if len(senders) >= self.quorum.quorum_size and value not in bin_values:
            bin_values.append(value)
        current = round == instance.round
        # Vouched for: our AUX(round, value) leaves in this very step (**Subsumption**).
        vouched = current and bin_values[:1] == [value] and pid not in state.aux_senders[value]
        if echo and (self.skip_aux_quorum or not vouched):
            cand = self._command_for(slot, state) if value == 1 else None
            self.network.send(pid, self._peers, ConsEst(slot, round, value, cand))
        if current:
            self._resolve(slot, instance, state)

    def _resolve(self, slot: int, instance: _Instance, state: _Round) -> None:
        """Drive the current round as far as its tallies allow.

        Tally our AUX on the first delivery; once ``n - t`` AUX values lie
        within ``bin_values`` (and a seeded coin's shares are in) decide,
        adopt or advance.  The AUX, and a seeded round's share after it, are
        owed (tallied, not yet sent) and built only if this step does not
        decide: else the ``DECIDE`` stands for them.
        """
        bin_values, aux = state.bin_values, state.aux_senders
        if not bin_values:
            return
        round, quorum, first = instance.round, self.quorum.quorum_size, bin_values[0]
        pid = self.pid
        owes_aux, owes_share = pid not in aux[first], False  # tallied here, not sent yet
        aux[first].add(pid)
        if self.skip_aux_quorum:
            # MUTATION (repro explore, ``mmr-skip-aux``): decide from the
            # first delivered value without the n-t AUX exchange.  Different
            # processes can deliver 0 and 1 in opposite orders, so this
            # decides divergent values under contention — the harness's job
            # is to find the schedule that proves it.
            vals, ready = bin_values[:1], True
        else:
            # The values with an AUX: ``first`` (ours is in), and the other if tallied.
            vals = bin_values if aux[bin_values[-1]] else bin_values[:1]
            ready = (len(aux[first]) if len(vals) == 1 else len(aux[0]) + len(aux[1])) >= quorum
            if ready and round >= len(COIN_PREFIX):
                shares = state.coin_senders
                owes_share = pid not in shares
                shares.add(pid)
                ready = len(shares) >= quorum
        coin = common_coin(slot, round)
        decides = ready and len(vals) == 1 and vals[0] == coin
        if not decides or self.skip_aux_quorum:  # else the DECIDE stands for them
            if owes_aux:
                cand = self._command_for(slot, state) if first == 1 else None
                self.network.send(pid, self._peers, ConsAux(slot, round, first, cand))
            if owes_share:
                self.network.send(pid, self._peers, ConsCoin(slot, round, coin))
        if decides:
            self._decide(slot, coin)
        elif ready:
            instance.est = vals[0] if len(vals) == 1 else coin
            self._enter_round(slot, instance, round + 1)

    def _decide(self, slot: int, value: int, relay: int = -1) -> None:
        """Record a decision (ours, or ``relay``'s), announce it once, apply."""
        self.decided[slot] = value
        instance = self.instances.pop(slot, None)
        cand = None
        if value == 1:
            state = instance.rounds[instance.round] if instance is not None else None
            cand = self._command_for(slot, state, relay)
        self.network.send(self.pid, self._peers, ConsDecide(slot, value, cand))
        if slot == self.frontier:  # else the frontier waits on another slot
            self._apply_ready()

    def _command_for(self, slot: int, state: Optional[_Round], relay: int = -1) -> Any:
        """The command a value-1 broadcast for ``slot`` carries: ``None`` when
        every peer holds it already (**Who holds the command**).

        A peer holds it if it owns the slot, if it sent us value 1 in
        ``state``'s round (an AUX counts: ``est_senders`` tallies it) or if it
        is the ``relay`` whose ``DECIDE`` we pass on.
        """
        owner, holders = slot % self.quorum.n, state.est_senders[1] if state is not None else ()
        for peer in self._peers:
            if peer != owner and peer != relay and peer not in holders:
                return self.commands.get(slot)
        return None

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
                result, self.state = _SMR_SPEC.apply(self.state, _KINDS[kind], value)
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
        if self._pending is not None and self._inflight_slot is None and not self.crashed:
            self._propose_pending()

    def waiting_on(self) -> List[str]:
        """What the log is blocked on: the frontier, then every open instance."""
        waits: List[str] = []
        slot, quorum = self.frontier, self.quorum.quorum_size
        if self.crashed:
            return waits  # a crashed replica waits for nothing
        if slot in self.decided:
            waits.append(f"slot {slot} decided 1, command unknown")
        elif slot not in self.instances and (self._pending or slot < max(self.decided, default=0)):
            owner = slot % self.n
            waits.append(f"frontier {slot}: slot {slot} undecided (owner p{owner}, no instance here)")
        for slot, instance in sorted(self.instances.items()):
            state = instance.rounds[instance.round]
            good = sum(len(state.aux_senders[value]) for value in state.bin_values)
            waits.append(f"slot {slot} round {instance.round}: AUX {good}/{quorum} within bin_values")
        return waits

    # ------------------------------------------------------------- messages

    def on_message(self, src: int, message: Any) -> None:
        handler = self._HANDLERS.get(message.__class__)
        if handler is None:
            raise TypeError(f"unexpected message {message!r}")
        slot = message.slot
        if self._next_own <= slot:
            self._yield_through(slot)
        cand = getattr(message, "cand", None)
        if cand is not None and slot not in self.commands:
            self.commands[slot] = list(cand)
            if slot in self.decided:
                self._apply_ready()  # a late command can unblock the frontier
        if slot not in self.decided:
            handler(self, src, message, slot)
        elif message.__class__ is ConsDecide:
            # A peer got through ``slot`` as well, one message delay ago.  A
            # live owner yields its lower slots before its first reply in
            # ``slot``'s instance, so what is still a hole below has a dead
            # (or very slow) owner: settle it with a 0-instance.
            for hole in range(self.frontier, slot):
                if hole not in self.decided and hole not in self.instances:
                    self._start_instance(hole, 0)
        # anything else for a decided slot is dropped: our DECIDE is on src's link

    def _on_est(self, src: int, message: Any, slot: int) -> None:
        """An EST — or an AUX, which is its sender's EST of that value as well.

        Both tallies move before the *one* pass over the round (the legal
        order "the AUX, then its EST, back to back"), and a replica that joins
        counts the sender before its own first step: only so can its echo
        complete the quorum at once, and a ``DECIDE`` stand for our AUX.
        """
        round, value = message.round, message.value
        instance = self.instances.get(slot)
        joining = instance is None
        if joining:
            # Copy the value — on non-FIFO links maybe an AUX's that outran
            # every EST (delivered at the sender, hence proposed by someone).
            # Never an owned slot: an owner either proposed (instance exists)
            # or yielded (decided) before any handler runs.
            instance = self.instances[slot] = _Instance(value)
        state = instance.rounds[round]
        state.est_senders[value].add(src)
        if message.__class__ is ConsAux:
            state.aux_senders[value].add(src)
        if joining:  # entering round 0 is the step for a round-0 message
            self._enter_round(slot, instance, 0)
        if not joining or round:
            self._bv_step(slot, instance, round, value)

    def _on_coin(self, src: int, message: ConsCoin, slot: int) -> None:
        instance = self.instances.get(slot)
        if instance is not None:  # else we never started it; the share is moot
            state = instance.rounds[message.round]
            state.coin_senders.add(src)
            if message.round == instance.round:
                self._resolve(slot, instance, state)

    def _on_decide(self, src: int, message: ConsDecide, slot: int) -> None:
        # Relay our own DECIDE so slower peers cut over too, then apply.
        self._decide(slot, message.value, src)

    _HANDLERS = {ConsEst: _on_est, ConsAux: _on_est, ConsCoin: _on_coin, ConsDecide: _on_decide}

    # ----------------------------------------------------------- accounting

    def local_memory_words(self) -> int:
        words = 2 * len(self.decided) + 4 * len(self.commands) + 2
        for instance in self.instances.values():
            words += 3
            for state in instance.rounds.values():
                sets = (*state.est_senders, *state.aux_senders, state.coin_senders)
                words += 6 + len(state.bin_values) + sum(len(pids) for pids in sets)
        return words


class SkipAuxConsensusProcess(ConsensusObjectProcess):
    """The ``mmr-skip-aux`` mutant: decides without the AUX quorum."""

    skip_aux_quorum = True


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

CONSENSUS_ALGORITHMS = (MMR_CAS_ALGORITHM, MMR_TAS_ALGORITHM, MMR_COUNTER_ALGORITHM)


# ---------------------------------------------------------------- invariants


def consensus_invariants(processes_by_key: Dict[Any, List[ConsensusObjectProcess]]) -> List[str]:
    """Agreement / validity violations across deployed consensus replicas.

    ``processes_by_key`` maps each deployed key to its replica processes
    (crashed ones included — a decision taken before crashing still binds),
    or to anything with their ``pid``, ``decided`` and ``commands`` (a live
    replica's reported log).
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
    """:func:`consensus_invariants` over the replica processes of a simulated store.

    Runs where the replicas live: at the end of a serial run, and in each
    shard-group worker on its own store.  Returns ``None`` — not an empty
    list — when the store deployed no consensus-backed key, rather than
    claiming a vacuous pass.
    """
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
