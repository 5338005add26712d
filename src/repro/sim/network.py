"""Reliable, asynchronous, non-FIFO, crash-aware channels.

The paper's communication model (Section 2.1):

* every ordered pair of processes is connected by a uni-directional channel;
* channels are **reliable** — no loss, corruption, duplication or creation;
* channels are **asynchronous** — transfer delays are finite but unbounded
  (here: drawn from a pluggable :class:`~repro.sim.delays.DelayModel`);
* channels are **not necessarily FIFO** — reordering is allowed and, with a
  random delay model, actively happens.

Crash semantics: a message sent *to* a crashed process is silently dropped at
delivery time (the crashed process takes no more steps); a message already in
flight *from* a process that subsequently crashes is still delivered (crashing
does not retract messages).  A crashed process cannot initiate new sends.

Adversarial-but-legal executions are produced by one delay adversary, the
network's optional **link policy** (:mod:`repro.faults`): it adjusts the
sampled delay per ``(src, dst)`` message at send time (partitions-that-heal,
delay storms, asymmetric slowdowns).  A policy must return a finite,
non-negative delay — channels stay *reliable*; only the asynchrony is
exercised, so every faulted execution is one the model permits.  The one
schedule adversary is the optional **chooser**
(:mod:`repro.explore.chooser`): under it each message's delivery time is a
slot, and the chooser picks which message in flight that slot delivers.

The network also maintains :class:`NetworkStats`: per-type message counts,
control-bit and data-bit accounting, and per-operation attribution used by the
Table-1 benchmarks.  The accounting asks a message one thing, its ``price``:
``(wire type, control bits, data bits)`` — the name it is aggregated under in
``by_type``, the control bits it carries on the wire (for the paper's
algorithm exactly 2, the message type) and its data-value bits (the payload,
excluded from the control count).  A message states it as a class attribute
where it holds for every instance, as an attribute set when the message is
built where the message is immutable and sent many times (and its wire type
depends on the instance: ``WRITE0`` / ``WRITE1``), or as a property.  A
message without one is billed under its class name with 0 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Union

from repro.sim.delays import DelayModel, FixedDelay
from repro.sim.scheduler import Simulator
from repro.transport.base import TransportClosedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transport.runtime import ProcessBase as Process


@dataclass(frozen=True)
class MessageRecord:
    """Bookkeeping record for a single message transfer."""

    send_time: float
    delivery_time: float
    src: int
    dst: int
    message: Any
    control_bits: int
    data_bits: int
    delivered: bool


def price_of(message: Any) -> tuple[str, int, int]:
    """``(wire type, control bits, data bits)`` of ``message``: its ``price``,
    or its class name and 0 bits where it states none."""
    try:
        return message.price
    except AttributeError:
        return message.__class__.__name__, 0, 0


#: Hoisted for the send hot path (``delay < _INF`` beats ``math.isfinite``).
_INF = math.inf


def _bad_destination(src: int, dst: int) -> Exception:
    """Why ``src`` may not send to ``dst``: itself, or nobody."""
    if dst == src:
        return ValueError(
            f"process p{src} attempted to send a message to itself; "
            "the paper's algorithm never does this (Lemma 1 observation)"
        )
    return KeyError(f"unknown destination process p{dst}")


@dataclass
class NetworkStats:
    """Aggregated message statistics for a simulation run.

    All counters are **logical** message counts: coalescing (packing several
    same-instant deliveries into one heap event) is invisible here except for
    the dedicated ``messages_coalesced`` counter — the message bill, per-type
    attribution and per-operation accounting are the same with coalescing on
    or off.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_to_crashed: int = 0
    control_bits_total: int = 0
    data_bits_total: int = 0
    max_control_bits: int = 0
    #: Logical messages that piggybacked on an already-scheduled delivery
    #: event (same destination, same delivery instant).  The number of heap
    #: events actually scheduled is ``messages_sent - messages_coalesced``.
    messages_coalesced: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)
    per_sender: Dict[int, int] = field(default_factory=dict)

    def record_send(self, src: int, message: Any, count: int = 1) -> tuple[int, int]:
        """Price ``message`` once and bill ``src`` for ``count`` copies of it."""
        try:  # price_of(), inlined: this runs once per send call
            name, control, data = message.price
        except AttributeError:
            name, control, data = message.__class__.__name__, 0, 0
        self.messages_sent += count
        self.control_bits_total += control * count
        self.data_bits_total += data * count
        if control > self.max_control_bits:
            self.max_control_bits = control
        by_type = self.by_type
        by_type[name] = by_type.get(name, 0) + count
        per_sender = self.per_sender
        per_sender[src] = per_sender.get(src, 0) + count
        return control, data

    def record_drop(self) -> None:
        self.messages_dropped_to_crashed += 1

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict snapshot for reports."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped_to_crashed": self.messages_dropped_to_crashed,
            "control_bits_total": self.control_bits_total,
            "data_bits_total": self.data_bits_total,
            "max_control_bits": self.max_control_bits,
            "messages_coalesced": self.messages_coalesced,
            "delivery_events": self.messages_sent - self.messages_coalesced,
            "by_type": dict(self.by_type),
            "per_sender": dict(self.per_sender),
        }


class _Delivery:
    """The channel end into one process: what a message in flight to it fires.

    :meth:`Network.register` builds one per process; it holds what delivery
    needs that does not vary per message.  A message in flight is then a
    plain heap tuple ``(time, seq, endpoint, src, message, send_time,
    riders)`` that ``Network.send`` pushes in place — one allocation and no
    Python frame per message.  The tuple honours the event queue's entry
    protocol (:mod:`repro.sim.events`): popping it calls ``endpoint(src,
    message, send_time, riders)``, :meth:`describe` formats its diagnostic
    label only if a stuck run asks for it, and ``cancelled`` is a class
    constant — a message in flight is irrevocable.

    Where the network keeps its **coalescing** index (see
    :meth:`Network.send`), the first message to a given ``(dst,
    delivery-time)`` is pushed as the *head* with a ``riders`` list, which
    the index maps the key to; later logical messages to the same key are
    appended to that list as ``(src, message, send_time)`` and fanned out —
    in send order — when the head fires.  The head carries its riders in its
    own tuple, so closing the network (which drops the index) loses none.
    Heads remove themselves from the index before fanning out, so a fan-out
    handler that sends at the same instant starts a fresh event.
    Destination liveness is (re)checked per logical message: a fan-out
    handler may crash the destination mid-event (e.g. a send-count crash
    trigger) and the remaining logical messages must then be dropped.
    """

    __slots__ = ("network", "dst", "process")

    cancelled = False

    def __init__(self, network: "Network", process: "Process") -> None:
        self.network = network
        self.dst = process.pid
        self.process = process

    def __call__(self, src: int, message: Any, send_time: float, riders: Optional[list]) -> None:
        network = self.network
        if riders is not None:
            # Coalesced head: detach from the index first (a closed network
            # has dropped it already), then fan out the logical messages in
            # send order (head first).
            network._coalesced.pop((self.dst, network.simulator._now), None)
            if riders:
                self._fan_out(src, message, send_time, riders)
                return
        # One logical message (no index, or nothing rode along).
        network._in_flight -= 1
        destination = self.process
        delivered = not destination.crashed
        if network.record_messages:
            network._record(src, self.dst, message, send_time, delivered)
        if not delivered:
            network.stats.record_drop()
            return
        network.stats.messages_delivered += 1
        destination.deliver(src, message)

    def _fan_out(self, src: int, message: Any, send_time: float, riders: list) -> None:
        """Deliver the head plus every coalesced rider, in send order.

        All entries share this event's destination and instant, so the
        per-delivery invariants (destination, stats, record flag) are hoisted
        out of the loop, message handling is dispatched straight to
        ``on_message``, and the release (``check_guards``) runs **once**
        for the whole batch instead of once per message — if any handler of
        the batch made a wait hold.  Deferring the release
        is legal because every awaited predicate is *stable-true* within an
        instant — quorum counts and ``w_sync`` entries only grow, and the
        alternating-bit reorder predicate stays true until its write is
        processed — so the same waits fire at the same virtual time, merely
        later within it.  Destination liveness is re-read per logical message
        (a handler may crash the destination mid-event, e.g. a send-count
        crash trigger firing on one of its replies).
        """
        network = self.network
        stats = network.stats
        destination = self.process
        record = network.record_messages
        index = 0
        count = len(riders)
        while True:
            network._in_flight -= 1
            delivered = not destination.crashed
            if record:
                network._record(src, self.dst, message, send_time, delivered)
            if delivered:
                stats.messages_delivered += 1
                # Process.deliver, inlined for the batch: the dispatch, with
                # the release hoisted to the end of the fan-out.
                destination.on_message(src, message)
            else:
                stats.messages_dropped_to_crashed += 1  # record_drop(), inlined
            if index == count:
                break
            src, message, send_time = riders[index]
            index += 1
        if destination._scan_due and not destination.crashed:
            destination.check_guards()

    def describe(self, src: int, message: Any, send_time: float, riders: Optional[list]) -> str:
        """The diagnostic label of the message in flight ``(src, message, send_time, riders)``."""
        label = f"deliver {message!r} p{src}->p{self.dst}"
        if riders:
            label += f" (+{len(riders)} coalesced)"
        return label


class Network:
    """Complete network of reliable, asynchronous, non-FIFO channels.

    Parameters
    ----------
    simulator:
        The shared event loop.
    delay_model:
        Source of message transfer delays (default: ``FixedDelay(1.0)``).
    record_messages:
        When true, every transfer is kept as a :class:`MessageRecord` (used
        by fine-grained tests; benchmarks leave it off to save memory).
    coalesce:
        When true, logical messages to the same destination arriving at the
        same virtual instant share one heap event (the head's tuple carries
        the rest, and its ``_Delivery`` fans them out on arrival).  Delivery
        *times* are unchanged and every logical message is still delivered,
        recorded and accounted individually — only the intra-instant delivery
        interleaving (and the number of heap operations) changes.  Off by
        default so existing deployments replay their pinned histories bit for
        bit; the sharded store turns it on (see
        ``repro.store.StoreConfig.coalesce``).  The index behind it exists
        only where instants can be shared (:meth:`send`).
    """

    def __init__(
        self,
        simulator: Simulator,
        delay_model: Optional[DelayModel] = None,
        record_messages: bool = False,
        coalesce: bool = False,
    ) -> None:
        self.simulator = simulator
        self.delay_model = delay_model or FixedDelay(1.0)
        #: A subnet's name: the scope its delay model and chooser are bound
        #: to (pids are subnet-local; unscoped, two keys' traffic would share
        #: one choice stream).
        self.name = ""
        #: Set by :meth:`close`; a closed network (or subnet) rejects sends.
        self.closed = False
        self.stats = NetworkStats()
        self.record_messages = record_messages
        self.coalesce = coalesce
        # Coalescing index: (dst, delivery-time) -> the riders list of the
        # scheduled head.  Heads remove themselves when they fire, so the
        # index only ever holds in-flight events and lookups can never hit a
        # stale head.
        self._coalesced: Dict[tuple[int, float], list] = {}
        self.records: list[MessageRecord] = []
        # Membership: pid -> the channel end into that process (its
        # ``process``), which every message in flight to it fires.
        self._endpoints: Dict[int, _Delivery] = {}
        # Membership is static once built, so it is sorted when it changes
        # (register), not each time a process asks who its peers are.  The
        # list is replaced, never mutated: a reference handed out stays valid.
        self._process_ids: list[int] = []
        self._in_flight = 0  # sent here, not yet delivered or dropped
        # The delay adversary (repro.faults): ``adjust(src, dst, now, delay)
        # -> float`` reshapes the sampled delay per logical message, in send
        # order.  ``None`` (the default) keeps the send path byte-identical
        # to a fault-free run.
        self.link_policy: Optional[Any] = None
        # The schedule adversary (repro.explore.chooser): ``hold(heap,
        # entry)`` takes each message in flight and books its delivery slot,
        # ``scoped(name)`` is its view on a subnet.  A network under one
        # keeps no coalescing index: a slot delivers one message.
        self.chooser: Optional[Any] = None
        # Send hooks fire after a message is recorded and scheduled (i.e. the
        # message is already irrevocably in flight).  The message-count crash
        # trigger uses this to kill a sender *immediately* after its k-th
        # send, even mid-broadcast.  Hooks must not mutate the hook list.
        self._send_hooks: list[Callable[[int, int, Any], None]] = []

    # ------------------------------------------------------------ membership

    def register(self, process: "Process") -> None:
        """Attach a process to the network (called by ``Process.__init__``)."""
        if process.pid in self._endpoints:
            raise ValueError(f"duplicate process id {process.pid}")
        self._endpoints[process.pid] = _Delivery(self, process)
        self._process_ids = sorted(self._endpoints)

    @property
    def process_ids(self) -> list[int]:
        """Sorted list of registered process ids (shared; treat as read-only)."""
        return self._process_ids

    def process(self, pid: int) -> "Process":
        """Return the process registered under ``pid``."""
        return self._endpoints[pid].process

    def processes(self) -> list["Process"]:
        """All registered processes, ordered by pid."""
        return [self._endpoints[pid].process for pid in self._process_ids]

    def add_send_hook(self, hook: Callable[[int, int, Any], None]) -> None:
        """Register a callback invoked right after every send is scheduled.

        The message is already in flight when the hook runs (crashing the
        sender from a hook does not retract it — matching the crash model).
        """
        self._send_hooks.append(hook)

    # --------------------------------------------------------------- sending

    def send(self, src: int, dst: Union[int, Sequence[int]], message: Any) -> None:
        """Send ``message`` from ``src`` to ``dst`` — one pid, or a sequence of pids.

        Each copy is delivered after a delay sampled from the delay model,
        unless its destination has crashed by then (it is dropped: the
        destination takes no further steps, so it could never process it).

        A sequence is the pseudocode's "send to every ``p_j`` such that…":
        observably the loop of single sends in list order (same delay draws,
        heap sequence numbers, records and hook calls), but what does
        not depend on the destination happens once — the closed and
        crashed-sender checks, the price (billed ``len(dst)`` times) and one
        batch of delay draws.  A self or unknown pid anywhere in the sequence
        rejects the whole call: nothing is sent.

        With send hooks installed everything is per message instead: a hook
        sees the accounting as of *its* message and may crash the sender
        mid-list, after which nothing further is billed, drawn or sent.

        One pid on a network with no send hook, link policy or coalescing
        index — a reply — is the commonest call and takes the per-message
        part in a straight line, with nothing built around it.

        The coalescing index is consulted only where two deliveries can share
        an instant: the delay model's draws can collide, or a link policy —
        which can align instants (a healed partition releases everything at
        the heal time) — is installed; and never under a chooser, which gets
        each message in flight instead (``chooser.hold``).
        """
        if self.closed:
            raise TransportClosedError(
                f"send p{src}->p{dst} on closed network"
                + (f" {self.name!r}" if self.name else "")
            )
        endpoints = self._endpoints
        sender = endpoints.get(src)  # the sender's own channel end, if a member
        if sender is not None and sender.process.crashed:
            # A crashed process takes no steps, hence cannot send.
            return
        stats = self.stats
        model = self.delay_model
        hooks = self._send_hooks
        policy = self.link_policy
        chooser = self.chooser
        coalesced = None
        if self.coalesce and chooser is None and (model.may_collide or policy is not None):
            coalesced = self._coalesced
        simulator = self.simulator
        send_time = simulator._now  # .now property, bypassed on the hot path
        # A message in flight is one plain tuple ``(time, seq, endpoint, src,
        # message, send_time, riders)`` pushed in place (see ``_Delivery``):
        # what ``EventQueue.push`` does, minus the frame, the ``Event`` and
        # the ``time >= 0`` check (``delay >= 0`` is checked below and the
        # clock is never negative).
        queue = simulator._queue
        heap = queue._heap
        counter = queue._counter
        if dst.__class__ is int:
            endpoint = endpoints.get(dst)
            if endpoint is None or dst == src:
                raise _bad_destination(src, dst)
            delay = model.sample(src, dst)
            if not hooks and policy is None and chooser is None and coalesced is None:
                # One message that nothing can reshape, observe or share an
                # instant with — every reply of a quorum phase.  This is the
                # loop below for one destination with the branches that
                # cannot be taken left out: a reply costs no more than one
                # copy of a multicast.
                stats.record_send(src, message)
                self._in_flight += 1
                if delay < 0:
                    raise ValueError(f"delay model produced negative delay {delay}")
                time = send_time + delay
                heappush(heap, (time, next(counter), endpoint, src, message, send_time, None))
                return
            dsts, delays = (dst,), (delay,)
        else:
            dsts = dst
            if not dsts:
                return
            for dst in dsts:
                if dst == src or dst not in endpoints:
                    raise _bad_destination(src, dst)
            if hooks:
                delays = (model.sample(src, dst) for dst in dsts)  # drawn as the loop advances
            else:
                delays = model.sample_many(src, dsts)
        if not hooks:
            count = len(dsts)
            stats.record_send(src, message, count)
            self._in_flight += count
        push = heappush if chooser is None else chooser.hold
        for dst, delay in zip(dsts, delays):
            if hooks:
                stats.record_send(src, message)
                self._in_flight += 1
            if delay < 0:
                raise ValueError(f"delay model produced negative delay {delay}")
            if policy is not None:
                delay = policy.adjust(src, dst, send_time, delay)
                # Reliability is non-negotiable: a policy that loses a message
                # (infinite/NaN delay) or turns back time is a bug, not a fault.
                if not 0.0 <= delay < _INF:
                    raise ValueError(
                        f"link policy produced invalid delay {delay} for p{src}->p{dst}; "
                        "policies must preserve reliability (finite, non-negative delays)"
                    )
            time = send_time + delay
            if coalesced is None:
                push(heap, (time, next(counter), endpoints[dst], src, message, send_time, None))
            else:
                key = (dst, time)
                riders = coalesced.get(key)
                if riders is None:
                    coalesced[key] = riders = []
                    heappush(
                        heap, (time, next(counter), endpoints[dst], src, message, send_time, riders)
                    )
                else:
                    riders.append((src, message, send_time))
                    stats.messages_coalesced += 1
            if hooks:
                for hook in hooks:
                    hook(src, dst, message)
                if sender is not None and sender.process.crashed:
                    break

    def _record(
        self, src: int, dst: int, message: Any, send_time: float, delivered: bool
    ) -> None:
        """Log one transfer as it is delivered or dropped (``record_messages``)."""
        _name, control, data = price_of(message)
        self.records.append(
            MessageRecord(
                send_time=send_time,
                delivery_time=self.simulator._now,
                src=src,
                dst=dst,
                message=message,
                control_bits=control,
                data_bits=data,
                delivered=delivered,
            )
        )

    # ------------------------------------------------------------ inspection

    def in_flight_total(self) -> int:
        """Total number of messages currently in flight."""
        return self._in_flight

    def quiescent(self) -> bool:
        """True when no messages are in flight."""
        return self.in_flight_total() == 0

    # -------------------------------------------------------------- teardown

    def close(self) -> None:
        """Close the network: further sends raise ``TransportClosedError``.

        Deliveries already scheduled on the simulator still fire (a message
        in flight is irrevocable), but no new traffic can enter.  Closing
        drops the coalescing index so a long-lived simulation does not keep
        per-deployment delivery heads alive after teardown — subnets are no
        longer immortal.  A head in flight carries its riders in its own
        tuple, so every one of them is still delivered.  Idempotent.
        """
        self.closed = True
        self._coalesced.clear()


class Subnet(Network):
    """A membership-scoped network sharing a parent's clock and accounting.

    Several independent register deployments can run side by side in one
    simulation: each deployment lives on its own :class:`Subnet`, so
    membership queries (``process_ids``, broadcasts, quorum sizes) stay local
    to the deployment, while every delivery is an event on the *parent's*
    simulator and every send is recorded in the *parent's*
    :class:`NetworkStats`.  Operations on different subnets therefore
    interleave on one virtual clock and produce one aggregate message bill —
    this is how :mod:`repro.store` composes many per-key registers into a
    sharded multi-key store.

    Process ids are scoped to the subnet: two subnets may both host a ``p0``
    without colliding.  Messages never cross subnet boundaries (a register
    protocol only ever addresses its own membership).
    """

    def __init__(self, parent: Network, name: str = "") -> None:
        super().__init__(
            parent.simulator,
            # Scoped to the subnet name, like the link policy below: the
            # subnet's delay draws depend only on its own send sequence, never
            # on interleaving with other subnets — which is what lets disjoint
            # shard groups run in separate worker processes with bit-identical
            # histories (repro.parallel).
            delay_model=parent.delay_model.scoped(name),
            record_messages=parent.record_messages,
            # Coalescing is deployment-wide, but the *index* stays per-subnet
            # (pids are subnet-local, so a (dst, time) key from one subnet
            # must never capture another subnet's traffic).
            coalesce=parent.coalesce,
        )
        self.parent = parent
        self.name = name
        # Share the parent's aggregate accounting so the whole deployment has
        # a single message/bit bill (what the store benchmarks report).  The
        # record log is shared too: with ``record_messages=True`` every
        # subnet's MessageRecords land in one parent-owned list, so the bill
        # (stats) and the log (records) describe the same set of messages.
        self.stats = parent.stats
        self.records = parent.records
        # The fault plane is deployment-wide: a subnet created while a link
        # policy is installed on the parent inherits it (lazy per-key
        # deployments during a chaos run see the same partitions), and send
        # hooks are shared by reference so hooks added to the parent later
        # also observe subnet traffic.  Subnet pids are subnet-local, so a
        # policy over replica indices applies uniformly to every key.  The
        # chooser is scoped like the delay model: a subnet's picks depend
        # only on its own traffic.
        self.link_policy = parent.link_policy
        if parent.chooser is not None:
            self.chooser = parent.chooser.scoped(name)
        self._send_hooks = parent._send_hooks
