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

Adversarial-but-legal executions are produced by the **link-level fault
plane** (:mod:`repro.faults`): an optional link policy installed on the
network adjusts the sampled delay per ``(src, dst)`` message at send time
(partitions-that-heal, delay storms, asymmetric slowdowns).  A policy must
return a finite, non-negative delay — channels stay *reliable*; only the
asynchrony is exercised, so every faulted execution is still one the paper's
model permits.

The network also maintains :class:`NetworkStats`: per-type message counts,
control-bit and data-bit accounting, and per-operation attribution used by the
Table-1 benchmarks.  Messages may implement these optional members consumed
by the accounting layer:

``control_bits() -> int``
    Number of control bits the message carries on the wire (for the paper's
    algorithm this is exactly 2 — the message type).
``data_bits() -> int``
    Number of data-value bits (payload), excluded from the control count.
``type_name``
    Name under which the message is aggregated in ``by_type``: a class-level
    string.  Defaults to the class name.
``price``
    ``(type name, control bits, data bits)`` as an instance attribute, set
    when the message was built: the accounting reads it and asks nothing
    else.  For an immutable message that is sent many times — and the only
    way to a wire type that depends on the instance (``WRITE0`` / ``WRITE1``).

Either bit accessor may be a ``staticmethod``: taking no instance, its answer
holds for the whole class, and the accounting asks it once per class instead
of once per message.
"""

from __future__ import annotations

import inspect
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


def _bits_of_class(cls: type, accessor: str) -> Any:
    """The bit count where it is fixed for the whole class, else the accessor.

    Fixed means the accessor is absent (0 bits) or a ``staticmethod`` (it is
    asked here, once); anything else callable is returned to be called with
    each message.
    """
    member = inspect.getattr_static(cls, accessor, None)
    if isinstance(member, staticmethod):
        return int(member.__func__())
    member = getattr(cls, accessor, None)
    return member if callable(member) else 0


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
    # Operation attribution: the workload runner opens an accounting window
    # (`mark()`) before an operation and reads the delta after it completes.
    _marks: Dict[str, int] = field(default_factory=dict)
    # Hot-path cache: message *class* -> (type name, control bits, data
    # bits).  The name is ``None`` where the instances carry their own
    # ``price``; otherwise a bit entry is the count itself where no instance
    # can change it, else the accessor to call.  record_send runs once per
    # simulated message and what to ask a message only depends on its class
    # (a class prices all of its instances when they are built, or none).
    _accessors: Dict[type, tuple] = field(default_factory=dict, repr=False)

    def _resolve_accessors(self, message: Any) -> tuple:
        cls = message.__class__
        if getattr(message, "price", None) is not None:
            accessors = (None, 0, 0)
        else:
            name = getattr(cls, "type_name", None)
            accessors = (
                name if isinstance(name, str) else cls.__name__,
                _bits_of_class(cls, "control_bits"),
                _bits_of_class(cls, "data_bits"),
            )
        self._accessors[cls] = accessors
        return accessors

    def record_send(self, src: int, message: Any, count: int = 1) -> tuple[int, int]:
        """Price ``message`` once and bill ``src`` for ``count`` copies of it."""
        accessors = self._accessors.get(message.__class__)
        if accessors is None:
            accessors = self._resolve_accessors(message)
        name, control, data = accessors
        if name is None:
            name, control, data = message.price
        else:
            if control.__class__ is not int:
                control = int(control(message))
            if data.__class__ is not int:
                data = int(data(message))
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

    def mark(self, label: str = "default") -> None:
        """Open (or reset) a named accounting window."""
        self._marks[label] = self.messages_sent

    def since_mark(self, label: str = "default") -> int:
        """Messages sent since the window ``label`` was opened."""
        return self.messages_sent - self._marks.get(label, 0)

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
    """One in-flight message: the heap entry the simulator pops and fires.

    A ``_Delivery`` is a single ``__slots__`` object that carries exactly the
    state delivery needs and honours the event queue's entry protocol
    (:mod:`repro.sim.events`): ``time`` is the delivery instant, calling it
    delivers, ``str()`` formats the diagnostic label only if a stuck run
    asks for it, and ``cancelled`` is a class constant — a message in flight
    is irrevocable.  ``Network.send`` pushes it straight onto the queue, so a
    simulated message costs one allocation and no wrapper around it.

    Where the network keeps its **coalescing** index (see
    :meth:`Network.send`), the first message to a given ``(dst,
    delivery-time)`` becomes the scheduled *head* (``key`` set, entry in
    ``network._coalesced``); later logical messages to the same key ride
    along in ``extra`` and are fanned out — in send order — when the single
    heap event fires.  Heads remove themselves from the index before fanning
    out, so a fan-out handler that sends at the same instant starts a fresh
    event.  Destination liveness is (re)checked per logical message: a
    fan-out handler may crash the destination mid-event (e.g. a send-count
    crash trigger) and the remaining logical messages must then be dropped.
    """

    __slots__ = (
        "network",
        "src",
        "dst",
        "message",
        "send_time",
        "time",
        "control",
        "data",
        "key",
        "extra",
    )

    cancelled = False

    def __init__(
        self,
        network: "Network",
        src: int,
        dst: int,
        message: Any,
        send_time: float,
        time: float,
        control: int,
        data: int,
    ) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.message = message
        self.send_time = send_time
        self.time = time
        self.control = control
        self.data = data
        self.key: Optional[tuple[int, float]] = None
        self.extra: Optional[list["_Delivery"]] = None

    def __call__(self) -> None:
        network = self.network
        key = self.key
        if key is not None:
            # Coalesced head: detach from the index first, then fan out the
            # logical messages in send order (head first).
            del network._coalesced[key]
            extra = self.extra
            if extra is not None:
                self._fan_out(network, extra)
                return
        # One logical message (no index, or nothing rode along).
        network._in_flight -= 1
        destination = network._processes[self.dst]
        delivered = not destination.crashed
        if network.record_messages:
            network.records.append(
                MessageRecord(
                    send_time=self.send_time,
                    delivery_time=self.time,
                    src=self.src,
                    dst=self.dst,
                    message=self.message,
                    control_bits=self.control,
                    data_bits=self.data,
                    delivered=delivered,
                )
            )
        if not delivered:
            network.stats.record_drop()
            return
        network.stats.messages_delivered += 1
        tracer = network.simulator.tracer
        if tracer.enabled:
            tracer.record(self.time, "deliver", self.src, self.dst, self.message)
        hooks = network._delivery_hooks
        if hooks:
            for hook in hooks:
                hook(self.src, self.dst, self.message)
        destination.deliver(self.src, self.message)

    def _fan_out(self, network: "Network", extra: list["_Delivery"]) -> None:
        """Deliver the head plus every coalesced rider, in send order.

        All entries share this event's destination and instant, so the
        per-delivery invariants (destination, stats, tracer, hooks, record
        flag) are hoisted out of the loop, message handling is dispatched
        straight to ``on_message``, and the guard fixpoint scan runs **once**
        for the whole batch instead of once per message — if any handler of
        the batch moved state a pending guard reads.  Deferring the scan
        is legal because every awaited predicate is *stable-true* within an
        instant — quorum counts and ``w_sync`` entries only grow, and the
        alternating-bit reorder predicate stays true until its write is
        processed — so the same guards fire at the same virtual time, merely
        later within it.  Destination liveness is re-read per logical message
        (a handler may crash the destination mid-event, e.g. a send-count
        crash trigger firing on one of its replies).
        """
        stats = network.stats
        destination = network._processes[self.dst]
        record = network.record_messages
        tracer = network.simulator.tracer
        trace = tracer.enabled
        hooks = network._delivery_hooks
        now = self.time
        entry = self
        index = 0
        count = len(extra)
        while True:
            network._in_flight -= 1
            delivered = not destination.crashed
            if record:
                network.records.append(
                    MessageRecord(
                        send_time=entry.send_time,
                        delivery_time=now,
                        src=entry.src,
                        dst=entry.dst,
                        message=entry.message,
                        control_bits=entry.control,
                        data_bits=entry.data,
                        delivered=delivered,
                    )
                )
            if delivered:
                stats.messages_delivered += 1
                if trace:
                    tracer.record(now, "deliver", entry.src, entry.dst, entry.message)
                if hooks:
                    for hook in hooks:
                        hook(entry.src, entry.dst, entry.message)
                # Process.deliver, inlined for the batch: counters + dispatch,
                # with the guard scan hoisted to the end of the fan-out.
                destination.messages_received += 1
                destination.on_message(entry.src, entry.message)
                destination.messages_handled += 1
            else:
                stats.messages_dropped_to_crashed += 1  # record_drop(), inlined
            if index == count:
                break
            entry = extra[index]
            index += 1
        if destination._scan_due and not destination.crashed:
            destination.check_guards()

    def __str__(self) -> str:
        label = f"deliver {self.message!r} p{self.src}->p{self.dst}"
        extra = self.extra
        if extra:
            label += f" (+{len(extra)} coalesced)"
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
        same virtual instant share one heap event (the head's ``_Delivery``
        fans the rest out on arrival).  Delivery *times* are unchanged and
        every logical message is still delivered, recorded and accounted
        individually — only the intra-instant delivery interleaving (and the
        number of heap operations) changes.  Off by default so existing
        deployments replay their pinned histories bit for bit; the sharded
        store turns it on (see ``repro.store.StoreConfig.coalesce``).  The
        index behind it exists only where instants can be shared (:meth:`send`).
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
        #: Scope label for perturbation hooks; subnets carry their subnet
        #: name so per-message choices are keyed per deployment (pids are
        #: subnet-local — without the scope, two keys' traffic would share
        #: one choice stream and shrinking one key's schedule would shift
        #: every other key's).
        self.name = ""
        #: Set by :meth:`close`; a closed network (or subnet) rejects sends.
        self.closed = False
        self.stats = NetworkStats()
        self.record_messages = record_messages
        self.coalesce = coalesce
        # Coalescing index: (dst, delivery-time) -> scheduled head delivery.
        # Heads remove themselves when they fire, so the index only ever
        # holds in-flight events and lookups can never hit a stale head.
        self._coalesced: Dict[tuple[int, float], _Delivery] = {}
        self.records: list[MessageRecord] = []
        self._processes: Dict[int, "Process"] = {}
        # Membership is static once built, so it is sorted when it changes
        # (register), not each time a process asks who its peers are.  The
        # list is replaced, never mutated: a reference handed out stays valid.
        self._process_ids: list[int] = []
        self._in_flight = 0  # sent here, not yet delivered or dropped
        # Optional delivery filter: callable(src, dst, message) -> bool.  Used
        # by tests to model adversarial (but still eventually-reliable)
        # schedules; returning False delays the message by re-sampling later.
        self._delivery_hooks: list[Callable[[int, int, Any], None]] = []
        # Link-level fault plane (repro.faults): an object with an
        # ``adjust(src, dst, now, delay) -> float`` method that reshapes the
        # sampled delay per message.  ``None`` (the default) keeps the send
        # path byte-identical to a fault-free run.
        self.link_policy: Optional[Any] = None
        # Schedule-exploration perturbation hook (repro.explore): an object
        # with a ``perturb(src, dst, now, delay) -> float`` method consulted
        # *after* the link policy, once per logical message, in deterministic
        # send order.  Unlike link policies (pure functions), a perturbation
        # may carry state — a seeded RNG that records its choices, or a
        # replayed choice log — which is what makes explored schedules
        # shrinkable and replayable.  Must return finite non-negative delays
        # (channels stay reliable).  ``None`` (the default) adds one branch
        # to the send path and nothing else.
        self.perturbation: Optional[Any] = None
        # Send hooks fire after a message is recorded and scheduled (i.e. the
        # message is already irrevocably in flight).  The message-count crash
        # trigger uses this to kill a sender *immediately* after its k-th
        # send, even mid-broadcast.  Hooks must not mutate the hook list.
        self._send_hooks: list[Callable[[int, int, Any], None]] = []

    # ------------------------------------------------------------ membership

    def register(self, process: "Process") -> None:
        """Attach a process to the network (called by ``Process.__init__``)."""
        if process.pid in self._processes:
            raise ValueError(f"duplicate process id {process.pid}")
        self._processes[process.pid] = process
        self._process_ids = sorted(self._processes)

    @property
    def process_ids(self) -> list[int]:
        """Sorted list of registered process ids (shared; treat as read-only)."""
        return self._process_ids

    def process(self, pid: int) -> "Process":
        """Return the process registered under ``pid``."""
        return self._processes[pid]

    def processes(self) -> list["Process"]:
        """All registered processes, ordered by pid."""
        return [self._processes[pid] for pid in self._process_ids]

    def add_delivery_hook(self, hook: Callable[[int, int, Any], None]) -> None:
        """Register a callback invoked at every delivery (for monitors/tests)."""
        self._delivery_hooks.append(hook)

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
        heap sequence numbers, records, tracer and hook calls), but what does
        not depend on the destination happens once — the closed and
        crashed-sender checks, the price (billed ``len(dst)`` times) and one
        batch of delay draws.  A self or unknown pid anywhere in the sequence
        rejects the whole call: nothing is sent.

        With send hooks installed everything is per message instead: a hook
        sees the accounting as of *its* message and may crash the sender
        mid-list, after which nothing further is billed, drawn or sent.

        One pid on a network with no send hook, link policy, perturbation or
        coalescing index — a reply — is the commonest call and takes the
        per-message part in a straight line, with nothing built around it.

        The coalescing index is consulted only where two deliveries can share
        an instant: the delay model's draws can collide, or a link policy or
        perturbation — which can align instants (a healed partition releases
        everything at the heal time) — is installed.
        """
        if self.closed:
            raise TransportClosedError(
                f"send p{src}->p{dst} on closed network"
                + (f" {self.name!r}" if self.name else "")
            )
        processes = self._processes
        sender = processes.get(src)
        if sender is not None and sender.crashed:
            # A crashed process takes no steps, hence cannot send.
            return
        stats = self.stats
        model = self.delay_model
        hooks = self._send_hooks
        policy = self.link_policy
        perturbation = self.perturbation
        coalesced = None
        if self.coalesce and (
            model.may_collide or policy is not None or perturbation is not None
        ):
            coalesced = self._coalesced
        simulator = self.simulator
        send_time = simulator._now  # .now property, bypassed on the hot path
        tracer = simulator.tracer
        trace = tracer.enabled
        # The delivery record is itself the heap entry, pushed in place: what
        # ``EventQueue.push`` does, minus the frame and the ``time >= 0`` check
        # (``delay >= 0`` is checked below and the clock is never negative).
        queue = simulator._queue
        heap = queue._heap
        counter = queue._counter
        if dst.__class__ is int:
            if dst == src or dst not in processes:
                raise _bad_destination(src, dst)
            delay = model.sample(src, dst)
            if not hooks and policy is None and perturbation is None and coalesced is None:
                # One message that nothing can reshape, observe or share an
                # instant with — every reply of a quorum phase.  This is the
                # loop below for one destination with the branches that
                # cannot be taken left out: a reply costs no more than one
                # copy of a multicast.
                control, data = stats.record_send(src, message)
                self._in_flight += 1
                if delay < 0:
                    raise ValueError(f"delay model produced negative delay {delay}")
                if trace:
                    tracer.record(send_time, "send", src, dst, message)
                time = send_time + delay
                delivery = _Delivery(self, src, dst, message, send_time, time, control, data)
                heappush(heap, (time, next(counter), delivery))
                queue._live += 1
                return
            dsts, delays = (dst,), (delay,)
        else:
            dsts = dst
            if not dsts:
                return
            for dst in dsts:
                if dst == src or dst not in processes:
                    raise _bad_destination(src, dst)
            if hooks:
                delays = (model.sample(src, dst) for dst in dsts)  # drawn as the loop advances
            else:
                delays = model.sample_many(src, dsts)
        if not hooks:
            count = len(dsts)
            control, data = stats.record_send(src, message, count)
            self._in_flight += count
        for dst, delay in zip(dsts, delays):
            if hooks:
                control, data = stats.record_send(src, message)
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
            if perturbation is not None:
                delay = perturbation.perturb(self.name, src, dst, send_time, delay)
                if not 0.0 <= delay < _INF:
                    raise ValueError(
                        f"perturbation produced invalid delay {delay} for p{src}->p{dst}; "
                        "perturbations must preserve reliability (finite, non-negative delays)"
                    )
            if trace:
                tracer.record(send_time, "send", src, dst, message)
            time = send_time + delay
            delivery = _Delivery(self, src, dst, message, send_time, time, control, data)
            if coalesced is None:
                heappush(heap, (time, next(counter), delivery))
                queue._live += 1
            else:
                key = (dst, time)
                head = coalesced.get(key)
                if head is None:
                    delivery.key = key
                    coalesced[key] = delivery
                    heappush(heap, (time, next(counter), delivery))
                    queue._live += 1
                else:
                    extra = head.extra
                    if extra is None:
                        head.extra = [delivery]
                    else:
                        extra.append(delivery)
                    stats.messages_coalesced += 1
            if hooks:
                for hook in hooks:
                    hook(src, dst, message)
                if sender is not None and sender.crashed:
                    break

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
        longer immortal.  Idempotent.
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
            delay_model=parent.delay_model,
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
        # policy over replica indices applies uniformly to every key.
        self.link_policy = parent.link_policy
        # The perturbation hook is deployment-wide for the same reason: a
        # schedule explorer must see (and be able to reshape) every key's
        # traffic through one shared choice stream.
        self.perturbation = parent.perturbation
        self._send_hooks = parent._send_hooks
