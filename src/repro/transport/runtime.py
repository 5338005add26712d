"""Process runtime: message handling, guards, crash semantics.

This is the transport-agnostic half of the execution model.  A
:class:`ProcessBase` is a sequential protocol process attached to any
:class:`~repro.transport.base.Transport`; it receives deliveries, sends
messages, and expresses the paper's blocking ``wait(predicate)``
statements (lines 3, 7, 9, 11 and 20 of Figure 1) as **guards**: a guard is
a ``(predicate, action)`` pair registered on a process.  A handler that moves
state a pending guard reads says so (``self._scan_due = True``); the delivery
that ran it then re-evaluates all pending guards and those whose predicate
holds fire their action exactly once.  This gives the same semantics as the
pseudocode: the continuation runs as soon as the awaited condition becomes
true, and never before — on the virtual-time simulator and on live sockets
alike, because guard evaluation is driven by deliveries, not by the clock.
A handler that moved nothing a wait reads costs no scan.

Crash semantics: :meth:`ProcessBase.crash` flips a flag; from then on the
process neither processes deliveries nor fires guards nor sends messages.
This matches the paper's crash model — a faulty process "executes correctly
its local algorithm until it possibly crashes", then halts.  (On the live
backend a fired crash point crashes every process of its replica this way,
while the replica process stays up to bill and answer for them; fault plans
stay simulated-only.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # structural types only; no backend import at runtime
    from repro.transport.base import Clock, Transport


class ProcessCrashedError(RuntimeError):
    """Raised when protocol code tries to run an operation on a crashed process."""


def render_label(label: Any) -> str:
    """A diagnostic label as text: a ``(format, *args)`` tuple is ``%``-formatted.

    Waits, phases and timers are labelled for the report a stuck run prints;
    registering the tuple instead of the string means a label that is never
    read never pays for formatting.
    """
    return label[0] % label[1:] if isinstance(label, tuple) else str(label)


class Guard:
    """A pending wait: ``action`` fires once when ``predicate`` becomes true.

    Attributes
    ----------
    predicate:
        Zero-argument callable evaluated after every state change.
    action:
        Zero-argument callable executed (once) when the predicate holds.
    label:
        Diagnostic tag (shows up in stuck-run failure reasons).  Registered
        as a string or as a lazy ``(format, *args)`` tuple (:func:`render_label`).
    """

    __slots__ = ("predicate", "action", "_label", "fired")

    def __init__(
        self, predicate: Callable[[], bool], action: Callable[[], None], label: Any = ""
    ) -> None:
        self.predicate = predicate
        self.action = action
        self._label = label
        self.fired = False

    @property
    def label(self) -> str:
        return render_label(self._label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "pending"
        return f"Guard({self.label!r}, {state})"


class ProcessBase:
    """A sequential process attached to a :class:`~repro.transport.base.Transport`.

    Subclasses implement :meth:`on_message` (and usually expose operation
    entry points that the workload runner invokes).  The base class provides:

    * :meth:`send` — outbound messaging, to one process or to many (no self-sends);
    * :meth:`deliver` — inbound dispatch, ignored after a crash;
    * :meth:`add_guard` / :meth:`check_guards` — the wait mechanism, scanned
      when a handler set ``_scan_due`` (it moved state a pending guard reads);
    * :meth:`crash` — halt the process.

    The constructor keeps the historical parameter names ``simulator`` and
    ``network`` (every factory in the repo passes them by keyword); the
    attributes ``clock`` and ``transport`` alias them for code written
    against the abstraction.
    """

    def __init__(self, pid: int, simulator: "Clock", network: "Transport") -> None:
        if pid < 0:
            raise ValueError(f"process id must be non-negative, got {pid}")
        self.pid = pid
        self.simulator = simulator
        self.network = network
        self.crashed = False
        self.crash_time: Optional[float] = None
        self._guards: list[Guard] = []
        #: State a pending guard reads has moved since the last scan: set by
        #: the handler that moved it, cleared by :meth:`check_guards` (sticky:
        #: a coalesced batch runs its handlers back to back, then scans once).
        self._scan_due = False
        network.register(self)

    # ------------------------------------------------------------------ misc

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}(pid={self.pid}, {state})"

    @property
    def clock(self) -> "Clock":
        """The clock this process runs on (alias of ``simulator``)."""
        return self.simulator

    @property
    def transport(self) -> "Transport":
        """The transport this process rides (alias of ``network``)."""
        return self.network

    @property
    def now(self) -> float:
        """Current time (convenience passthrough)."""
        return self.simulator.now

    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return len(self.network.process_ids)

    def other_process_ids(self) -> list[int]:
        """Ids of all processes except this one."""
        return [pid for pid in self.network.process_ids if pid != self.pid]

    # ------------------------------------------------------------------ send

    def send(self, dst: Union[int, Sequence[int]], message: Any) -> None:
        """Send a message to ``dst`` — one pid, or every pid of a sequence, in order.

        Dropped silently if this process crashed.
        """
        if self.crashed:
            return
        self.network.send(self.pid, dst, message)

    # --------------------------------------------------------------- deliver

    def deliver(self, src: int, message: Any) -> None:
        """Entry point used by the transport when a message arrives."""
        if self.crashed:
            return
        self.on_message(src, message)
        if self._scan_due:  # skip the call when no wait can have come true
            self.check_guards()

    def on_message(self, src: int, message: Any) -> None:
        """Handle one delivered message.  Subclasses must override, and set
        ``self._scan_due = True`` when they move state a pending guard reads."""
        raise NotImplementedError

    # ---------------------------------------------------------------- guards

    def add_guard(
        self,
        predicate: Callable[[], bool],
        action: Callable[[], None],
        label: Any = "",
    ) -> Optional[Guard]:
        """Register a wait; ``action`` fires once, as soon as ``predicate`` holds.

        If the predicate already holds, the action fires immediately (before
        returning), mirroring a ``wait`` statement whose condition is already
        satisfied — nothing is left pending, so no :class:`Guard` is built
        and ``None`` is returned.  ``label`` is a string or a lazily rendered
        ``(format, *args)`` tuple (see :class:`Guard`).  A crashed process's
        wait never fires: its :class:`Guard` sits in no list.
        """
        if self.crashed:
            return Guard(predicate, action, label)
        if predicate():
            action()
            if self._guards:
                self.check_guards()
            return None
        guard = Guard(predicate, action, label)
        self._guards.append(guard)
        return guard

    def check_guards(self) -> None:
        """Re-evaluate pending guards; fire (once) those whose predicate holds.

        Firing a guard can change state and thereby enable other guards, so
        the scan repeats until it completes a pass with no firing.  A pass
        that fires nothing — the common one — reads the list in place; only
        once a guard is about to fire (its action may add guards, or crash
        the process and clear them) does the rest of the pass run
        over a snapshot.  At the fixpoint nothing is due any more, whatever
        the actions moved on the way.
        """
        while self._guards and not self.crashed:
            guards = self._guards
            for index, guard in enumerate(guards):
                if not guard.fired and guard.predicate():
                    break
            else:
                break
            rest = guards[index + 1 :]
            guard.fired = True
            guard.action()
            for guard in rest:
                if guard.fired:
                    continue
                if guard.predicate():
                    guard.fired = True
                    guard.action()
            self._guards = [g for g in self._guards if not g.fired]
        self._scan_due = False

    def pending_guards(self) -> list[Guard]:
        """Currently pending (unfired) guards — for diagnostics."""
        return [g for g in self._guards if not g.fired]

    def waiting_on(self) -> list[str]:
        """What this process is blocked on, for stuck-run reports.

        The default names the pending guards' labels; a process that waits
        without guards (the consensus replicas) overrides it.  Rendered only
        when asked, so a wait that is never diagnosed costs nothing.
        """
        labels = (guard.label for guard in self.pending_guards())
        return [label for label in labels if label]

    # ----------------------------------------------------------------- crash

    def crash(self) -> None:
        """Halt the process: no further sends, deliveries, or guard firings."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_time = self.simulator.now
        self._guards.clear()

    def require_alive(self, operation: str) -> None:
        """Raise :class:`ProcessCrashedError` if the process has crashed."""
        if self.crashed:
            raise ProcessCrashedError(
                f"cannot invoke {operation} on crashed process p{self.pid}"
            )

    # ----------------------------------------------------- memory accounting

    def local_memory_words(self) -> int:
        """Approximate count of local-state words held by this process.

        Subclasses override this to report the quantities Table 1 line 4
        compares (history length, sequence-number arrays, ...).  The base
        implementation reports zero.
        """
        return 0
