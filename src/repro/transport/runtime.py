"""Process runtime: message handling, the release hook, crash semantics.

This is the transport-agnostic half of the execution model.  A
:class:`ProcessBase` is a sequential protocol process attached to any
:class:`~repro.transport.base.Transport`; it receives deliveries and sends
messages.  The paper's blocking ``wait(predicate)`` statements are the
subclasses' own state: a count or a threshold that the one handler line
moving the awaited entry checks (the two-bit process's lines 18 and 22, the
quorum engine's ``phase_reply``).  A handler that makes a wait hold and
cannot fire it in its own frame says so (``self._scan_due = True``); the
delivery that ran it — or the coalesced batch, after its last handler —
then calls :meth:`ProcessBase.check_guards`, the subclass's release.  The
continuation thus runs as soon as the awaited condition becomes true, and
never before — on the virtual-time simulator and on live sockets alike,
because releases are driven by deliveries, not by the clock.  A handler
that made nothing hold costs no release.

Crash semantics: :meth:`ProcessBase.crash` flips a flag; from then on the
process neither processes deliveries nor releases waits nor sends messages.
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


class ProcessBase:
    """A sequential process attached to a :class:`~repro.transport.base.Transport`.

    Subclasses implement :meth:`on_message` (and usually expose operation
    entry points that the workload runner invokes).  The base class provides:

    * :meth:`send` — outbound messaging, to one process or to many (no self-sends);
    * :meth:`deliver` — inbound dispatch, ignored after a crash, then the
      release (:meth:`check_guards`) if a handler set ``_scan_due``;
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
        #: A handler made a wait hold since the last release: set by that
        #: handler, cleared by :meth:`check_guards` (sticky: a coalesced batch
        #: runs its handlers back to back, then releases once).
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
        ``self._scan_due = True`` when they make a wait hold that
        :meth:`check_guards` fires."""
        raise NotImplementedError

    # ---------------------------------------------------------------- waits

    def add_guard(
        self, predicate: Callable[[], bool], action: Callable[[], None], label: Any = ""
    ) -> None:
        """Refused: a process keeps its waits as its own state.

        The name stays while the benchmark ledger patches it (ROADMAP item
        16(b) removes it with ``check_guards``).
        """
        raise NotImplementedError(
            f"{type(self).__name__}.add_guard: ProcessBase keeps no generic wait list "
            "(ROADMAP item 16(b)); keep the wait as state the handler that moves it "
            "checks, and release it in check_guards"
        )

    def check_guards(self) -> None:
        """Release the waits a handler made hold (``_scan_due``).

        :class:`ProcessBase` holds none, so it only clears the flag; a
        subclass whose handlers set it overrides this.
        """
        self._scan_due = False

    def waiting_on(self) -> list[str]:
        """What this process is blocked on, for stuck-run reports.

        A process that waits overrides this with its waits' labels, rendered
        only when asked, so a wait that is never diagnosed costs nothing.
        """
        return []

    # ----------------------------------------------------------------- crash

    def crash(self) -> None:
        """Halt the process: no further sends, deliveries, or releases."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_time = self.simulator.now

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
