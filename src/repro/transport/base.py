"""Structural interfaces every transport backend satisfies.

The interfaces are :class:`typing.Protocol` classes, not abstract base
classes: the virtual-time :class:`~repro.sim.scheduler.Simulator` and
:class:`~repro.sim.network.Network` already satisfy them without
inheritance, so the simulated backend pays no adapter tax and existing
seeded runs stay byte-identical.  The live backend
(:mod:`repro.transport.live`) implements the same shapes over asyncio TCP.

What the interfaces deliberately leave out — message coalescing, link
policies (the fault plane), the delivery chooser — are *simulated-only*
capabilities: they exist to explore adversarial schedules deterministically
and have no faithful wall-clock analogue (crash points run on both: a live
replica is killed).  Protocol code never touches them; only the harness
layer (explore) does, and it runs on the simulator by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, Sequence, Union, runtime_checkable


class TransportClosedError(RuntimeError):
    """Raised when a send is attempted on a closed transport or subnet."""


@runtime_checkable
class Clock(Protocol):
    """Time source and timer service.

    The simulator implements this over virtual time (``now`` advances only
    when events fire); the live backend implements it over the asyncio event
    loop's monotonic wall clock.  ``schedule_at``/``schedule_after`` return
    an opaque timer handle accepted by ``cancel``.
    """

    @property
    def now(self) -> float:
        """Current time in this clock's units (virtual units or seconds)."""
        ...

    def schedule_at(self, time: float, action: Callable[[], None], label: Any = "") -> Any:
        """Run ``action`` at absolute time ``time``; returns a cancellable handle."""
        ...

    def schedule_after(self, delay: float, action: Callable[[], None], label: Any = "") -> Any:
        """Run ``action`` after ``delay`` time units; returns a cancellable handle."""
        ...

    def cancel(self, handle: Any) -> None:
        """Cancel a scheduled timer (idempotent)."""
        ...


@runtime_checkable
class DrivableClock(Clock, Protocol):
    """A clock that can also *drive* execution to a condition.

    The unified driver (:class:`~repro.exec.driver.Driver`) needs slightly
    more than timers: it runs the loop until a predicate holds and detects
    stuck runs by inspecting the pending-event count.  The virtual-time
    simulator offers both natively; the live backend drives execution with
    asyncio instead, so its :class:`~repro.transport.live.WallClock` is a
    plain :class:`Clock`.
    """

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-unfired events."""
        ...

    def run_until(self, predicate: Optional[Callable[[], bool]], limit: Any = None) -> bool:
        """Advance until ``predicate()`` holds; False if ``limit`` hit first.

        Without a predicate: until an event calls ``stop()``.
        """
        ...

    def stop(self) -> None:
        """Ask the running loop to return after the current event."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Point-to-point message passing between numbered processes.

    Delivery is asynchronous (no bound on delay), reliable between correct
    processes, and not necessarily FIFO — the model of the paper and of
    Aspnes's notes.  Processes register themselves at construction time via
    ``register``; the transport calls ``process.deliver(src, message)`` when
    a message arrives.
    """

    @property
    def process_ids(self) -> Sequence[int]:
        """Ids of all processes in the system (static membership)."""
        ...

    @property
    def stats(self) -> Any:
        """Message accounting (a :class:`~repro.sim.network.NetworkStats`)."""
        ...

    def register(self, process: Any) -> None:
        """Attach a process so it can receive deliveries."""
        ...

    def send(self, src: int, dst: Union[int, Sequence[int]], message: Any) -> None:
        """Send ``message`` from ``src`` to ``dst`` — one pid, or a sequence of pids.

        A sequence is "send to every ``p_j`` such that…": the loop of single
        sends in list order, done as one call.  No self-sends.
        """
        ...

    def close(self) -> None:
        """Tear the transport down; subsequent sends raise ``TransportClosedError``."""
        ...


@dataclass(frozen=True)
class TransportInfo:
    """Registry entry describing one transport backend (``repro transports``)."""

    name: str
    description: str
    clock: str
    deterministic: bool
    sim_only_features: str


TRANSPORTS: dict[str, TransportInfo] = {
    "sim": TransportInfo(
        name="sim",
        description=(
            "virtual-time discrete-event simulator (deterministic, seeded; "
            "single process)"
        ),
        clock="virtual time units",
        deterministic=True,
        sim_only_features="coalescing, link policies / fault plane, delivery chooser",
    ),
    "live": TransportInfo(
        name="live",
        description=(
            "asyncio TCP sockets over a loopback multi-process cluster "
            "(length-prefixed frames; one struct-packed wire codec, a schema-"
            "signature mismatch is refused at the handshake; one coalescing "
            "writer per connection, TCP_NODELAY; --workers N client processes; "
            "wall-clock metrics)"
        ),
        clock="wall-clock seconds",
        deterministic=False,
        sim_only_features="none (crash points kill replicas; fault plans etc. stay sim-only)",
    ),
}


def available_transports() -> list[str]:
    """Names of the registered transport backends."""
    return list(TRANSPORTS)


def get_transport_info(name: str) -> TransportInfo:
    """Look up one backend's registry entry; raises ``KeyError`` with choices."""
    try:
        return TRANSPORTS[name]
    except KeyError:
        raise KeyError(
            f"unknown transport {name!r}; choose from {available_transports()}"
        ) from None


def validate_transport(name: str) -> str:
    """Validate a transport name (for config dataclasses); returns it unchanged."""
    if name not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {name!r}; choose from {available_transports()}"
        )
    return name
