"""Transport abstraction: the seam between register algorithms and the wire.

Every register algorithm in this repository is written against two small
structural interfaces — :class:`~repro.transport.base.Clock` (time and
timers) and :class:`~repro.transport.base.Transport` (point-to-point message
passing with delivery callbacks) — plus the
:class:`~repro.transport.runtime.ProcessBase` runtime that hosts protocol
processes on top of them.  Two backends implement the interfaces:

* :mod:`repro.sim` — the virtual-time discrete-event simulator
  (deterministic, seeded; the home of coalescing, link policies, the fault
  plane and the delivery chooser).  ``Simulator`` / ``Network`` satisfy the
  interfaces structurally, without inheriting from them.
* :mod:`repro.transport.live` — real asyncio TCP sockets on a loopback
  multi-process cluster (wall-clock time; measures real latencies).

The algorithms themselves never know which one they ride.
"""

from repro.transport.base import (
    TRANSPORTS,
    Clock,
    Transport,
    TransportClosedError,
    TransportInfo,
    available_transports,
    get_transport_info,
)
from repro.transport.runtime import Guard, ProcessBase, ProcessCrashedError

__all__ = [
    "TRANSPORTS",
    "Clock",
    "Guard",
    "ProcessBase",
    "ProcessCrashedError",
    "Transport",
    "TransportClosedError",
    "TransportInfo",
    "available_transports",
    "get_transport_info",
]
