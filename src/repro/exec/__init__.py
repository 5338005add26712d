"""Unified execution engine: one driver for registers and the KV store.

This package owns operation driving end-to-end:

* :mod:`repro.exec.target` — :class:`StoreTarget` answers the driver's
  routing question (which replica of which key) for a sharded store;
* :mod:`repro.exec.driver` — the :class:`Driver`: per-process FIFO queueing,
  completion chaining, stuck detection;
* :mod:`repro.exec.clients` — traffic models: closed-loop (scripted, think
  times), isolated (Table-1 attribution), open-loop (seeded Poisson/uniform
  arrivals);
* :mod:`repro.exec.oplog` — the :class:`~repro.exec.oplog.OpLog`: the one
  record of a run, a row per operation, written as the driver goes;
* :mod:`repro.exec.metrics` — :class:`MetricsCollector`: a read-only view
  over an op log (latency percentiles, throughput) plus the message bill.

Both :mod:`repro.workloads.runner` and :mod:`repro.store` drive every
operation through this engine; they contain no driving logic of their own.
"""

from repro.exec.clients import (
    ARRIVAL_PROCESSES,
    ClosedLoopClient,
    IsolatedClient,
    IsolatedOpCost,
    OpenLoopClient,
)
from repro.exec.driver import Driver
from repro.exec.metrics import MetricsCollector
from repro.exec.target import OpRequest, StoreTarget

__all__ = [
    "ARRIVAL_PROCESSES",
    "ClosedLoopClient",
    "Driver",
    "IsolatedClient",
    "IsolatedOpCost",
    "MetricsCollector",
    "OpenLoopClient",
    "OpRequest",
    "StoreTarget",
]
