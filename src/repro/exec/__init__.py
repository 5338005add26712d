"""Unified execution engine: one driver for registers and the KV store.

This package owns operation driving end-to-end:

* :mod:`repro.exec.target` — :class:`StoreTarget` answers the driver's
  routing question (which replica of which key) for a sharded store;
* :mod:`repro.exec.driver` — the :class:`Driver`: per-process FIFO queueing,
  completion chaining, stuck detection;
* :mod:`repro.exec.clients` — traffic models: closed-loop (scripted, think
  times), isolated (Table-1 attribution), open-loop (seeded Poisson/uniform
  arrivals);
* :mod:`repro.exec.metrics` — :class:`MetricsCollector`: latency percentiles,
  virtual-time throughput, per-kind message attribution.

Both :mod:`repro.workloads.runner` and :mod:`repro.store` drive every
operation through this engine; they contain no driving logic of their own.
"""

from repro.exec.clients import (
    ARRIVAL_PROCESSES,
    ClosedLoopClient,
    IsolatedClient,
    IsolatedOpCost,
    OpenLoopClient,
    arrival_times,
    poisson_arrival_times,
    uniform_arrival_times,
)
from repro.exec.driver import Driver, ExecOp
from repro.exec.metrics import MetricsCollector
from repro.exec.target import OpRequest, StoreTarget

__all__ = [
    "ARRIVAL_PROCESSES",
    "ClosedLoopClient",
    "Driver",
    "ExecOp",
    "IsolatedClient",
    "IsolatedOpCost",
    "MetricsCollector",
    "OpenLoopClient",
    "OpRequest",
    "StoreTarget",
    "arrival_times",
    "poisson_arrival_times",
    "uniform_arrival_times",
]
