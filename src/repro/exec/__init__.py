"""Unified execution engine: one driver for registers and the KV store.

This package owns operation driving end-to-end:

* :mod:`repro.exec.target` — :class:`StoreTarget` answers the driver's
  routing question (which replica of which key) for a sharded store;
* :mod:`repro.exec.driver` — the :class:`Driver`: per-process FIFO queueing,
  completion chaining, stuck detection;
* :mod:`repro.exec.clients` — the one client, :class:`OpenLoopClient`:
  entries fire at seeded times, or chained per process (:class:`After`);
* :mod:`repro.exec.oplog` — the :class:`~repro.exec.oplog.OpLog`: the one
  record of a run, a row per operation, written as the driver goes;
* :mod:`repro.exec.metrics` — :class:`MetricsCollector`: a read-only view
  over an op log (latency percentiles, throughput) plus the message bill.

Every simulated run drives its operations through this engine via
:func:`repro.workloads.kv.drive_script`; the store and the workloads contain
no driving logic of their own.
"""

from repro.exec.clients import ARRIVAL_PROCESSES, After, OpenLoopClient
from repro.exec.driver import Driver
from repro.exec.metrics import MetricsCollector
from repro.exec.target import OpRequest, StoreTarget

__all__ = [
    "ARRIVAL_PROCESSES",
    "After",
    "Driver",
    "MetricsCollector",
    "OpenLoopClient",
    "OpRequest",
    "StoreTarget",
]
