"""Run a register workload: the keyed pipeline with one key.

>>> from repro.workloads import WorkloadSpec, run_workload
>>> result = run_workload(WorkloadSpec(n=5, algorithm="two-bit", num_writes=5))
>>> result.verify().ok                # clean finish, atomic, lemmas intact
True
>>> result.latencies(OperationKind.WRITE)     # in delta units
[2.0, 2.0, 2.0, 2.0, 2.0]

A register is the one-key case of the sharded store, so the runner deploys
:meth:`WorkloadSpec.store_config` (one shard, ``replication = n``), takes the
processes of :data:`~repro.workloads.spec.REGISTER_KEY` and drives them
through :mod:`repro.exec`; what comes back is the
:class:`~repro.workloads.kv.KVWorkloadResult` every keyed run returns.

* **concurrent (default)** — every scripted process runs a
  :class:`~repro.exec.clients.ClosedLoopClient` (next operation as soon as
  the previous one completes, plus think time), so writers and readers
  overlap freely: the mode for correctness testing under contention.
* **isolated** (``spec.isolated_operations``) — an
  :class:`~repro.exec.clients.IsolatedClient` issues operations one at a
  time, globally, draining to quiescence after each, so latency and message
  counts are exactly attributable (``result.isolated_costs``): how the
  Table-1 rows are measured.
"""

from __future__ import annotations

import time

from repro.core.invariants import attach_monitor
from repro.core.process import TwoBitRegisterProcess
from repro.exec.clients import ClosedLoopClient, IsolatedClient
from repro.registers.registry import get_algorithm
from repro.workloads.generator import generate_scripts, interleave_isolated
from repro.workloads.kv import KVWorkloadResult, deploy_store
from repro.workloads.spec import REGISTER_KEY, WorkloadSpec


def run_workload(spec: WorkloadSpec) -> KVWorkloadResult:
    """Execute ``spec`` and return the collected :class:`KVWorkloadResult`."""
    if spec.multi_writer and not get_algorithm(spec.algorithm).supports_multi_writer:
        raise ValueError(f"algorithm {spec.algorithm!r} does not support multiple writers")
    store = deploy_store(spec.store_config(), spec.fault_plan, spec.crash_points)
    register = store.register_for(REGISTER_KEY)
    # A lone register draws from the store's root delay stream (per-key
    # scoping exists to decouple *several* keys), so a seeded delay model
    # gives the execution it always gave.
    register.subnet.delay_model = store.network.delay_model
    processes = register.processes
    monitor = None
    if spec.check_invariants and all(isinstance(p, TwoBitRegisterProcess) for p in processes):
        monitor = attach_monitor(store.simulator, processes, writer_pid=0)

    scripts = generate_scripts(spec)
    isolated_costs = []
    started = time.perf_counter()
    if spec.isolated_operations:
        client = IsolatedClient(
            store.driver, store.network, spec.max_virtual_time, key=REGISTER_KEY
        )
        clean = client.run_sequence(
            [
                (processes[pid], scripted.kind, scripted.value)
                for pid, scripted in interleave_isolated(scripts, spec.seed)
            ]
        )
        isolated_costs = client.costs
    else:
        clients = [
            ClosedLoopClient(
                store.driver,
                processes[pid],
                [(op.kind, op.value, op.think_time) for op in script.operations],
                start_delay=script.start_delay,
                key=REGISTER_KEY,
            )
            for pid, script in scripts.items()
        ]
        for client in clients:
            client.start()
        # A client is done when it has nothing left to issue and its last
        # operation completed (or its process crashed).  The limit is the
        # heal-aware horizon when a fault plan is installed.
        limit = store.driver.fault_horizon or spec.max_virtual_time
        clean = store.simulator.run_until(
            lambda: all(client.done for client in clients), limit=limit
        )
        # Drain the tail: forwarded WRITE messages, PROCEEDs in flight, etc.
        store.simulator.run(until=limit)
    return KVWorkloadResult(
        spec=spec,
        oplog=store.oplog,
        ops=store.ops,
        wall_seconds=time.perf_counter() - started,
        metrics=store.metrics_snapshot(),
        store=store,
        virtual_makespan=store.simulator.now,
        finished_cleanly=clean,
        monitor=monitor,
        isolated_costs=isolated_costs,
    )
