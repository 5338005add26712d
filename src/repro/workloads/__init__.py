"""Workload generation and execution.

A *workload* is a script of operations plus the environment it runs in
(delay model, crash schedule, seed); every simulated one is driven by the
one loop, :func:`repro.workloads.kv.drive_script`.  The package provides:

* :mod:`repro.workloads.spec` — the declarative register :class:`WorkloadSpec`
  (who writes what, who reads, think times, start delays, isolated mode) and
  its one-key script, :meth:`WorkloadSpec.script` (seeded, reproducible,
  distinct written values);
* :mod:`repro.workloads.runner` — :func:`deploy_register`: the register as
  the one key of a one-shard store (a :class:`RegisterCluster`), and
  :func:`run_workload`: that script driven on it, the same
  :class:`KVWorkloadResult` back;
* :mod:`repro.workloads.scenarios` — canned scenarios used by examples,
  integration tests and the ablation benchmarks (read-dominated store,
  crash storms, isolated-operation latency probes, keyed store mixes, ...);
* :mod:`repro.workloads.kv` — keyed (multi-register) workloads driving the
  sharded :class:`~repro.store.store.KVStore`: the declarative
  :class:`KVWorkloadSpec` (uniform / Zipfian key popularity), the operation
  generator, :func:`run_kv_workload`, and the drive loop itself.
"""

from repro.workloads.kv import (
    CrashPoint,
    KVOp,
    KVWorkloadResult,
    KVWorkloadSpec,
    generate_kv_arrivals,
    generate_kv_operations,
    run_kv_workload,
)
from repro.workloads.runner import RegisterCluster, deploy_register, run_workload
from repro.workloads.spec import REGISTER_KEY, WorkloadSpec

__all__ = [
    "CrashPoint",
    "KVOp",
    "KVWorkloadResult",
    "KVWorkloadSpec",
    "REGISTER_KEY",
    "RegisterCluster",
    "WorkloadSpec",
    "deploy_register",
    "generate_kv_arrivals",
    "generate_kv_operations",
    "run_kv_workload",
    "run_workload",
]
