"""Workload generation and execution.

A *workload* is a per-process script of register operations (who writes what,
who reads, with which think times) plus the environment it runs in (delay
model, crash schedule, seed).  The package provides:

* :mod:`repro.workloads.spec` — the declarative :class:`WorkloadSpec`;
* :mod:`repro.workloads.generator` — turning a spec into concrete per-process
  operation scripts (seeded, reproducible, distinct written values);
* :mod:`repro.workloads.runner` — :func:`deploy_register`: the register as
  the one key of a one-shard store (a :class:`RegisterCluster`), and
  :func:`run_workload`: closed-loop (or isolated) clients driven through
  their scripts on it, the same :class:`KVWorkloadResult` back;
* :mod:`repro.workloads.scenarios` — canned scenarios used by examples,
  integration tests and the ablation benchmarks (read-dominated store,
  crash storms, isolated-operation latency probes, keyed store mixes, ...);
* :mod:`repro.workloads.kv` — keyed (multi-register) workloads driving the
  sharded :class:`~repro.store.store.KVStore`: the declarative
  :class:`KVWorkloadSpec` (uniform / Zipfian key popularity), the operation
  generator, and :func:`run_kv_workload` with its batched submission loop.
"""

from repro.workloads.generator import ClientScript, ScriptedOperation, generate_scripts
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
    "ClientScript",
    "CrashPoint",
    "KVOp",
    "KVWorkloadResult",
    "KVWorkloadSpec",
    "REGISTER_KEY",
    "RegisterCluster",
    "ScriptedOperation",
    "WorkloadSpec",
    "deploy_register",
    "generate_kv_arrivals",
    "generate_kv_operations",
    "generate_scripts",
    "run_kv_workload",
    "run_workload",
]
