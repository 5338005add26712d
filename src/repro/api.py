"""High-level public API.

Five entry points cover the common uses:

* :func:`create_register` — "give me a simulated ``n``-process register I can
  read and write from Python" (returns a
  :class:`~repro.core.register.RegisterCluster`);
* :func:`create_store` (re-exported from :mod:`repro.store`) — a sharded
  multi-key store composing one register per key behind a ``get``/``put``
  facade, with batched submission (returns a :class:`KVStore`);
* :func:`run_workload` (re-exported from :mod:`repro.workloads.runner`) —
  execute a declarative register workload: the keyed pipeline below with
  one key, same result type;
* :func:`run_exploration` (re-exported from :mod:`repro.explore`) —
  schedule exploration: seeded schedule search + per-key linearizability
  checking + shrinking violations to replayable counterexample artifacts;
* :func:`build_table1` (re-exported from :mod:`repro.analysis.table1`) —
  regenerate the paper's evaluation table.

Keyed store *workloads* have one entry point of their own,
:func:`repro.workloads.kv.run_kv_workload` — ``spec → result`` on every
backend (serial simulation, ``workers=N`` shard-parallel — also re-exported
here as :func:`run_kv_workload_parallel` —, ``transport="live"`` sockets),
always a :class:`~repro.workloads.kv.KVWorkloadResult` whose ``verify()``
returns the run's one verdict and whose ``summary()`` is what the CLI
renders (DESIGN.md §6c, "The run pipeline").

Everything these wrap is public too; see DESIGN.md for the package map.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis.table1 import Table1, build_table1
from repro.core.register import RegisterCluster, build_cluster
from repro.explore import ExploreConfig, replay_artifact, run_exploration
from repro.parallel import check_histories_parallel, run_kv_workload_parallel
from repro.registers.registry import available_algorithms, get_algorithm
from repro.sim.delays import DelayModel
from repro.sim.failures import CrashSchedule
from repro.store.store import KVStore, StoreConfig, create_store
from repro.workloads.kv import KVWorkloadResult
from repro.workloads.runner import run_workload
from repro.workloads.scenarios import available_scenarios, get_scenario
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "ExploreConfig",
    "KVStore",
    "KVWorkloadResult",
    "RegisterCluster",
    "StoreConfig",
    "Table1",
    "WorkloadSpec",
    "available_algorithms",
    "available_scenarios",
    "build_table1",
    "check_histories_parallel",
    "create_register",
    "create_store",
    "get_scenario",
    "replay_artifact",
    "run_exploration",
    "run_kv_workload_parallel",
    "run_workload",
]


def create_register(
    n: int = 5,
    algorithm: str = "two-bit",
    writer_pid: int = 0,
    initial_value: Any = None,
    delay_model: Optional[DelayModel] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    check_invariants: bool = False,
) -> RegisterCluster:
    """Create a simulated ``n``-process register running ``algorithm``.

    Parameters are :func:`repro.core.register.build_cluster`'s, for any
    algorithm in the registry (``available_algorithms()``).
    """
    return build_cluster(
        get_algorithm(algorithm),
        n,
        writer_pid=writer_pid,
        initial_value=initial_value,
        delay_model=delay_model,
        crash_schedule=crash_schedule,
        check_invariants=check_invariants,
    )
