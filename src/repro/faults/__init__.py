"""The fault plane: crashes and adversarial network conditions.

The simulator's model (DESIGN §1) gives reliable but *asynchronous*
channels — delays are finite yet unbounded — and up to ``t < n/2`` crashed
processes.  This package makes both halves of the adversary declarative:

* :class:`CrashPoint` — the one crash type: which replica of which shard
  crashes, at a virtual time or after its k-th send.  A register is shard 0
  and its pids are the replicas.  :func:`validate_crash_points` checks a set
  against the model when a spec is built; :func:`install_crash_points` is
  the one installer (the store's ``deploy_store`` / ``crash_server_at`` and
  the register cluster builder call it); :func:`random_crash_points` draws a
  seeded minority;
* :class:`LinkPolicy` / :class:`CompositeLinkPolicy` — the per-``(src, dst)``
  hook :meth:`~repro.sim.network.Network.send` consults;
* :class:`PartitionWindow` / :class:`PartitionSchedule` — splits with
  *mandatory finite heal times* (reliability preserved by construction);
* :class:`DelayStorm` / :func:`asymmetric_link` — finite-window slowdowns;
* :class:`FaultPlan` — link policies, installed through
  :class:`~repro.workloads.spec.WorkloadSpec.fault_plan`,
  :class:`~repro.workloads.kv.KVWorkloadSpec.fault_plan` or
  :meth:`~repro.store.store.KVStore.install_fault_plan`;
* adversarial strategies — :func:`slow_the_writer`,
  :func:`majority_minority_split`, :func:`random_fault_plan` (the seeded
  chaos family the ``repro chaos`` sweep explores).
"""

from repro.faults.adversary import (
    majority_minority_split,
    random_crash_points,
    random_fault_plan,
    slow_the_writer,
)
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import (
    CompositeLinkPolicy,
    CrashPoint,
    FaultPlan,
    LinkPolicy,
    install_crash_points,
    validate_crash_points,
)
from repro.faults.storms import DelayStorm, asymmetric_link

__all__ = [
    "CompositeLinkPolicy",
    "CrashPoint",
    "DelayStorm",
    "FaultPlan",
    "LinkPolicy",
    "PartitionSchedule",
    "PartitionWindow",
    "asymmetric_link",
    "install_crash_points",
    "majority_minority_split",
    "random_crash_points",
    "random_fault_plan",
    "slow_the_writer",
    "validate_crash_points",
]
