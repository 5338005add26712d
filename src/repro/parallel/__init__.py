"""Shard-parallel execution (:mod:`repro.parallel`).

Per-key subnets have been independent since the store existed: two keys on
different shards share nothing but the virtual clock, placement is a stable
hash, delay streams and delivery choosers are scoped per subnet.  This package
cashes that independence in: it partitions the :class:`~repro.store.ShardMap`
into disjoint shard groups (:meth:`~repro.store.ShardMap.shard_groups`), runs
each group's subnets in a separate worker process, and merges the per-worker
histories, metrics and network statistics at deterministic barriers — with
the contract that the merged output is **bit-identical** to the
single-process run (the differential suite in ``tests/parallel/`` enforces
it; DESIGN.md §10 explains why it holds).

Entry points
------------
* :func:`~repro.parallel.engine.run_kv_workload_parallel` — the store
  engine; reached via ``KVWorkloadSpec(workers=N)`` /
  ``repro store --workers N``.
* :func:`~repro.parallel.pool.run_chunked` — the generic spawn-safe pool the
  chaos sweep, the schedule explorer and the live load generator's client
  workers (``repro store --transport live --workers N``) fan their cells
  out over.

The linearizability check is not on this list: a run's per-key check is one
serial loop (:func:`~repro.verification.linearizability.check_histories_per_key`),
which measured no slower than a pool at a million operations (DESIGN.md §10).

``workers=1`` never touches this package: the single-process code path is
exactly the pre-parallel one.
"""

from repro.parallel.engine import run_kv_workload_parallel
from repro.parallel.merge import merge_network_stats, merged_result
from repro.parallel.pool import POISON_ENV, WorkerFailure, run_chunked

__all__ = [
    "POISON_ENV",
    "WorkerFailure",
    "merge_network_stats",
    "merged_result",
    "run_chunked",
    "run_kv_workload_parallel",
]
