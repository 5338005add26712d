"""Deterministic merging of per-worker run state.

Each shard-group worker ships back its operations, raw metrics samples and
network-statistics snapshot; this module folds them into objects
indistinguishable from a single-process run:

* :func:`merge_network_stats` — counter sums (dictionaries merged with sorted
  keys so JSON output is byte-stable regardless of worker arrival order);
* :func:`merge_oplogs` — the workers' columnar logs concatenated and permuted
  into scripted order, so row ``i`` is the operation a single process would
  have created ``i``-th;
* :func:`merge_metrics` — a :meth:`~repro.exec.metrics.MetricsCollector.snapshot`
  -shaped dict recomputed from the **pooled raw latency samples**.
  Percentiles are order statistics: the p99 of a union is not any function of
  the per-worker p99s, so workers ship samples, never summaries, and the
  parent re-ranks the pool with the same ``nearest_rank`` the serial
  collector uses.  The one intentional approximation is the *mean*: float
  addition is not associative, and the pooled sum visits samples in
  worker-concatenation order instead of global completion order, so merged
  means can differ from serial ones in the last few ulps (everything else —
  counts, percentiles, maxima, message totals — is exactly equal).
* :class:`MergedStore` — a read-only stand-in for the
  :class:`~repro.store.store.KVStore` a serial run would hand back, carrying
  the merged ops/stats/shards and answering the whole inspection surface
  (``histories``, ``check_linearizability``, ``stats``, ``shards``,
  ``simulator.now``, ...) — the checking half being ``KVStore``'s own code.
"""

from __future__ import annotations

import math
from array import array
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.metrics import _latency_summary
from repro.exec.oplog import OpLog, decode_oplog, transfer_size
from repro.sim.network import NetworkStats
from repro.store.shardmap import ShardMap
from repro.store.store import KVStore, StoreConfig, StoreShard


def merge_network_stats(snapshots: List[Dict[str, Any]]) -> NetworkStats:
    """Fold per-worker :meth:`NetworkStats.snapshot` dicts into one object.

    Disjoint shard groups never exchange messages, so every counter is a
    plain sum (``max_control_bits`` a max).  ``by_type`` / ``per_sender`` are
    rebuilt with sorted keys: worker payloads arrive in pool order, and the
    merged store's JSON output must not depend on it.
    """
    merged = NetworkStats()
    by_type: Dict[str, int] = {}
    per_sender: Dict[int, int] = {}
    for snap in snapshots:
        merged.messages_sent += snap["messages_sent"]
        merged.messages_delivered += snap["messages_delivered"]
        merged.messages_dropped_to_crashed += snap["messages_dropped_to_crashed"]
        merged.control_bits_total += snap["control_bits_total"]
        merged.data_bits_total += snap["data_bits_total"]
        merged.messages_coalesced += snap["messages_coalesced"]
        merged.max_control_bits = max(merged.max_control_bits, snap["max_control_bits"])
        for name, count in snap["by_type"].items():
            by_type[name] = by_type.get(name, 0) + count
        for sender, count in snap["per_sender"].items():
            per_sender[sender] = per_sender.get(sender, 0) + count
    merged.by_type.update({name: by_type[name] for name in sorted(by_type)})
    merged.per_sender.update({pid: per_sender[pid] for pid in sorted(per_sender)})
    return merged


def merge_oplogs(columnar: List[Tuple[bytes, List[bytes]]]) -> Tuple[OpLog, int]:
    """Reassemble global submission order from workers' raw columns.

    Each part is an :func:`~repro.exec.oplog.encode_oplog` pair carrying the
    scripted index of its rows.  The logs concatenate in pool order, then one
    permutation sorts the rows by scripted index — no object graph ever
    crosses the pipe.  Returns the merged log and the bytes the parts put on
    the pipe (zero parts: an empty log).
    """
    merged = OpLog()
    scripted_index = array("q")
    ipc_bytes = 0
    for blob, column_buffers in columnar:
        ipc_bytes += transfer_size(blob, column_buffers)
        part, part_index = decode_oplog(blob, column_buffers)
        merged.extend_remapped(part)
        scripted_index.extend(part_index)
    order = sorted(range(len(scripted_index)), key=scripted_index.__getitem__)
    return merged.reordered(order), ipc_bytes


def merge_metrics(
    parts: List[Dict[str, Any]],
    stats: NetworkStats,
    fault_timeline: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Recompute a serial-shaped metrics snapshot from per-worker raw parts.

    Each part is the raw state of one worker's
    :class:`~repro.exec.metrics.MetricsCollector`: counts, the first-issue /
    last-completion instants, and the *unsummarised* latency samples keyed by
    operation-kind value.  ``stats`` is the already-merged network view
    (workers run fresh stores, so their collector windows start at zero and
    the merged window is simply the merged totals).
    """
    issued = sum(part["issued"] for part in parts)
    completed = sum(part["completed"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    first_issues = [part["first_issue_at"] for part in parts if part["first_issue_at"] is not None]
    last_completions = [
        part["last_completion_at"] for part in parts if part["last_completion_at"] is not None
    ]
    first_issue_at = min(first_issues) if first_issues else None
    last_completion_at = max(last_completions) if last_completions else None

    if first_issue_at is None or last_completion_at is None:
        throughput = 0.0
    else:
        span = last_completion_at - first_issue_at
        if span <= 0:
            throughput = float("inf") if completed else 0.0
        else:
            throughput = completed / span

    # Pool raw samples per kind into flat float arrays (workers ship
    # ``array('d')`` columns; plain lists from hand-built parts pool the
    # same).  READ/WRITE are always reported (matching the serial
    # collector's pre-keyed buckets); other kinds sort by value name so the
    # merged snapshot never depends on worker order.
    pooled: Dict[str, array] = {"read": array("d"), "write": array("d")}
    for part in parts:
        for kind_value, samples in part["latencies"].items():
            pooled.setdefault(kind_value, array("d")).extend(samples)
    extra_kinds = sorted(name for name in pooled if name not in ("read", "write"))
    latency: Dict[str, Any] = {
        "read": _latency_summary(pooled["read"]),
        "write": _latency_summary(pooled["write"]),
    }
    combined = array("d", pooled["read"])
    combined.extend(pooled["write"])
    for name in extra_kinds:
        latency[name] = _latency_summary(pooled[name])
        combined.extend(pooled[name])
    latency["all"] = _latency_summary(combined)

    by_type = {name: count for name, count in stats.by_type.items() if count > 0}
    messages = stats.messages_sent
    snapshot: Dict[str, Any] = {
        "issued": issued,
        "completed": completed,
        "failed": failed,
        "virtual_throughput": throughput if math.isfinite(throughput) else None,
        "latency": latency,
        "messages": {
            "total": messages,
            "per_completed_op": (messages / completed) if completed else None,
            "by_type": by_type,
        },
    }
    if fault_timeline is not None:
        snapshot["faults"] = list(fault_timeline)
    return snapshot


def collector_raw_state(metrics) -> Dict[str, Any]:
    """Extract the picklable raw state :func:`merge_metrics` consumes.

    Runs inside workers; samples are keyed by ``OperationKind.value`` so the
    payload survives pickling without enum round-trips.
    """
    return {
        "issued": metrics.issued,
        "completed": metrics.completed,
        "failed": metrics.failed,
        "first_issue_at": metrics.first_issue_at,
        "last_completion_at": metrics.last_completion_at,
        "latencies": {
            # Ship the flat float columns as-is: an array('d') pickles as one
            # byte block, not a million float objects.
            getattr(kind, "value", str(kind)): samples
            for kind, samples in metrics._latencies.items()
        },
    }


class MergedStore:
    """The read-only store view a shard-parallel run hands back.

    Quacks like :class:`~repro.store.store.KVStore` for everything a finished
    run is inspected with — per-key histories, atomicity / linearizability
    checking, metrics and message totals, shard crash states — but owns no
    simulator and accepts no new operations (the run already happened, in the
    workers).  ``simulator.now`` is the global makespan (the final barrier
    time) and ``simulator.executed_events`` the sum over workers.

    The run's operations live in one merged :class:`~repro.exec.oplog.OpLog`
    (rows already permuted into global submission order); ``ops`` is a lazy
    view over it and histories come straight off the columns, so inspecting
    a million-op parallel run allocates no per-op objects.  (A worker-failure
    run merges zero payloads: an empty log, zeroed stats.)
    """

    def __init__(
        self,
        config: StoreConfig,
        oplog: OpLog,
        stats: NetworkStats,
        crashed: Dict[int, List[int]],
        now: float,
        executed_events: int,
        fault_plan=None,
    ) -> None:
        self.config = config
        self.shard_map: ShardMap = config.shard_map()
        self.oplog = oplog
        self.ops = self.oplog.ops_view()
        self.stats = stats
        self.fault_plan = fault_plan
        # Stand-in for ``store.simulator``: read-only numbers, no event loop.
        self.simulator = SimpleNamespace(
            now=now, executed_events=executed_events, pending_events=0
        )
        self.shards = [
            StoreShard(
                shard_id=shard,
                replication=config.replication,
                crashed_replicas=set(crashed.get(shard, ())),
            )
            for shard in range(config.num_shards)
        ]

    # ----------------------------------------------------------- inspection

    @property
    def deployed_keys(self) -> list[Any]:
        """Keys that saw at least one operation, sorted by repr."""
        return sorted(self.oplog.rows_by_key(), key=repr)

    # The finished-run surface (op accessors, per-key histories, checking) is
    # KVStore's own code: the merged oplog's rows are in global submission
    # order, so grouping and the per-key history sort behave identically to
    # the single-process store.
    total_messages = KVStore.total_messages
    completed_ops = KVStore.completed_ops
    failed_ops = KVStore.failed_ops
    history = KVStore.history
    histories = KVStore.histories
    check_linearizability = KVStore.check_linearizability
    check_atomicity = KVStore.check_atomicity
