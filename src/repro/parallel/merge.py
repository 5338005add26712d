"""Deterministic merging of a run recorded in several processes.

Shard-group workers (:mod:`repro.parallel.engine`) and live client processes
(:mod:`repro.transport.live`) each ship back their share of one run; this
module folds the shares into the :class:`~repro.workloads.kv.KVWorkloadResult`
a single process would have returned:

* :func:`merge_network_stats` — counter sums (dictionaries merged with sorted
  keys so JSON output is byte-stable regardless of worker arrival order);
* :func:`merge_oplogs` — the workers' columnar logs concatenated and permuted
  into scripted order, so row ``i`` is the operation a single process would
  have created ``i``-th;
* :func:`merged_result` — the one assembler: the merged log, the
  :class:`~repro.exec.metrics.MetricsCollector` view over it and the merged
  message bill, and the replica-side record (crashed servers, consensus
  audit).  Workers ship no metrics: the view reads latencies off the merged
  log's rows, which are in the serial run's order, so every snapshot field —
  percentiles, counts and the float-summed mean alike — equals the serial
  run's exactly.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog, decode_oplog, transfer_size
from repro.sim.network import NetworkStats


def merge_network_stats(snapshots: List[Dict[str, Any]]) -> NetworkStats:
    """Fold per-worker :meth:`NetworkStats.snapshot` dicts into one object.

    Disjoint shard groups never exchange messages, so every counter is a
    plain sum (``max_control_bits`` a max).  ``by_type`` / ``per_sender`` are
    rebuilt with sorted keys: worker payloads arrive in pool order, and the
    merged run's JSON output must not depend on it.
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


def merged_result(
    spec: Any,
    parts: List[Dict[str, Any]],
    started: float,
    *,
    stats: NetworkStats,
    crashed: Iterable[Tuple[int, int]],
    invariants: Optional[List[str]],
    virtual_makespan: Optional[float],
    failure: Optional[str],
) -> Any:
    """The :class:`~repro.workloads.kv.KVWorkloadResult` of a run recorded in parts.

    Each part is one process's record of the operations it fired: an
    :func:`~repro.exec.oplog.encode_oplog` pair under ``columnar``, its
    drive count under ``batches`` and its clean finish under ``finished``.
    The rest comes from where the replicas ran: the message bill ``stats``,
    the ``crashed`` ``(shard, replica)`` servers and the consensus audit
    ``invariants``.  ``virtual_makespan`` is the simulator's
    final barrier time, ``None`` when a wall clock timed the run.  A worker
    ``failure`` leaves no parts: the result is an empty, unclean run carrying
    the traceback.
    """
    from repro.workloads.kv import KVWorkloadResult, generate_kv_arrivals

    wall_seconds = time.perf_counter() - started
    oplog, ipc_bytes = merge_oplogs([part["columnar"] for part in parts])
    collector = MetricsCollector(oplog, wall_clock=virtual_makespan is None)
    collector.stats = stats  # attached after the view's zero baseline: billed whole
    if spec.fault_plan is not None:
        collector.fault_timeline = spec.fault_plan.timeline()
    return KVWorkloadResult(
        spec=spec,
        oplog=oplog,
        ops=oplog.ops_view() if parts else [],
        wall_seconds=wall_seconds,
        metrics=collector.snapshot(),
        stats=stats,
        crashed=sorted(crashed),
        invariants=invariants,
        virtual_makespan=virtual_makespan,
        batches=max((part["batches"] for part in parts), default=0),
        arrivals=generate_kv_arrivals(spec) if spec.open_loop and parts else [],
        finished_cleanly=failure is None and all(part["finished"] for part in parts),
        worker_failure=failure,
        # A lone part never crossed a pipe (a one-client live run).
        ipc_bytes=ipc_bytes if len(parts) > 1 else 0,
    )
