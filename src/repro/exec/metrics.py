"""Operation-level metrics: a read-only view over a run's operation log.

The :class:`MetricsCollector` reads the numbers the analysis layer and the
CLI report off an :class:`~repro.exec.oplog.OpLog` — latency percentiles
(p50/p95/p99), throughput over the first-issue-to-last-completion window —
and bills messages per wire type from the shared
:class:`~repro.sim.network.NetworkStats`.  It records nothing itself, so a
run written by several processes and merged into one log reports exactly
what the serial run reports.  All message numbers are **logical** counts:
network-level coalescing packs same-instant deliveries into shared heap
events but bills every message individually — coalescing itself never adds
a message to or drops one from a collector window (any difference between
coalesced and uncoalesced totals can only come from the protocol reacting
to the legal intra-instant reordering, never from the accounting).

Kept dependency-free of :mod:`repro.analysis` (which imports the workload
layer, which imports this package) — the percentile helper is local.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind
from repro.sim.network import NetworkStats


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    return _rank_in_sorted(sorted(values), fraction)


def _rank_in_sorted(ordered: Sequence[float], fraction: float) -> float:
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def json_number(value: Optional[float], digits: int = 3) -> Optional[float]:
    """Round a measurement for a JSON payload; non-finite values become ``None``.

    ``json.dumps`` would happily serialize ``float("inf")`` as bare
    ``Infinity`` — which is not JSON and breaks strict consumers — so every
    number that can degenerate (zero-span throughput) passes through here,
    and payload writers use ``allow_nan=False`` so a regression fails loudly
    at write time instead of corrupting the artifact.
    """
    if value is None or not math.isfinite(value):
        return None
    return round(value, digits)


def _latency_summary(latencies: Sequence[float]) -> Optional[Dict[str, float]]:
    if not latencies:
        return None
    # The mean sums in row order (float addition is not associative; a merged
    # run's rows are in the serial run's order, so its mean is the serial
    # mean to the bit); everything else indexes into a single sorted copy
    # instead of re-sorting per percentile.
    ordered = sorted(latencies)
    return {
        "count": len(latencies),
        "mean": sum(latencies) / len(latencies),
        "p50": _rank_in_sorted(ordered, 0.50),
        "p95": _rank_in_sorted(ordered, 0.95),
        "p99": _rank_in_sorted(ordered, 0.99),
        "max": ordered[-1],
    }


class MetricsCollector:
    """A read-only metrics window over one run's :class:`~repro.exec.oplog.OpLog`.

    Nothing is recorded here: the counts, the throughput window and each
    kind's latency samples are read off the log's columns when asked, so a
    run has one record however many processes wrote it.  A latency sample
    is a completed row's ``responded - submitted`` (sojourn: queueing plus
    service, what a client observes), taken in row order.  Attach
    ``stats`` to also bill messages: the collector takes the aggregate
    counters at construction and reports the delta, so a view built after
    earlier traffic counts only what follows (the store's subnets all bill
    to one :class:`~repro.sim.network.NetworkStats`).
    """

    def __init__(
        self, oplog: OpLog, stats: Optional[NetworkStats] = None, wall_clock: bool = False
    ) -> None:
        self.oplog = oplog
        self.stats = stats
        #: True when the log's timestamps are wall-clock seconds (the live
        #: transport).  A wall-clock snapshot nulls out
        #: ``virtual_throughput`` — a virtual-time number computed from wall
        #: timestamps would be meaningless — and reports ``wall_throughput``
        #: (ops/second) instead, mirroring the Infinity-sanitization fix.
        self.wall_clock = wall_clock
        #: Fault-timeline annotation (set when a fault plan is installed):
        #: the plain-dict entries of :meth:`repro.faults.FaultPlan.timeline`,
        #: embedded in snapshots so latency spikes can be read against the
        #: partitions/storms/crashes that caused them.
        self.fault_timeline: Optional[List[Dict[str, Any]]] = None
        self._messages_at_start = stats.messages_sent if stats is not None else 0
        self._by_type_at_start = dict(stats.by_type) if stats is not None else {}

    # ------------------------------------------------------------- reporting

    def latencies(self, kind: Optional[OperationKind] = None) -> List[float]:
        """Latency samples in row order, optionally of one operation kind only."""
        samples, by_kind = self.oplog.latencies()
        return samples if kind is None else by_kind.get(kind, [])

    def virtual_throughput(self) -> float:
        """Completed operations per unit of the clock that stamped them
        (first issue -> last completion): virtual time, or wall seconds."""
        return self._throughput(self.oplog.outcome_counts()[1])

    def _throughput(self, completed: int) -> float:
        first, last = self.oplog.window()
        if first is None or last is None:
            return 0.0
        span = last - first
        if span <= 0:
            return float("inf") if completed else 0.0
        return completed / span

    def wall_throughput(self) -> float:
        """Completed operations per wall-clock second (wall-clock mode only)."""
        if not self.wall_clock:
            raise RuntimeError(
                "wall_throughput is only meaningful on a wall-clock collector; "
                "use virtual_throughput() on the simulated transport"
            )
        return self.virtual_throughput()  # the timestamps are already wall-clock

    def messages_sent(self) -> int:
        """Messages attributed to this collector's window."""
        if self.stats is None:
            return 0
        return self.stats.messages_sent - self._messages_at_start

    def messages_by_type(self) -> Dict[str, int]:
        """Per-wire-type message counts within this collector's window."""
        if self.stats is None:
            return {}
        start = self._by_type_at_start
        return {
            name: count - start.get(name, 0)
            for name, count in self.stats.by_type.items()
            if count - start.get(name, 0) > 0
        }

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict summary for reports, the CLI and ``BENCH_*.json`` files.

        Snapshots are the JSON boundary: non-finite numbers (a zero-span
        run's infinite throughput) are sanitized to ``None`` here so every
        consumer can ``json.dumps(..., allow_nan=False)`` — bare ``Infinity``
        is not valid JSON and strict parsers reject it.
        """
        issued, completed, failed = self.oplog.outcome_counts()
        messages = self.messages_sent()
        throughput = self._throughput(completed)
        if not math.isfinite(throughput):
            throughput = None
        # One summary per kind present (READ/WRITE always reported, other
        # kinds by their value name), plus the combined "all" row.
        samples, by_kind = self.oplog.latencies()
        latency: Dict[str, Any] = {
            getattr(kind, "value", str(kind)): _latency_summary(values)
            for kind, values in by_kind.items()
        }
        latency["all"] = _latency_summary(samples)
        snapshot: Dict[str, Any] = {
            "issued": issued,
            "completed": completed,
            "failed": failed,
            "virtual_throughput": None if self.wall_clock else throughput,
            "latency": latency,
            "messages": {
                "total": messages,
                "per_completed_op": (messages / completed) if completed else None,
                "by_type": self.messages_by_type(),
            },
        }
        if self.wall_clock:
            snapshot["wall_throughput"] = throughput
        if self.fault_timeline is not None:
            snapshot["faults"] = list(self.fault_timeline)
        return snapshot
