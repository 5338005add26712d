"""The unified operation driver: one engine for registers and the store.

* **per-process FIFO queueing** — a register process is sequential (at most
  one of *its own* operations outstanding), so the driver keeps one queue per
  process; the head of a queue is in flight, the rest wait for its completion
  callback.  Queues on different processes proceed concurrently — that
  concurrency is what batched and open-loop driving exploit.
* **completion chaining** — an :class:`ExecOp` may carry an ``on_done``
  continuation; closed-loop clients use it to issue their next operation the
  moment the previous one completes (synchronously, within the same event).
* **a counted drain** — :meth:`Driver.drive` runs the event loop with no
  per-event predicate: whether the run is over can only change when an
  operation finishes, so the driver asks then, and stops the loop itself.
* **stuck detection** — :meth:`Driver.drive` notices when the event queue
  drains while operations are still queued (a replica crashed mid-operation)
  and fails them with a diagnostic instead of hanging.
* **metrics** — an optional :class:`~repro.exec.metrics.MetricsCollector`
  observes every issue/completion/failure.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord, RegisterProcess
from repro.transport.base import DrivableClock
from repro.transport.runtime import ProcessCrashedError


@dataclass
class ExecOp:
    """A submitted operation — a future the driver completes.

    ``record`` is the underlying register-level
    :class:`~repro.registers.base.OperationRecord` once the operation has
    been issued to a process; until then the operation is queued behind
    earlier operations targeting the same (sequential) process.  ``key`` is
    the store key the operation addresses.
    """

    op_id: int
    kind: OperationKind
    key: Any = None
    value: Any = None
    record: Optional[OperationRecord] = None
    failed: bool = False
    failure_reason: str = ""
    #: Virtual time the op entered the driver (set by :meth:`Driver.submit`).
    submitted_at: Optional[float] = None
    #: Continuation invoked exactly once when the op finishes — on successful
    #: completion *or* failure (issue-time crash, stuck detection).  Check
    #: ``op.failed`` / ``op.completed`` inside the callback.
    on_done: Optional[Callable[["ExecOp"], None]] = field(default=None, repr=False)

    @property
    def completed(self) -> bool:
        """True when the operation finished successfully."""
        return not self.failed and self.record is not None and self.record.completed

    @property
    def done(self) -> bool:
        """True when the operation finished (successfully or not)."""
        return self.failed or self.completed

    @property
    def result(self) -> Any:
        """The value read (reads) or written (writes); raises if not completed."""
        if not self.completed:
            raise RuntimeError(
                f"{self.kind.value}({self.key!r}) has not completed"
                + (f" (failed: {self.failure_reason})" if self.failed else "")
            )
        if self.kind is OperationKind.WRITE:
            return self.value
        return self.record.result

    @property
    def sojourn_latency(self) -> Optional[float]:
        """Client-observed latency: driver queueing delay + service time.

        ``record.latency`` alone measures only the service time (invocation
        to response); under open-loop overload the interesting number is how
        long the operation waited on the per-process FIFO first.
        """
        if self.record is None or self.record.responded_at is None:
            return None
        if self.submitted_at is None:
            return self.record.latency
        return self.record.responded_at - self.submitted_at


class Driver:
    """Drives operations against register processes on one shared event loop.

    The driver is deliberately target-agnostic: callers resolve an operation
    to a concrete :class:`~repro.registers.base.RegisterProcess` (via a
    :class:`~repro.exec.target.StoreTarget`) and :meth:`submit` it; the driver
    owns queueing, invocation, completion chaining and failure accounting.
    """

    def __init__(
        self,
        simulator: DrivableClock,
        metrics: Optional[MetricsCollector] = None,
        oplog: Optional[OpLog] = None,
    ) -> None:
        #: The clock driving this run — the virtual-time simulator (the
        #: historical attribute name) or any other ``DrivableClock``.
        self.simulator = simulator
        self.clock = simulator
        self.metrics = metrics
        #: Optional columnar operation log, written in place as the run
        #: executes (row index == ``op_id``).  The store attaches one so its
        #: history/checking plane never has to walk the ExecOp object graph.
        self.oplog = oplog
        #: Fault-plane awareness: when a fault plan with scheduled heals is
        #: installed, this is set to an absolute virtual time a ``drive``
        #: limit must not undercut (last heal + settle budget).  Without it,
        #: a drive budget shorter than a partition window would truncate the
        #: run — declaring operations stuck that are merely *held* until a
        #: heal that is already scheduled to happen.
        self.fault_horizon: Optional[float] = None
        #: Every submitted operation, in submission order.
        self.ops: List[ExecOp] = []
        #: Every issued operation's record, in issue order (history material).
        self.records: List[OperationRecord] = []
        self._queues: Dict[RegisterProcess, Deque[ExecOp]] = {}
        self._outstanding = 0
        self._op_counter = itertools.count()
        # While `drive` runs the loop: the condition it drives to, asked each
        # time an operation finishes.
        self._until: Optional[Callable[[], bool]] = None

    # ------------------------------------------------------------- submission

    def new_op(
        self,
        kind: OperationKind,
        value: Any = None,
        key: Any = None,
        on_done: Optional[Callable[[ExecOp], None]] = None,
    ) -> ExecOp:
        """Create (and track) a fresh operation future."""
        op = ExecOp(op_id=next(self._op_counter), kind=kind, key=key, value=value, on_done=on_done)
        self.ops.append(op)
        if self.oplog is not None:
            self.oplog.note_created(kind, key, value)
        return op

    def submit(self, process: RegisterProcess, op: ExecOp) -> ExecOp:
        """Queue ``op`` on ``process``; it is issued as soon as the queue head."""
        queue = self._queues.get(process)
        if queue is None:
            queue = self._queues[process] = deque()
        op.submitted_at = self.simulator.now
        if self.oplog is not None:
            self.oplog.note_submitted(op.op_id, op.submitted_at)
        queue.append(op)
        self._outstanding += 1
        if len(queue) == 1:
            self._issue(process)
        return op

    # -------------------------------------------------------------- the engine

    def _issue(self, process: RegisterProcess) -> None:
        queue = self._queues[process]
        while queue:
            op = queue[0]
            try:
                if op.kind is OperationKind.WRITE:
                    record = process.invoke_write(
                        op.value, lambda record, p=process: self._on_complete(p, record)
                    )
                elif op.kind is OperationKind.READ:
                    record = process.invoke_read(
                        lambda record, p=process: self._on_complete(p, record)
                    )
                else:
                    record = process.invoke_operation(
                        op.kind,
                        op.value,
                        lambda record, p=process: self._on_complete(p, record),
                    )
            except ProcessCrashedError:
                queue.popleft()
                op.failed = True
                op.failure_reason = f"replica p{process.pid} crashed before issuing"
                if self.oplog is not None:
                    self.oplog.note_failed(op.op_id, op.failure_reason)
                self._outstanding -= 1
                if self.metrics is not None:
                    self.metrics.note_failed()
                if op.on_done is not None:
                    op.on_done(op)
                if self._until is not None and self._until():
                    self.simulator.stop()
                continue
            self.records.append(record)
            if op.record is None:  # the callback may have fired synchronously
                op.record = record
            if self.oplog is not None:
                # Issue and completion touch disjoint columns, so a callback
                # that fired synchronously (before this line) is harmless.
                self.oplog.note_issued(op.op_id, record)
            if self.metrics is not None:
                self.metrics.note_issued(record.invoked_at)
            return

    def _on_complete(self, process: RegisterProcess, record: OperationRecord) -> None:
        queue = self._queues[process]
        op = queue.popleft()
        if op.record is None:
            op.record = record
        if self.oplog is not None:
            self.oplog.note_completed(op.op_id, record)
        self._outstanding -= 1
        if self.metrics is not None:
            # Sojourn latency (queueing + service) is what a client observes;
            # for unqueued ops it equals the record's service latency.
            self.metrics.note_completed(record.kind, op.sojourn_latency, self.simulator.now)
        if queue:
            self._issue(process)
        if op.on_done is not None:
            op.on_done(op)
        # After the continuation: a closed-loop client's next operation is
        # already outstanding by now.
        if self._until is not None and self._until():
            self.simulator.stop()

    # ---------------------------------------------------------------- driving

    @property
    def outstanding(self) -> int:
        """Submitted operations not yet completed (or failed)."""
        return self._outstanding

    def drive(
        self,
        limit: Optional[float] = None,
        predicate: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """Run the event loop until every submitted operation is done.

        ``predicate`` overrides the default "no outstanding operations"
        condition (open-loop clients pass one that also waits for future
        arrivals).  It must be a condition on operations — one that can only
        come true when an operation finishes: that is when it is asked, not
        after every event.  Returns ``True`` when the condition was met;
        ``False`` when the virtual-time ``limit`` passed first (operations
        stay outstanding and a later ``drive`` may finish them) or the event
        queue drained with operations stuck — those are marked failed (this
        happens when a replica crashed mid-operation).

        When a fault plan is installed, ``limit`` is raised to at least
        :attr:`fault_horizon` so messages held by a partition window are
        never mistaken for a stuck run — the heal is scheduled, and the
        drive waits it out.
        """
        if limit is not None and self.fault_horizon is not None and limit < self.fault_horizon:
            limit = self.fault_horizon
        until = self._until = predicate if predicate is not None else self._idle
        try:
            # The finish that meets the condition stops the loop.  A finish
            # may stop it and a continuation in the same event submit more
            # work: then the condition no longer holds, and the loop resumes.
            finished = until()
            while not finished:
                stopped = self.simulator.run_until(None, limit=limit)
                finished = until()
                if not stopped:  # the queue drained, or the limit passed
                    break
        finally:
            self._until = None
        if not finished and self._outstanding and self.simulator.pending_events == 0:
            self.fail_stuck()
        return finished

    def _idle(self) -> bool:
        """The default condition of :meth:`drive`: nothing is outstanding."""
        return self._outstanding == 0

    def fail_stuck(self) -> None:
        """Fail every queued operation (used when the event queue drained under them)."""
        for process, queue in self._queues.items():
            if not queue:
                continue
            # What the replica was still waiting for when the events ran out
            # (a crashed replica waits for nothing: crashing drops its guards).
            waits = process.waiting_on()
            reason = (
                f"stalled on replica p{process.pid}"
                f" (crashed={process.crashed}); event queue drained"
                + (f"; waiting on: {', '.join(waits)}" if waits else "")
            )
            while queue:
                op = queue.popleft()
                op.failed = True
                op.failure_reason = reason
                if self.oplog is not None:
                    self.oplog.note_failed(op.op_id, op.failure_reason)
                self._outstanding -= 1
                if self.metrics is not None:
                    self.metrics.note_failed()
                if op.on_done is not None:
                    op.on_done(op)
