"""The unified operation driver: one engine for registers and the store.

* **per-process FIFO queueing** — a register process is sequential (at most
  one of *its own* operations outstanding), so the driver keeps one queue per
  process; the head of a queue is in flight, the rest wait for its completion
  callback.  Queues on different processes proceed concurrently — that
  concurrency is what batched and open-loop driving exploit.
* **completion chaining** — an operation may carry an ``on_done``
  continuation; a process's chain uses it to issue its next operation the
  moment the previous one completes (synchronously, within the same event).
* **a counted drain** — :meth:`Driver.drive` runs the event loop with no
  per-event predicate: whether the run is over can only change when an
  operation finishes, so the driver asks then, and stops the loop itself.
* **stuck detection** — :meth:`Driver.drive` notices when the event queue
  drains while operations are still queued (a replica crashed mid-operation)
  and fails them with a diagnostic instead of hanging.
* **one record** — every operation is a row of the driver's
  :class:`~repro.exec.oplog.OpLog`, filled in as it is issued, completes or
  fails; :attr:`Driver.metrics` is a :class:`~repro.exec.metrics.MetricsCollector`
  view over that log, so nothing is counted twice.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord, OperationRefused, RegisterProcess
from repro.transport.base import DrivableClock
from repro.transport.runtime import ProcessCrashedError

# Bound once: looking a member up on the enum class runs EnumType's
# ``__getattr__`` hook, which the per-operation path would pay per use.
_READ, _WRITE = OperationKind.READ, OperationKind.WRITE


class Driver:
    """Drives operations against register processes on one shared event loop.

    The driver is deliberately target-agnostic: callers resolve an operation
    to a concrete :class:`~repro.registers.base.RegisterProcess` (via a
    :class:`~repro.exec.target.StoreTarget`) and :meth:`submit` it; the driver
    owns queueing, invocation, completion chaining and failure accounting.
    """

    def __init__(self, simulator: DrivableClock) -> None:
        #: The clock driving this run — the virtual-time simulator (the
        #: historical attribute name) or any other ``DrivableClock``.
        self.simulator = simulator
        self.clock = simulator
        #: The columnar operation log, written in place as the run executes
        #: (row index == ``op_id``): the store's history/checking plane reads
        #: its columns, not the operation objects.
        self.oplog = OpLog()
        #: The metrics view over :attr:`oplog`; it bills no messages until a
        #: caller that owns a network replaces it with a view over its stats.
        self.metrics = MetricsCollector(self.oplog)
        #: Fault-plane awareness: when a fault plan with scheduled heals is
        #: installed, this is set to an absolute virtual time a ``drive``
        #: limit must not undercut (last heal + settle budget).  Without it,
        #: a drive budget shorter than a partition window would truncate the
        #: run — declaring operations stuck that are merely *held* until a
        #: heal that is already scheduled to happen.
        self.fault_horizon: Optional[float] = None
        #: Every submitted operation, in submission order.
        self.ops: List[OperationRecord] = []
        #: Every issued operation, in issue order (history material).
        self.records: List[OperationRecord] = []
        # Per process: its FIFO and its one completion callback.
        self._queues: Dict[
            RegisterProcess, Tuple[Deque[OperationRecord], Callable[[OperationRecord], None]]
        ] = {}
        #: Operations failed on a replica that had not crashed — by
        #: :meth:`fail_stuck`, or refused by one that still holds a stalled
        #: command: they can never complete, so the run did not finish.
        self.stalled = 0
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
        on_done: Optional[Callable[[OperationRecord], None]] = None,
    ) -> OperationRecord:
        """Create (and track) a fresh operation: the record its process will fill."""
        op = OperationRecord(next(self._op_counter), -1, kind, value, key, on_done)
        self.ops.append(op)
        self.oplog.note_created(kind, key, value)
        return op

    def submit(self, process: RegisterProcess, op: OperationRecord) -> OperationRecord:
        """Queue ``op`` on ``process``; it is issued as soon as the queue head."""
        lane = self._queues.get(process)
        if lane is None:
            lane = self._queues[process] = (deque(), partial(self._on_complete, process))
        queue = lane[0]
        op.submitted_at = self.simulator.now
        self.oplog.note_submitted(op.op_id, op.submitted_at)
        queue.append(op)
        self._outstanding += 1
        if len(queue) == 1:
            self._issue(process, *lane)
        return op

    # -------------------------------------------------------------- the engine

    def _issue(
        self,
        process: RegisterProcess,
        queue: Deque[OperationRecord],
        complete: Callable[[OperationRecord], None],
    ) -> None:
        while queue:
            op = queue[0]
            try:
                if op.kind is _WRITE:
                    process.invoke_write(op.value, complete, op)
                elif op.kind is _READ:
                    process.invoke_read(complete, op)
                else:
                    process.invoke_operation(op.kind, op.value, complete, op)
            except ProcessCrashedError:
                reason = f"replica p{process.pid} crashed before issuing"
            except OperationRefused as refusal:  # it can never take this one
                reason = str(refusal)
                self.stalled += 1
            else:
                self.records.append(op)
                # Issue and completion touch disjoint columns, so a callback
                # that fired synchronously (before this line) is harmless.
                self.oplog.note_issued(op.op_id, op)
                return
            queue.popleft()
            self._fail(op, reason)
            if self._until is not None and self._until():
                self.simulator.stop()

    def _on_complete(self, process: RegisterProcess, op: OperationRecord) -> None:
        lane = self._queues[process]
        queue = lane[0]
        queue.popleft()  # ``op``: a process completes only its current operation
        self.oplog.note_completed(op.op_id, op)
        self._outstanding -= 1
        if queue:
            self._issue(process, *lane)
        if op.on_done is not None:
            op.on_done(op)
        # After the continuation: a chain's next operation is already
        # outstanding by now.
        if self._until is not None and self._until():
            self.simulator.stop()

    def _fail(self, op: OperationRecord, reason: str) -> None:
        op.failed = True
        op.failure_reason = reason
        self.oplog.note_failed(op.op_id, reason)
        self._outstanding -= 1
        if op.on_done is not None:
            op.on_done(op)

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
        for process, (queue, _complete) in self._queues.items():
            if not queue:
                continue
            # What the replica was still waiting for when the events ran out
            # (a crashed replica reports no wait).
            waits = process.waiting_on()
            reason = (
                f"stalled on replica p{process.pid}"
                f" (crashed={process.crashed}); event queue drained"
                + (f"; waiting on: {', '.join(waits)}" if waits else "")
            )
            if not process.crashed:
                self.stalled += len(queue)
                # The replica lives on: its next operation must not be
                # refused as overlapping this one.
                process.abandon_operation()
            while queue:
                self._fail(queue.popleft(), reason)
