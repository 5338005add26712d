"""The unified operation driver: one engine for registers, the store and live replicas.

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
* **no back-edge** — nothing the driver owns points back at it: a lane is
  a bare FIFO, the completion callback is built when an operation is issued
  and held only by the process serving it, and a continuation is let go of
  once it has run.  A dropped run's driver, op log and operations are freed
  by reference counting, without waiting for the cycle collector
  (``tests/exec/test_run_lifetime.py``).
* **one record** — every operation it creates is a row of the driver's
  :class:`~repro.exec.oplog.OpLog`, filled in as it is issued, completes or
  fails; :attr:`Driver.metrics` is a :class:`~repro.exec.metrics.MetricsCollector`
  view over that log, so nothing is counted twice.  An operation submitted
  with ``op_id == -1`` (built by its caller, not by :meth:`Driver.new_op`)
  is queued, issued, chained and failed like any other, but neither logged
  nor listed: a live replica's driver serves its clients' invokes this way,
  and the client's own log is the history.

The queueing, issue and completion steps read only the clock's ``now``, so
a live replica drives its operations over its wall clock; only
:meth:`Driver.drive` runs a loop, on a virtual-time simulator.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord, OperationRefused, RegisterProcess
from repro.transport.base import Clock, DrivableClock
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

    def __init__(self, clock: Clock) -> None:
        #: The clock that stamps this run's operations: the virtual-time
        #: simulator, or a live replica's wall clock.  Only :meth:`drive`
        #: needs more than a ``Clock``: it runs the loop of a ``DrivableClock``.
        self.clock = clock
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
        #: Every operation built by :meth:`new_op`, in creation order.
        self.ops: List[OperationRecord] = []
        #: Every issued operation it built, in issue order (history material).
        self.records: List[OperationRecord] = []
        # Per process: its FIFO (the lane), head in flight.
        self._queues: Dict[RegisterProcess, Deque[OperationRecord]] = {}
        #: Operations failed on a replica that had not crashed — by
        #: :meth:`fail_stuck`, or refused by it (a stalled command it still
        #: holds, a write at a non-writer): they can never complete, so the
        #: run did not finish.
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
        queue = self._queues.get(process)
        if queue is None:
            queue = self._queues[process] = deque()
        op.submitted_at = self.clock.now
        if op.op_id >= 0:
            self.oplog.note_submitted(op.op_id, op.submitted_at)
        queue.append(op)
        self._outstanding += 1
        if len(queue) == 1:
            self._issue(process, queue)
        return op

    # -------------------------------------------------------------- the engine

    def _issue(self, process: RegisterProcess, queue: Deque[OperationRecord]) -> None:
        # Built per issue and held only by the process while it serves the
        # operation: a callback kept in the lane would tie the driver to
        # itself.  Over the plain function: a bound method would be a second
        # object per issue.
        complete = partial(Driver._on_complete, self, process, queue)
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
            except (OperationRefused, PermissionError) as refusal:  # it can never take this one
                reason = str(refusal)
                self.stalled += 1
            else:
                if op.op_id >= 0:
                    self.records.append(op)
                    # Issue and completion touch disjoint columns, so a callback
                    # that fired synchronously (before this line) is harmless.
                    self.oplog.note_issued(op.op_id, op)
                return
            queue.popleft()
            self._fail(op, reason)
            if self._until is not None and self._until():
                self.clock.stop()

    def _on_complete(
        self, process: RegisterProcess, queue: Deque[OperationRecord], op: OperationRecord
    ) -> None:
        queue.popleft()  # ``op``: a process completes only its current operation
        if op.op_id >= 0:
            self.oplog.note_completed(op.op_id, op)
        self._outstanding -= 1
        if queue:
            self._issue(process, queue)
        on_done = op.on_done
        if on_done is not None:
            op.on_done = None  # it runs once; what it holds need not outlive it
            on_done(op)
        # After the continuation: a chain's next operation is already
        # outstanding by now.
        if self._until is not None and self._until():
            self.clock.stop()

    def _fail(self, op: OperationRecord, reason: str) -> None:
        op.failed = True
        op.failure_reason = reason
        if op.op_id >= 0:
            self.oplog.note_failed(op.op_id, reason)
        self._outstanding -= 1
        on_done = op.on_done
        if on_done is not None:
            op.on_done = None
            on_done(op)

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
        simulator: DrivableClock = self.clock  # type: ignore[assignment]
        until = self._until = predicate if predicate is not None else self._idle
        try:
            # The finish that meets the condition stops the loop.  A finish
            # may stop it and a continuation in the same event submit more
            # work: then the condition no longer holds, and the loop resumes.
            finished = until()
            while not finished:
                stopped = simulator.run_until(None, limit=limit)
                finished = until()
                if not stopped:  # the queue drained, or the limit passed
                    break
        finally:
            self._until = None
        if not finished and self._outstanding and simulator.pending_events == 0:
            self.fail_stuck()
        return finished

    def _idle(self) -> bool:
        """The default condition of :meth:`drive`: nothing is outstanding."""
        return self._outstanding == 0

    def fail_stuck(self) -> None:
        """Fail every queued operation: the event queue drained under them, or
        (a live replica's halt) their processes crashed."""
        for process, queue in self._queues.items():
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
