"""Protocol-independent framework for SWMR/MWMR register implementations.

Every register algorithm in this repository (the paper's two-bit algorithm,
the ABD baselines, the bounded variants) is expressed as a subclass of
:class:`RegisterProcess` — a :class:`~repro.transport.runtime.ProcessBase` that exposes
asynchronous ``invoke_write`` / ``invoke_read`` entry points completing via
callbacks.  A thin :class:`RegisterAlgorithm` factory describes how to deploy
``n`` such processes on a network, and :class:`RegisterHandle` gives examples
and workloads a friendly per-process facade.

The completion-callback style (rather than ``async``/``await``) was chosen
because the substrate is a virtual-time discrete-event simulator: operations
"block" by holding waits their handlers release, and the workload runner
drives closed-loop clients by chaining callbacks.  See ``repro.workloads.runner``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

from repro.quorum.tracker import QuorumTracker
from repro.transport.base import Clock, Transport
from repro.transport.runtime import ProcessBase

__all__ = [
    "OperationKind",
    "OperationRecord",
    "OperationRefused",
    "QuorumTracker",  # canonical home: repro.quorum.tracker (re-exported here)
    "RegisterAlgorithm",
    "RegisterHandle",
    "RegisterProcess",
]


class OperationRefused(RuntimeError):
    """A live process cannot take an operation yet; the message says why.

    The driver fails the operation with that reason instead of raising.
    """


class OperationKind(str, Enum):
    """Kind of operation against a replicated object.

    ``READ``/``WRITE`` are the register kinds every algorithm supports;
    ``CAS``/``TAS``/``INCR`` are the consensus-backed object kinds added by
    :mod:`repro.consensus` (compare-and-swap, test-and-set, counter
    increment).  Register algorithms reject the consensus kinds at
    invocation time.
    """

    READ = "read"
    WRITE = "write"
    CAS = "cas"
    TAS = "tas"
    INCR = "incr"


class OperationRecord:
    """One operation, from submission to response: the only per-operation object.

    The driver builds it (``op_id`` is its row in the driver and the op log,
    ``-1`` for a direct caller), a process fills it when invoked (``pid``,
    its own sequence number ``proc_op_id``, ``invoked_at``) and completes it
    (``result``, ``responded_at``), and the driver fails it instead when it
    cannot run.  ``pid`` is ``-1`` until the operation is issued.  ``result``
    is what the process returned: ``None`` for a write and until completion.
    ``on_done`` is the driver's continuation, called exactly once when the
    operation finishes, completed *or* failed.
    """

    __slots__ = (
        "op_id",
        "pid",
        "kind",
        "value",
        "key",
        "on_done",
        "submitted_at",
        "proc_op_id",
        "invoked_at",
        "responded_at",
        "result",
        "completed",
        "failed",
        "failure_reason",
    )

    def __init__(
        self,
        op_id: int,
        pid: int,
        kind: OperationKind,
        value: Any = None,
        key: Any = None,
        on_done: Optional[Callable[["OperationRecord"], None]] = None,
        invoked_at: Optional[float] = None,
        responded_at: Optional[float] = None,
        result: Any = None,
        completed: bool = False,
        proc_op_id: int = -1,
    ) -> None:
        self.op_id = op_id
        self.pid = pid
        self.kind = kind
        self.value = value
        self.key = key
        self.on_done = on_done
        self.submitted_at: Optional[float] = None
        self.proc_op_id = proc_op_id
        self.invoked_at = invoked_at
        self.responded_at = responded_at
        self.result = result
        self.completed = completed
        self.failed = False
        self.failure_reason = ""

    @property
    def done(self) -> bool:
        """True when the operation finished, successfully or not."""
        return self.completed or self.failed

    @property
    def latency(self) -> Optional[float]:
        """Service time (invocation to response), or ``None`` if not completed."""
        if self.responded_at is None:
            return None
        return self.responded_at - self.invoked_at

    @property
    def sojourn_latency(self) -> Optional[float]:
        """What a client observes: the wait in the driver's queue plus the service time."""
        if self.responded_at is None:
            return None
        if self.submitted_at is None:
            return self.latency
        return self.responded_at - self.submitted_at

    @property
    def record(self) -> "OperationRecord":
        """The operation itself (for readers written when op and record were two objects)."""
        return self

    def __repr__(self) -> str:
        return (
            f"OperationRecord(op_id={self.op_id}, pid={self.pid}, kind={self.kind.value}, "
            f"key={self.key!r}, value={self.value!r}, result={self.result!r}, "
            f"completed={self.completed}, failed={self.failed})"
        )


class RegisterProcess(ProcessBase):
    """Base class for processes implementing a shared read/write register.

    Subclasses implement :meth:`_start_write` and :meth:`_start_read`; the
    base class handles operation records, sequencing checks (a sequential
    process never has two of *its own* operations outstanding), and the
    completion plumbing.
    """

    def __init__(
        self,
        pid: int,
        simulator: Clock,
        network: Transport,
        writer_pid: int,
        t: Optional[int] = None,
        initial_value: Any = None,
    ) -> None:
        super().__init__(pid, simulator, network)
        self.writer_pid = writer_pid
        self.initial_value = initial_value
        self._requested_t = t
        # The quorum arithmetic (``self.quorum``) and every other process in
        # pid order (``self._peers``) are set by finish_setup(), once the full
        # membership is registered on the network.
        self._op_counter = itertools.count()
        # The operation in progress, if any.
        self._current_op: Optional[OperationRecord] = None

    # ---------------------------------------------------------------- wiring

    #: The ``n - t`` arithmetic over the full membership (set by :meth:`finish_setup`).
    quorum: QuorumTracker
    _peers: list[int]

    def finish_setup(self) -> None:
        """Hook called once all processes are registered (quorum sizes, peers).

        The membership is read once here: ``self.quorum.n`` is ``n`` from now on.
        """
        ids = self.network.process_ids
        self.quorum = QuorumTracker(len(ids), self._requested_t)
        peers = self._peers = list(ids)
        peers.remove(self.pid)

    @property
    def is_writer(self) -> bool:
        """True if this process is the (single) writer."""
        return self.pid == self.writer_pid

    # ------------------------------------------------------------ invocation
    #
    # Each entry point fills ``record`` -- the driver's operation -- or, for
    # a direct caller, a fresh one, and returns it.  ``callback(record)``
    # fires when it completes.

    def invoke_write(
        self,
        value: Any,
        callback: Callable[[OperationRecord], None],
        record: Optional[OperationRecord] = None,
    ) -> OperationRecord:
        """Start a write of ``value``; ``callback`` fires when it completes.

        Only the writer may invoke writes (SWMR register).  MWMR algorithms
        override :meth:`_check_write_permission`.
        """
        if self.crashed:
            self.require_alive("write")
        self._check_write_permission()
        if self._current_op is not None:
            self._refuse_overlap(OperationKind.WRITE)
        if record is None:
            record = OperationRecord(-1, self.pid, OperationKind.WRITE, value)
        record.pid = self.pid
        record.proc_op_id = next(self._op_counter)
        record.invoked_at = self.simulator.now
        self._current_op = record
        self._start_write(record, lambda result=None: self._complete(record, result, callback))
        return record

    def invoke_read(
        self,
        callback: Callable[[OperationRecord], None],
        record: Optional[OperationRecord] = None,
    ) -> OperationRecord:
        """Start a read; ``callback`` fires with the record holding the value read."""
        if self.crashed:
            self.require_alive("read")
        if self._current_op is not None:
            self._refuse_overlap(OperationKind.READ)
        if record is None:
            record = OperationRecord(-1, self.pid, OperationKind.READ)
        record.pid = self.pid
        record.proc_op_id = next(self._op_counter)
        record.invoked_at = self.simulator.now
        self._current_op = record
        self._start_read(record, lambda result: self._complete(record, result, callback))
        return record

    def invoke_operation(
        self,
        kind: OperationKind,
        value: Any,
        callback: Callable[[OperationRecord], None],
        record: Optional[OperationRecord] = None,
    ) -> OperationRecord:
        """Start a non-register operation (CAS/TAS/INCR on consensus objects).

        ``value`` carries the operation argument — the ``(expected, new)``
        pair for CAS, ignored for TAS, the addend for INCR.  Plain register
        algorithms do not override :meth:`_start_operation` and therefore
        reject these kinds, before taking the operation: refused, it leaves
        the process as it was.
        """
        if self.crashed:
            self.require_alive(kind.value)
        if type(self)._start_operation is RegisterProcess._start_operation:
            raise OperationRefused(
                f"{type(self).__name__} does not support {kind.value} operations"
            )
        if self._current_op is not None:
            self._refuse_overlap(kind)
        if record is None:
            record = OperationRecord(-1, self.pid, kind, value)
        record.pid = self.pid
        record.proc_op_id = next(self._op_counter)
        record.invoked_at = self.simulator.now
        self._current_op = record
        self._start_operation(
            record, lambda result=None: self._complete(record, result, callback)
        )
        return record

    def _check_write_permission(self) -> None:
        if not self.is_writer:
            raise PermissionError(
                f"p{self.pid} is not the writer (writer is p{self.writer_pid}); "
                "this is a single-writer register"
            )

    def _refuse_overlap(self, kind: OperationKind) -> None:
        raise RuntimeError(
            f"p{self.pid} invoked a {kind.value} while its previous "
            f"{self._current_op.kind.value} is still pending; processes are sequential"
        )

    def crash(self) -> None:
        """Halt, and let go of the operation in progress: it stays pending
        (the driver's record), and the process never completes it."""
        super().crash()
        self._current_op = None

    def abandon_operation(self) -> None:
        """Let go of the operation in progress, which the driver failed as stalled.

        A sequential process refuses a new operation while one is pending;
        a stalled one can never complete, so without this the replica would
        refuse every later operation.  Subclasses also drop the waits the
        operation left behind, so that nothing of it runs later.
        """
        self._current_op = None

    def _complete(
        self,
        record: OperationRecord,
        result: Any,
        callback: Callable[[OperationRecord], None],
    ) -> None:
        # Single-shot: a completion for anything but the operation in
        # progress is stale (a late reply, a continuation run twice) and must
        # not touch the record or the process's next operation.
        if record is not self._current_op:
            return
        self._current_op = None
        if record.failed:  # the driver gave up on it; it stays failed
            return
        record.completed = True
        record.result = result
        record.responded_at = self.simulator.now
        callback(record)

    # ------------------------------------------------------ protocol-specific

    def _start_write(self, record: OperationRecord, done: Callable[[], None]) -> None:
        """Protocol-specific write implementation.  ``done()`` signals completion."""
        raise NotImplementedError

    def _start_read(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        """Protocol-specific read implementation.  ``done(value)`` signals completion."""
        raise NotImplementedError

    def _start_operation(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        """Non-register operation hook (consensus objects override this; a
        process that does not is refused these kinds by :meth:`invoke_operation`)."""
        raise NotImplementedError


class RegisterHandle:
    """Client-facing facade over one :class:`RegisterProcess`.

    Examples and workloads talk to handles, not to raw processes.  A handle
    issues an operation and (optionally) runs the simulator until it
    completes, giving a simple blocking-looking API on top of the event loop:

    >>> value = handle.read()          # drives the simulation until the read returns
    >>> handle.write("hello")          # only valid on the writer's handle
    """

    def __init__(self, process: RegisterProcess, simulator: Clock) -> None:
        self.process = process
        self.simulator = simulator

    @property
    def pid(self) -> int:
        """Id of the underlying process."""
        return self.process.pid

    @property
    def is_writer(self) -> bool:
        """True if this handle belongs to the writer process."""
        return self.process.is_writer

    def write(self, value: Any, run: bool = True) -> OperationRecord:
        """Write ``value``; if ``run`` is true, advance the simulation until completion."""
        record = self.process.invoke_write(value, lambda _record: None)
        if run:
            finished = self.simulator.run_until(lambda: record.completed)
            if not finished:
                raise RuntimeError(
                    f"write({value!r}) by p{self.pid} did not complete; "
                    f"pending events: {self.simulator.pending_labels()[:5]}"
                )
        return record

    def read(self, run: bool = True) -> Any:
        """Read the register; if ``run`` is true, advance the simulation until completion."""
        record = self.process.invoke_read(lambda _record: None)
        if run:
            finished = self.simulator.run_until(lambda: record.completed)
            if not finished:
                raise RuntimeError(
                    f"read() by p{self.pid} did not complete; "
                    f"pending events: {self.simulator.pending_labels()[:5]}"
                )
            return record.result
        return record


@dataclass
class RegisterAlgorithm:
    """Factory describing how to deploy a register algorithm.

    Attributes
    ----------
    name:
        Short identifier used by the registry, reports and benchmarks.
    description:
        One-line human description (appears in Table 1 rendering).
    process_factory:
        Callable ``(pid, simulator, network, writer_pid, t, initial_value) ->
        RegisterProcess``.
    supports_multi_writer:
        Whether any process may write (MWMR) or only ``writer_pid`` (SWMR).
    bounded_control_bits:
        Whether every message carries a bounded number of control bits (the
        paper's two-bit algorithm, the modulo emulation) or the control
        information grows with the write count (plain ABD).  Surfaced by
        ``repro algorithms`` as a capability flag.
    """

    name: str
    description: str
    process_factory: Callable[..., RegisterProcess]
    supports_multi_writer: bool = False
    bounded_control_bits: bool = False
    #: Sequential specification the checker verifies histories against:
    #: ``"register"`` (atomic read/write, the default) or ``"smr"`` (the
    #: state-machine spec covering read/write/cas/tas/incr — used by the
    #: consensus-backed object algorithms in :mod:`repro.consensus`).
    spec: str = "register"

    def build(
        self,
        simulator: Clock,
        network: Transport,
        n: int,
        writer_pid: int = 0,
        t: Optional[int] = None,
        initial_value: Any = None,
    ) -> list[RegisterProcess]:
        """Instantiate ``n`` processes of this algorithm on ``network``."""
        if n < 2:
            raise ValueError("a message-passing register needs at least 2 processes")
        if not 0 <= writer_pid < n:
            raise ValueError(f"writer_pid {writer_pid} out of range for n={n}")
        effective_t = (n - 1) // 2 if t is None else t
        if not effective_t < n / 2:
            raise ValueError(
                f"t={effective_t} violates the necessary condition t < n/2 for n={n}"
            )
        processes = [
            self.process_factory(
                pid=pid,
                simulator=simulator,
                network=network,
                writer_pid=writer_pid,
                t=effective_t,
                initial_value=initial_value,
            )
            for pid in range(n)
        ]
        for process in processes:
            process.finish_setup()
        return processes
