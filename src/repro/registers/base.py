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
"block" by registering guards and the workload runner drives closed-loop
clients by chaining callbacks.  See ``repro.workloads.runner``.
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
    "QuorumTracker",  # canonical home: repro.quorum.tracker (re-exported here)
    "RegisterAlgorithm",
    "RegisterHandle",
    "RegisterProcess",
]


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


@dataclass
class OperationRecord:
    """Bookkeeping for a single in-flight or completed operation.

    The verification layer consumes these records (invocation/response times
    and values) to build histories; the analysis layer consumes the message
    accounting fields to attribute per-operation message costs.
    """

    op_id: int
    pid: int
    kind: OperationKind
    value: Any = None
    invoked_at: float = 0.0
    responded_at: Optional[float] = None
    result: Any = None
    completed: bool = False
    failed: bool = False
    messages_before: int = 0
    messages_after: Optional[int] = None

    @property
    def latency(self) -> Optional[float]:
        """Virtual-time latency, or ``None`` if the operation never completed."""
        if self.responded_at is None:
            return None
        return self.responded_at - self.invoked_at

    @property
    def message_cost(self) -> Optional[int]:
        """Messages sent system-wide during the operation (isolated runs only)."""
        if self.messages_after is None:
            return None
        return self.messages_after - self.messages_before


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
        # Provisional tracker: the real one is built in finish_setup() once the
        # full membership is registered on the network.
        provisional_n = max(len(network.process_ids), 2 * (t or 0) + 1, 1)
        self.quorum = QuorumTracker(provisional_n, t)
        # Every other process, in pid order (fixed by finish_setup).
        self._peers: list[int] = []
        self._op_counter = itertools.count()
        self._current_op: Optional[OperationRecord] = None

    # ---------------------------------------------------------------- wiring

    def finish_setup(self) -> None:
        """Hook called once all processes are registered (quorum sizes, peers)."""
        self.quorum = QuorumTracker(self.n, self._requested_t)
        self._peers = self.other_process_ids()

    @property
    def is_writer(self) -> bool:
        """True if this process is the (single) writer."""
        return self.pid == self.writer_pid

    @property
    def current_operation(self) -> Optional[OperationRecord]:
        """The operation this process is currently executing, if any."""
        return self._current_op

    # ------------------------------------------------------------ invocation

    def invoke_write(self, value: Any, callback: Callable[[OperationRecord], None]) -> OperationRecord:
        """Start a write of ``value``; ``callback`` fires when it completes.

        Only the writer may invoke writes (SWMR register).  MWMR algorithms
        override :meth:`_check_write_permission`.
        """
        self.require_alive("write")
        self._check_write_permission()
        record = self._new_operation(OperationKind.WRITE, value)
        self._current_op = record
        self._start_write(record, lambda result=None: self._complete(record, result, callback))
        return record

    def invoke_read(self, callback: Callable[[OperationRecord], None]) -> OperationRecord:
        """Start a read; ``callback`` fires with the record holding the value read."""
        self.require_alive("read")
        record = self._new_operation(OperationKind.READ, None)
        self._current_op = record
        self._start_read(record, lambda result: self._complete(record, result, callback))
        return record

    def invoke_operation(
        self,
        kind: OperationKind,
        value: Any,
        callback: Callable[[OperationRecord], None],
    ) -> OperationRecord:
        """Start a non-register operation (CAS/TAS/INCR on consensus objects).

        ``value`` carries the operation argument — the ``(expected, new)``
        pair for CAS, ignored for TAS, the addend for INCR.  Plain register
        algorithms do not override :meth:`_start_operation` and therefore
        reject these kinds.
        """
        self.require_alive(kind.value)
        record = self._new_operation(kind, value)
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

    def _new_operation(self, kind: OperationKind, value: Any) -> OperationRecord:
        if self._current_op is not None and not self._current_op.completed:
            raise RuntimeError(
                f"p{self.pid} invoked a {kind.value} while its previous "
                f"{self._current_op.kind.value} is still pending; processes are sequential"
            )
        record = OperationRecord(
            op_id=next(self._op_counter),
            pid=self.pid,
            kind=kind,
            value=value,
            invoked_at=self.simulator.now,
            messages_before=self.network.stats.messages_sent,
        )
        return record

    def _complete(
        self,
        record: OperationRecord,
        result: Any,
        callback: Callable[[OperationRecord], None],
    ) -> None:
        if record.completed:  # pragma: no cover - defensive; completions are single-shot
            return
        record.completed = True
        record.result = result
        record.responded_at = self.simulator.now
        record.messages_after = self.network.stats.messages_sent
        if self._current_op is record:
            self._current_op = None
        callback(record)

    # ------------------------------------------------------ protocol-specific

    def _start_write(self, record: OperationRecord, done: Callable[[], None]) -> None:
        """Protocol-specific write implementation.  ``done()`` signals completion."""
        raise NotImplementedError

    def _start_read(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        """Protocol-specific read implementation.  ``done(value)`` signals completion."""
        raise NotImplementedError

    def _start_operation(self, record: OperationRecord, done: Callable[[Any], None]) -> None:
        """Non-register operation hook (consensus objects override this)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support {record.kind.value} operations"
        )


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
