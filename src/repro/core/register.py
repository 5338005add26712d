"""The interactive register cluster and its one builder.

Most users want "give me an ``n``-process simulated cluster and handles to
talk to it": that is a :class:`RegisterCluster`, built by
:func:`build_cluster` for any algorithm (:func:`repro.api.create_register`
resolves the name) and by :func:`build_two_bit_cluster` with the paper
algorithm's own ablation switches.  The module also exposes
:data:`TWO_BIT_ALGORITHM`, the :class:`~repro.registers.base.RegisterAlgorithm`
factory under which the algorithm is registered in
:mod:`repro.registers.registry` (name ``"two-bit"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.core.invariants import GlobalInvariantMonitor, attach_monitor
from repro.core.process import TwoBitRegisterProcess
from repro.registers.base import RegisterAlgorithm, RegisterHandle, RegisterProcess
from repro.sim.delays import DelayModel
from repro.sim.failures import CrashSchedule, FailureInjector
from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.sim.tracing import Tracer

#: Factory registered under the name ``"two-bit"``.
TWO_BIT_ALGORITHM = RegisterAlgorithm(
    name="two-bit",
    description="Mostefaoui-Raynal 2016: four message types, two control bits per message",
    process_factory=TwoBitRegisterProcess,
    supports_multi_writer=False,
    bounded_control_bits=True,
)


@dataclass
class RegisterCluster:
    """A simulated register deployment plus handles to interact with it.

    The ``writer`` handle accepts ``write(value)``; every handle (including
    the writer's) accepts ``read()``.  Both drive the underlying
    discrete-event simulation until the operation completes, so they can be
    used like ordinary blocking calls from examples and notebooks.
    ``simulator`` / ``network`` are exposed for metrics and fine-grained
    control; ``monitor`` is the invariant monitor if one was attached.
    """

    algorithm: str
    simulator: Simulator
    network: Network
    processes: Sequence[RegisterProcess]
    handles: Sequence[RegisterHandle]
    writer_pid: int
    monitor: Optional[GlobalInvariantMonitor] = None

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self.processes)

    @property
    def writer(self) -> RegisterHandle:
        """Handle of the (single) writer."""
        return self.handles[self.writer_pid]

    def reader(self, pid: int) -> RegisterHandle:
        """Handle of process ``pid`` (any process can read)."""
        return self.handles[pid]

    def readers(self) -> list[RegisterHandle]:
        """Handles of all non-writer processes."""
        return [handle for handle in self.handles if handle.pid != self.writer_pid]

    def crash(self, pid: int) -> None:
        """Crash process ``pid`` immediately (counts towards the ``t < n/2`` budget)."""
        already_crashed = sum(1 for p in self.processes if p.crashed)
        if not self.processes[pid].crashed and already_crashed + 1 > (self.n - 1) // 2:
            raise ValueError(
                f"crashing p{pid} would exceed the tolerated minority "
                f"t = {(self.n - 1) // 2} of n = {self.n}"
            )
        self.processes[pid].crash()

    def settle(self) -> None:
        """Run the simulation until no more events are pending (quiescence)."""
        self.simulator.drain()

    def messages_sent(self) -> int:
        """Total messages sent so far."""
        return self.network.stats.messages_sent


def build_cluster(
    algorithm: RegisterAlgorithm,
    n: int,
    writer_pid: int = 0,
    initial_value: Any = None,
    delay_model: Optional[DelayModel] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    check_invariants: bool = False,
    trace: bool = False,
    t: Optional[int] = None,
    coalesce: bool = False,
) -> RegisterCluster:
    """Build an ``n``-process simulated cluster running ``algorithm``.

    ``writer_pid`` is the single writer and ``initial_value`` the register's
    ``v0``; ``delay_model`` defaults to ``FixedDelay(1.0)`` (the paper's
    ``delta``-bounded failure-free regime); ``crash_schedule`` is validated
    against ``t < n/2``, and ``t`` overrides the tolerated number of crashes
    (default ``(n-1)//2``).  ``check_invariants`` attaches a
    :class:`GlobalInvariantMonitor` asserting Lemmas 2-4 and P2 after every
    event (two-bit processes only; slower; great for tests), ``trace``
    records a structured event trace, and ``coalesce`` packs same-instant
    deliveries into shared heap events (off by default so single-register
    runs replay their pinned schedules exactly).
    """
    simulator = Simulator(tracer=Tracer(enabled=trace))
    network = Network(simulator, delay_model=delay_model, coalesce=coalesce)
    processes = algorithm.build(
        simulator, network, n, writer_pid=writer_pid, t=t, initial_value=initial_value
    )
    monitor = None
    if check_invariants and all(isinstance(p, TwoBitRegisterProcess) for p in processes):
        monitor = attach_monitor(simulator, processes, writer_pid=writer_pid)
    if crash_schedule is not None:
        crash_schedule.validate(n)
        FailureInjector(simulator, network, crash_schedule).install()
    return RegisterCluster(
        algorithm=algorithm.name,
        simulator=simulator,
        network=network,
        processes=processes,
        handles=[RegisterHandle(process, simulator) for process in processes],
        writer_pid=writer_pid,
        monitor=monitor,
    )


def build_two_bit_cluster(n: int, writer_fast_read: bool = False, **options: Any) -> RegisterCluster:
    """:func:`build_cluster` for the two-bit algorithm.

    ``writer_fast_read`` lets the writer's reads return its own last value
    directly (the shortcut the paper mentions); every other option is
    :func:`build_cluster`'s.
    """

    def factory(pid: int, **kwargs: Any) -> TwoBitRegisterProcess:
        return TwoBitRegisterProcess(pid=pid, writer_fast_read=writer_fast_read, **kwargs)

    algorithm = RegisterAlgorithm(
        name=TWO_BIT_ALGORITHM.name,
        description=TWO_BIT_ALGORITHM.description,
        process_factory=factory,
    )
    return build_cluster(algorithm, n, **options)
