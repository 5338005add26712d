"""Client models: how operations arrive at the unified driver.

Three traffic shapes:

* :class:`ClosedLoopClient` — one process, one script, next operation issued
  the moment the previous one completes (plus think time); the client dies
  with its process.
* :class:`IsolatedClient` — operations issued one at a time, globally,
  quiescing between them so per-operation message counts and latencies are
  exactly attributable (the Table-1 measurement regime).  The post-operation
  drain is *bounded*: a message-storm bug fails fast with
  ``clean=False`` instead of hanging.
* :class:`OpenLoopClient` — operations arrive at seeded times from an
  arrival process (Poisson or uniform), regardless of completions.  This
  decouples offered load from service rate, which is what
  throughput-vs-offered-load scenarios need; overload shows up as queueing
  delay on the per-process FIFOs instead of silently throttling the client.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.driver import Driver, ExecOp
from repro.exec.target import OpRequest, StoreTarget
from repro.registers.base import OperationKind, RegisterProcess
from repro.transport.base import Transport

#: Supported open-loop arrival processes.
ARRIVAL_PROCESSES = ("poisson", "uniform")


# --------------------------------------------------------------- closed loop


class ClosedLoopClient:
    """Drives one process through a script, closed-loop, via the driver.

    ``operations`` is a sequence of ``(kind, value, think_time)`` triples
    (think time is the pause after the *previous* operation completes);
    ``key`` is the store key ``process`` serves, recorded with every
    operation.
    """

    def __init__(
        self,
        driver: Driver,
        process: RegisterProcess,
        operations: Sequence[Tuple[OperationKind, Any, float]],
        start_delay: float = 0.0,
        key: Any = None,
    ) -> None:
        self.driver = driver
        self.process = process
        self.operations = list(operations)
        self.start_delay = start_delay
        self.key = key
        self.outstanding = len(self.operations)

    def start(self) -> None:
        """Schedule this client's first operation at its start delay."""
        self.driver.simulator.schedule_at(
            self.start_delay, lambda: self._issue(0), label=f"p{self.process.pid} start"
        )

    def _issue(self, index: int) -> None:
        if index >= len(self.operations):
            return
        if self.process.crashed:
            # The client dies with its process; remaining operations are never issued.
            self.outstanding = 0
            return
        kind, value, _think = self.operations[index]
        op = self.driver.new_op(
            kind, value=value, key=self.key, on_done=lambda op, i=index: self._completed(op, i)
        )
        self.driver.submit(self.process, op)

    def _completed(self, op, index: int) -> None:
        if op.failed:  # the process crashed at invocation time; don't chain
            self.outstanding = 0
            return
        self.outstanding = len(self.operations) - index - 1
        next_index = index + 1
        if next_index >= len(self.operations):
            return
        think = self.operations[next_index][2]
        if think > 0:
            self.driver.simulator.schedule_after(
                think, lambda: self._issue(next_index), label=f"p{self.process.pid} think"
            )
        else:
            self._issue(next_index)

    @property
    def done(self) -> bool:
        """Done = no more operations to issue and the last one completed (or crashed)."""
        if self.process.crashed:
            return True
        if self.outstanding > 0:
            return False
        current = self.process.current_operation
        return current is None or current.completed


# ------------------------------------------------------------- isolated mode


@dataclass
class IsolatedOpCost:
    """Cost of one isolated operation (exactly attributable by construction)."""

    kind: OperationKind
    pid: int
    latency: float
    messages: int
    messages_to_completion: int


class IsolatedClient:
    """Issues operations one at a time, globally, quiescing in between.

    Latency and message counts are then exactly attributable to individual
    operations; this is how the Table-1 rows are measured.  Both the
    per-operation wait and the residual drain (forwarded WRITEs, late
    acknowledgements) are bounded by ``max_virtual_time`` — a protocol bug
    that storms messages fails fast (``clean=False``) instead of hanging.
    """

    def __init__(
        self, driver: Driver, network: Transport, max_virtual_time: float, key: Any = None
    ) -> None:
        self.driver = driver
        self.network = network
        self.max_virtual_time = max_virtual_time
        self.key = key
        self.costs: List[IsolatedOpCost] = []

    def run_sequence(
        self, sequence: Sequence[Tuple[RegisterProcess, OperationKind, Any]]
    ) -> bool:
        """Run ``(process, kind, value)`` operations in order; True if all clean."""
        clean = True
        simulator = self.driver.simulator
        stats = self.network.stats
        for process, kind, value in sequence:
            if process.crashed:
                continue
            messages_before = stats.messages_sent
            started_at = simulator.now
            op = self.driver.new_op(kind, value=value, key=self.key)
            self.driver.submit(process, op)
            if op.failed:  # crashed at invocation time
                continue
            completed = self.driver.drive(
                limit=started_at + self.max_virtual_time, predicate=lambda: op.done
            )
            if not completed or not op.completed:
                clean = False
                continue
            messages_at_completion = stats.messages_sent
            # Drain residual dissemination so the next operation starts from a
            # quiescent system and this operation's whole cost is attributed
            # to it — but bound the drain: an unbounded run() here turns a
            # message-storm bug into a hang.
            simulator.run(until=simulator.now + self.max_virtual_time)
            if simulator.pending_events:
                clean = False
                break
            record = op.record
            self.costs.append(
                IsolatedOpCost(
                    kind=kind,
                    pid=process.pid,
                    latency=record.latency if record.latency is not None else float("nan"),
                    messages=stats.messages_sent - messages_before,
                    messages_to_completion=messages_at_completion - messages_before,
                )
            )
        return clean


# ---------------------------------------------------------------- open loop


def _poisson_stream(rng: Random, rate: float, count: int, start: float) -> Iterator[float]:
    t = start
    for _ in range(count):
        t += rng.expovariate(rate)
        yield t


def _uniform_stream(rng: Random, rate: float, count: int, start: float) -> Iterator[float]:
    spread = 2.0 / rate
    t = start
    for _ in range(count):
        t += rng.uniform(0.0, spread)
        yield t


def iter_arrival_times(
    process_name: str, rng: Random, rate: float, count: int, start: float = 0.0
) -> Iterator[float]:
    """Lazy arrival-time stream for ``process_name`` (``"poisson"``/``"uniform"``).

    Argument validation happens eagerly (here, not at first ``next``); the
    times themselves are drawn one at a time from ``rng``, so a million-op
    schedule never exists as a list unless a caller materializes it.
    """
    if process_name not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {process_name!r}; choose from {ARRIVAL_PROCESSES}"
        )
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    stream = _poisson_stream if process_name == "poisson" else _uniform_stream
    return stream(rng, rate, count, start)


def poisson_arrival_times(rng: Random, rate: float, count: int, start: float = 0.0) -> List[float]:
    """``count`` seeded Poisson-process arrival times at ``rate`` ops/time-unit."""
    return list(iter_arrival_times("poisson", rng, rate, count, start=start))


def uniform_arrival_times(rng: Random, rate: float, count: int, start: float = 0.0) -> List[float]:
    """``count`` arrivals with interarrival ~ U(0, 2/rate) (mean rate ``rate``)."""
    return list(iter_arrival_times("uniform", rng, rate, count, start=start))


def arrival_times(
    process_name: str, rng: Random, rate: float, count: int, start: float = 0.0
) -> List[float]:
    """Dispatch on the arrival-process name (``"poisson"`` or ``"uniform"``)."""
    return list(iter_arrival_times(process_name, rng, rate, count, start=start))


class OpenLoopClient:
    """Issues requests at predetermined arrival times, regardless of completions.

    Routing happens *at arrival time* (via ``target.route``) so reads see the
    current set of live replicas even under mid-run crashes.  Operations on a
    busy process queue on the driver's per-process FIFO — queueing delay is
    part of the measured latency, as in a real open-loop load generator.
    """

    def __init__(
        self,
        driver: Driver,
        target: StoreTarget,
        arrivals: Iterable[Tuple[float, OpRequest, Any]],
    ) -> None:
        """``arrivals``: (time, request, value) triples in non-decreasing time order.

        Any iterable is accepted and consumed **lazily**, one triple ahead of
        the firing front — startup memory is O(1) in the number of arrivals,
        so a million-op schedule can stream straight from its seeded
        generator.  A ``Sequence`` is still validated eagerly (the historical
        contract: a bad list raises here, not mid-run); generators are
        validated triple-by-triple as they are pulled.
        """
        self.driver = driver
        self.target = target
        if isinstance(arrivals, Sequence):
            for earlier, later in zip(arrivals, arrivals[1:]):
                if later[0] < earlier[0]:
                    raise ValueError("arrival times must be non-decreasing")
        self.ops: List[ExecOp] = []
        self._source = iter(arrivals)
        self._fired = 0
        self._open = 0
        self._last_time: Optional[float] = None
        self._pending = self._pull()

    def _pull(self) -> Optional[Tuple[float, OpRequest, Any]]:
        """Fetch the next arrival triple, enforcing non-decreasing times."""
        triple = next(self._source, None)
        if triple is None:
            return None
        if self._last_time is not None and triple[0] < self._last_time:
            raise ValueError("arrival times must be non-decreasing")
        self._last_time = triple[0]
        return triple

    def start(self) -> None:
        """Schedule the first arrival (subsequent ones chain event-by-event)."""
        if self._pending is None:
            return
        simulator = self.driver.simulator
        at = max(self._pending[0], simulator.now)
        simulator.schedule_at(at, self._fire, label="open-loop arrival 0")

    def _fire(self) -> None:
        _at, request, value = self._pending
        self._fired += 1
        self._pending = self._pull()
        process = self.target.route(request)
        op = self.driver.new_op(request.kind, value=value, key=request.key, on_done=self._op_done)
        self.ops.append(op)
        # Count before submitting: on_done fires synchronously (and balances
        # the count) when the op fails at issue time.
        self._open += 1
        self.driver.submit(process, op)
        if self._pending is not None:
            simulator = self.driver.simulator
            next_at = max(self._pending[0], simulator.now)
            simulator.schedule_at(next_at, self._fire, label=("open-loop arrival %d", self._fired))

    def _op_done(self, _op: ExecOp) -> None:
        self._open -= 1

    @property
    def all_submitted(self) -> bool:
        """True once every arrival has fired."""
        return self._pending is None

    @property
    def done(self) -> bool:
        """True when every arrival fired and every submitted operation finished."""
        return self._finished()

    def drive(self, limit: Optional[float] = None) -> bool:
        """Run the loop until all arrivals fired and completed (or ``limit``).

        Returns ``False`` when the limit cut the run short (unfired arrivals
        stay unfired; stuck ops are failed by the driver, which fires their
        ``on_done`` and keeps the open count consistent).
        """
        return self.driver.drive(limit=limit, predicate=self._finished)

    def _finished(self) -> bool:
        """:attr:`done` as a bound method: what the driver asks when an operation finishes."""
        return self._pending is None and self._open == 0
