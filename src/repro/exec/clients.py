"""The client: how a script's operations arrive at the unified driver.

:class:`OpenLoopClient` fires the entries of an ``(at, request, value)``
script, each by one of two start rules:

* **at a time** — ``at`` is a virtual time: the entry fires then, regardless
  of completions (seeded Poisson or uniform arrivals,
  :func:`iter_arrival_times`).  This decouples offered load from service
  rate, which is what throughput-vs-offered-load scenarios need; overload
  shows up as queueing delay on the per-process FIFOs instead of silently
  throttling the client.
* **after its predecessor** — ``at`` is :class:`After` ``(delay)``: the
  entries routed to one process (a pinned replica of a key) form a chain,
  that process's own closed loop.  Each starts ``delay`` after the previous
  one finished (the first, ``delay`` after the client started: a start
  delay, then think times).  A chain stops with its process: once it has
  crashed no further operation is created, and the one in flight stays
  pending (crash-stop) without holding up the run.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from random import Random
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.driver import Driver
from repro.exec.target import OpRequest, StoreTarget
from repro.registers.base import OperationRecord, RegisterProcess

#: Supported open-loop arrival processes.
ARRIVAL_PROCESSES = ("poisson", "uniform")


class After(float):
    """An entry's ``at`` that chains it: start this long after the previous
    entry on the same process (the same pinned replica of a key) finished."""

    __slots__ = ()


class _Chain:
    """The chained entries one process serves, issued one at a time."""

    __slots__ = ("process", "entries", "busy", "op")

    def __init__(self, process: RegisterProcess) -> None:
        self.process = process
        self.entries: Deque[Tuple[After, OpRequest, Any]] = deque()
        self.busy = False  # an entry is scheduled or in flight
        self.op: Optional[OperationRecord] = None  # the entry in flight


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


class OpenLoopClient:
    """Fires a script's entries at their times, and its chains one after another.

    A timed entry is routed *at fire time* (via ``target.route``) so reads
    see the current set of live replicas even under mid-run crashes.
    Operations on a busy process queue on the driver's per-process FIFO —
    queueing delay is part of the measured latency, as in a real open-loop
    load generator.
    """

    def __init__(
        self,
        driver: Driver,
        target: StoreTarget,
        arrivals: Iterable[Tuple[float, OpRequest, Any]],
    ) -> None:
        """``arrivals``: (at, request, value) triples, timed ones in non-decreasing order.

        Any iterable is accepted and consumed **lazily**, up to one timed
        triple ahead of the firing front — startup memory is O(1) in the
        number of arrivals, so a million-op schedule can stream straight
        from its seeded generator.  A ``Sequence`` is still validated
        eagerly (the historical contract: a bad list raises here, not
        mid-run); generators are validated triple-by-triple as they are
        pulled.  A chained triple is routed as it is pulled, and joins the
        chain of its process.
        """
        self.driver = driver
        self.target = target
        if isinstance(arrivals, Sequence):
            times = [entry[0] for entry in arrivals if type(entry[0]) is not After]
            for earlier, later in zip(times, times[1:]):
                if later < earlier:
                    raise ValueError("arrival times must be non-decreasing")
        self.ops: List[OperationRecord] = []
        self._source = iter(arrivals)
        self._fired = 0
        self._open = 0
        self._last_time: Optional[float] = None
        self._chains: Dict[RegisterProcess, _Chain] = {}
        self._started = False
        self._pending = self._pull()

    def _pull(self) -> Optional[Tuple[float, OpRequest, Any]]:
        """Fetch the next timed triple, enforcing non-decreasing times."""
        for triple in self._source:
            at = triple[0]
            if type(at) is After:
                self._join(triple)
                continue
            if self._last_time is not None and at < self._last_time:
                raise ValueError("arrival times must be non-decreasing")
            self._last_time = at
            return triple
        return None

    def _join(self, triple: Tuple[After, OpRequest, Any]) -> None:
        process = self.target.route(triple[1])
        chain = self._chains.get(process)
        if chain is None:
            chain = self._chains[process] = _Chain(process)
        chain.entries.append(triple)
        if self._started and not chain.busy:
            self._schedule(chain)

    def start(self) -> None:
        """Schedule each chain's first entry, then the first arrival."""
        self._started = True
        for chain in self._chains.values():
            self._schedule(chain)
        if self._pending is None:
            return
        simulator = self.driver.clock
        at = max(self._pending[0], simulator.now)
        simulator.schedule_at(at, self._fire, label="open-loop arrival 0")

    def _fire(self) -> None:
        _at, request, value = self._pending
        self._fired += 1
        self._pending = self._pull()
        process = self.target.route(request)
        op = self.driver.new_op(request.kind, value, request.key, self._op_done)
        self.ops.append(op)
        # Count before submitting: on_done fires synchronously (and balances
        # the count) when the op fails at issue time.
        self._open += 1
        self.driver.submit(process, op)
        if self._pending is not None:
            simulator = self.driver.clock
            next_at = max(self._pending[0], simulator.now)
            simulator.schedule_at(next_at, self._fire, label=("open-loop arrival %d", self._fired))

    def _op_done(self, _op: OperationRecord) -> None:
        self._open -= 1

    # ------------------------------------------------------------- chains

    def _schedule(self, chain: _Chain) -> None:
        chain.busy = True
        self.driver.clock.schedule_after(
            chain.entries[0][0], partial(self._issue, chain),
            label=("p%d chained entry", chain.process.pid),
        )

    def _issue(self, chain: _Chain) -> None:
        _delay, request, value = chain.entries.popleft()
        if chain.process.crashed:  # the chain stops with its process
            chain.entries.clear()
            chain.busy = False
            return
        op = chain.op = self.driver.new_op(
            request.kind, value, request.key, partial(self._chain_next, chain)
        )
        self.ops.append(op)
        self.driver.submit(chain.process, op)

    def _chain_next(self, chain: _Chain, op: OperationRecord) -> None:
        chain.op = None
        if op.failed:  # the driver found it stalled: the chain stops, unfinished
            chain.entries.clear()
        elif not chain.entries:
            chain.busy = False
        elif chain.entries[0][0] > 0:
            self._schedule(chain)
        else:  # no think time: issue inside the completion callback
            self._issue(chain)

    # ------------------------------------------------------------ driving

    def drive(self, limit: Optional[float] = None) -> bool:
        """Run the loop until :meth:`finished` (or ``limit``).

        Returns ``False`` when the limit cut the run short (unfired arrivals
        stay unfired; stuck ops are failed by the driver, which fires their
        ``on_done`` and keeps the open count consistent).  A chain whose
        process crashed leaves its operation pending, without its ``on_done``.
        """
        finished = self.driver.drive(limit=limit, predicate=self.finished)
        for chain in self._chains.values():
            if chain.op is not None and chain.process.crashed:
                # Its process will never complete it: the continuation would
                # only tie the pending record (in ``ops``) back to the client.
                chain.op.on_done = None
        return finished

    def finished(self) -> bool:
        """Every timed entry fired and finished, and every chain ran out of
        entries or lost its process (asked by the driver as operations finish)."""
        return self._pending is None and self._open == 0 and (
            not self._chains
            or all(not chain.busy or chain.process.crashed for chain in self._chains.values())
        )
