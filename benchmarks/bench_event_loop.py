"""Event-loop hot-path microbenchmark: optimized loop vs the pre-PR2 loop.

PR 2 rebuilt the simulator's hot path — ``__slots__`` events with a
hand-written ``__lt__``, a zero-allocation delivery path in ``Network.send``
(one prebuilt ``_Delivery`` record instead of a closure + eager label
string), guard/observer/tracer fast branches, cached per-class message
accessors in ``NetworkStats.record_send`` and periodic ``EventQueue``
compaction.  This benchmark proves the claim: it runs the same fixed-delay
message-ring microbench through the current loop and through a **verbatim
port of the pre-PR2 hot path** (the ``Legacy*`` classes below, transcribed
from commit 12cf539's ``sim/events.py``, ``sim/scheduler.py``,
``sim/network.py`` and ``sim/process.py``), and reports events/sec for both.

The workload is pure substrate — K processes in a ring forwarding tokens
over ``FixedDelay(1.0)`` channels, every event is one message delivery — so
the ratio isolates per-event loop overhead from protocol logic.

Run modes:

* ``python benchmarks/bench_event_loop.py`` — full run; asserts the >= 2x
  speedup and writes the committed ``BENCH_event_loop.json`` baseline.
* ``python benchmarks/bench_event_loop.py --quick`` — CI smoke: small event
  counts, sanity checks only (equal event counts, speedup measured and
  reported but not asserted — shared CI runners are too noisy for a hard
  ratio gate).
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import pathlib
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

if __package__ is None or __package__ == "":  # run as a plain script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import report
from repro.sim.network import Network
from repro.transport.runtime import ProcessBase as Process
from repro.sim.scheduler import Simulator

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_event_loop.json"

# --------------------------------------------------------------------------
# Legacy baseline: verbatim port of the pre-PR2 hot path (commit 12cf539).
# Kept self-contained in this file so the comparison stays runnable after the
# optimized code evolves further.
# --------------------------------------------------------------------------


@dataclass(order=True)
class LegacyEvent:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)


class LegacyEventQueue:
    def __init__(self) -> None:
        self._heap: list[LegacyEvent] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, action: Callable[[], None], label: str = "") -> LegacyEvent:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        event = LegacyEvent(time=time, seq=next(self._counter), action=action, label=label)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self) -> Optional[LegacyEvent]:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time


class _LegacyTracer:
    enabled = False

    def record(self, time: float, kind: str, source=None, target=None, detail=None) -> None:
        if not self.enabled:
            return


class LegacySimulator:
    def __init__(self, max_events: int = 50_000_000) -> None:
        self._queue = LegacyEventQueue()
        self._now = 0.0
        self._executed = 0
        self._max_events = max_events
        self.tracer = _LegacyTracer()
        self._stopped = False
        self._observers: list = []

    @property
    def now(self) -> float:
        return self._now

    @property
    def executed_events(self) -> int:
        return self._executed

    def schedule_after(self, delay: float, action: Callable[[], None], label: str = ""):
        if delay < 0:
            raise RuntimeError(f"negative delay {delay} for event {label!r}")
        return self._queue.push(self._now + delay, action, label)

    def step(self) -> bool:
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise RuntimeError("event queue produced an event in the past")
        self._now = event.time
        self._executed += 1
        if self._executed > self._max_events:
            raise RuntimeError(f"exceeded max_events={self._max_events}")
        event.action()
        for observer in self._observers:
            observer(self)
        return True

    def drain(self) -> None:
        self._stopped = False
        while not self._stopped:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            self.step()


def _legacy_message_type_name(message: Any) -> str:
    type_tag = getattr(message, "type_name", None)
    if callable(type_tag):
        return str(type_tag())
    if isinstance(type_tag, str):
        return type_tag
    return type(message).__name__


def _legacy_bits(message: Any, attr: str) -> int:
    getter = getattr(message, attr, None)
    if callable(getter):
        return int(getter())
    return 0


@dataclass
class LegacyStats:
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_to_crashed: int = 0
    control_bits_total: int = 0
    data_bits_total: int = 0
    max_control_bits: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)
    per_sender: Dict[int, int] = field(default_factory=dict)

    def record_send(self, src: int, message: Any) -> tuple:
        control = _legacy_bits(message, "control_bits")
        data = _legacy_bits(message, "data_bits")
        self.messages_sent += 1
        self.control_bits_total += control
        self.data_bits_total += data
        self.max_control_bits = max(self.max_control_bits, control)
        name = _legacy_message_type_name(message)
        self.by_type[name] = self.by_type.get(name, 0) + 1
        self.per_sender[src] = self.per_sender.get(src, 0) + 1
        return control, data


class LegacyFixedDelay:
    """Verbatim FixedDelay: the old send path called ``sample`` per message."""

    def __init__(self, delta: float = 1.0) -> None:
        self.delta = delta

    def sample(self, src: int, dst: int) -> float:
        return self.delta


class LegacyChannel:
    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self.in_flight = 0
        self.delivered = 0


class LegacyNetwork:
    def __init__(self, simulator: LegacySimulator, delta: float = 1.0) -> None:
        self.simulator = simulator
        self.delay_model = LegacyFixedDelay(delta)
        self.stats = LegacyStats()
        self.record_messages = False
        self.records: list = []
        self._processes: Dict[int, "LegacyProcess"] = {}
        self._channels: Dict[tuple, LegacyChannel] = {}
        self._delivery_hooks: list = []

    def register(self, process: "LegacyProcess") -> None:
        self._processes[process.pid] = process

    def channel(self, src: int, dst: int) -> LegacyChannel:
        key = (src, dst)
        if key not in self._channels:
            self._channels[key] = LegacyChannel(src, dst)
        return self._channels[key]

    def send(self, src: int, dst: int, message: Any) -> None:
        if src == dst:
            raise ValueError("self-send")
        if dst not in self._processes:
            raise KeyError(f"unknown destination process p{dst}")
        sender = self._processes.get(src)
        if sender is not None and sender.crashed:
            return
        control, data = self.stats.record_send(src, message)
        channel = self.channel(src, dst)
        channel.in_flight += 1
        delay = self.delay_model.sample(src, dst)
        if delay < 0:
            raise ValueError(f"delay model produced negative delay {delay}")
        send_time = self.simulator.now
        self.simulator.tracer.record(send_time, "send", src, dst, message)

        def deliver() -> None:
            channel.in_flight -= 1
            destination = self._processes[dst]
            delivered = not destination.crashed
            if self.record_messages:
                pass  # the microbench never records messages
            if not delivered:
                self.stats.messages_dropped_to_crashed += 1
                return
            self.stats.messages_delivered += 1
            channel.delivered += 1
            self.simulator.tracer.record(self.simulator.now, "deliver", src, dst, message)
            for hook in self._delivery_hooks:
                hook(src, dst, message)
            destination.deliver(src, message)

        self.simulator.schedule_after(delay, deliver, label=f"deliver {message!r} p{src}->p{dst}")


class LegacyProcess:
    def __init__(self, pid: int, simulator: LegacySimulator, network: LegacyNetwork) -> None:
        self.pid = pid
        self.simulator = simulator
        self.network = network
        self.crashed = False
        self._guards: list = []
        self.messages_received = 0
        self.messages_handled = 0
        network.register(self)

    def send(self, dst: int, message: Any) -> None:
        if self.crashed:
            return
        self.network.send(self.pid, dst, message)

    def deliver(self, src: int, message: Any) -> None:
        if self.crashed:
            return
        self.messages_received += 1
        self.on_message(src, message)
        self.messages_handled += 1
        self.check_guards()

    def check_guards(self) -> None:
        # The pre-PR2 scan: even with zero guards it allocates a snapshot list
        # and a replacement list per call, once per delivery.
        if self.crashed:
            return
        progressed = True
        while progressed:
            progressed = False
            for guard in list(self._guards):
                if guard.fired or guard.cancelled:
                    continue
                if guard.predicate():
                    guard.fired = True
                    guard.action()
                    progressed = True
            self._guards = [g for g in self._guards if not g.fired and not g.cancelled]

    def on_message(self, src: int, message: Any) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------
# The microbench: a fixed-delay message ring.
# --------------------------------------------------------------------------


class RingForwarder(Process):
    """Forwards each received token to the next process while budget remains."""

    def __init__(self, pid, simulator, network, ring_size, budget):
        super().__init__(pid, simulator, network)
        self.ring_size = ring_size
        self.budget = budget

    def on_message(self, src: int, message: Any) -> None:
        if self.budget.remaining > 0:
            self.budget.remaining -= 1
            self.send((self.pid + 1) % self.ring_size, message)


class LegacyRingForwarder(LegacyProcess):
    def __init__(self, pid, simulator, network, ring_size, budget):
        super().__init__(pid, simulator, network)
        self.ring_size = ring_size
        self.budget = budget

    def on_message(self, src: int, message: Any) -> None:
        if self.budget.remaining > 0:
            self.budget.remaining -= 1
            self.send((self.pid + 1) % self.ring_size, message)


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining


def run_current(ring_size: int, tokens: int, messages: int) -> tuple[int, float]:
    """Run the ring on the current loop; return (executed events, wall seconds)."""
    simulator = Simulator(max_events=max(10_000_000, messages * 2))
    network = Network(simulator)  # FixedDelay(1.0) default
    budget = _Budget(messages)
    processes = [
        RingForwarder(pid, simulator, network, ring_size, budget) for pid in range(ring_size)
    ]
    started = time.perf_counter()
    for token in range(tokens):
        network.send(token % ring_size, (token % ring_size + 1) % ring_size, ("TOKEN", token))
    simulator.drain()
    elapsed = time.perf_counter() - started
    assert all(not p.crashed for p in processes)
    return simulator.executed_events, elapsed


def run_legacy(ring_size: int, tokens: int, messages: int) -> tuple[int, float]:
    """Run the identical ring on the pre-PR2 loop; return (events, seconds)."""
    simulator = LegacySimulator(max_events=max(10_000_000, messages * 2))
    network = LegacyNetwork(simulator)
    budget = _Budget(messages)
    for pid in range(ring_size):
        LegacyRingForwarder(pid, simulator, network, ring_size, budget)
    started = time.perf_counter()
    for token in range(tokens):
        network.send(token % ring_size, (token % ring_size + 1) % ring_size, ("TOKEN", token))
    simulator.drain()
    elapsed = time.perf_counter() - started
    return simulator.executed_events, elapsed


def bench(quick: bool = False, repeats: int = 3) -> dict:
    """Run the comparison and return the result payload (also printed)."""
    ring_size = 8
    tokens = 8
    messages = 30_000 if quick else 400_000

    def best(runner) -> tuple[int, float]:
        runs = [runner(ring_size, tokens, messages) for _ in range(repeats)]
        events = runs[0][0]
        assert all(run[0] == events for run in runs), "nondeterministic event count"
        return events, min(seconds for _, seconds in runs)

    current_events, current_seconds = best(run_current)
    legacy_events, legacy_seconds = best(run_legacy)
    assert current_events == legacy_events, (
        f"loop refactor changed the event count: {current_events} != {legacy_events}"
    )
    current_rate = current_events / current_seconds
    legacy_rate = legacy_events / legacy_seconds
    speedup = current_rate / legacy_rate
    report(
        f"Event-loop hot path — fixed-delay ring, {current_events} events (best of {repeats})",
        ["loop", "events", "seconds", "events/sec"],
        [
            ["optimized (PR 2)", current_events, round(current_seconds, 3), int(current_rate)],
            ["legacy (pre-PR2)", legacy_events, round(legacy_seconds, 3), int(legacy_rate)],
            ["speedup", "-", "-", f"{speedup:.2f}x"],
        ],
    )
    return {
        "benchmark": "event_loop_fixed_delay_ring",
        "mode": "quick" if quick else "full",
        "ring_size": ring_size,
        "tokens": tokens,
        "events": current_events,
        "optimized_events_per_sec": round(current_rate),
        "legacy_events_per_sec": round(legacy_rate),
        "speedup": round(speedup, 3),
        "repeats": repeats,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def test_event_loop_speedup_quick():
    """Smoke: both loops execute the identical event sequence (ratio not asserted)."""
    payload = bench(quick=True, repeats=2)
    assert payload["speedup"] > 1.0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode: small run, no ratio gate")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help=f"write the JSON payload here (default: {DEFAULT_OUT} in full mode, nowhere in quick mode)",
    )
    args = parser.parse_args(argv)
    payload = bench(quick=args.quick)
    out = args.out
    if out is None and not args.quick:
        out = DEFAULT_OUT
    if out is not None:
        out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {out}")
    if not args.quick and payload["speedup"] < 2.0:
        print(f"FAIL: speedup {payload['speedup']}x < 2x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
