"""The benchmark's yardstick for the speed of the box, and the arithmetic on it.

The reference box is a shared 2-core VM that runs the *same* code at speeds
up to 1.5x apart for seconds to minutes at a time, depending on what the
host's other tenants do (README, "Speed-normalised wall-clock numbers").  No
statistic of raw wall-clock times survives that: the best repetition of a
12-second run moved by 45% across one such episode.  So every timed section
of a run is bracketed by :func:`calibrate` — a frozen miniature of the
program's own kind of work (a heap-driven message-passing simulation: heap
pushes and pops, small objects, dict and attribute traffic) that no change
under ``src/`` can touch — and a wall-clock number is reported *at reference
speed*: scaled by ``REFERENCE_SECONDS / (calibration time around it)``.  The
ratio held within +-5% (quartiles) over the same episode.

This file is the unit of measurement: changing the work :func:`calibrate`
does, or ``REFERENCE_SECONDS``, rescales every wall-clock number ever
reported and needs a new baseline.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import List

#: What :func:`calibrate` takes on the reference box when nothing contends
#: with it.  Fixes the scale of the normalised numbers, nothing else.
REFERENCE_SECONDS = 0.0465

_OPS = 4000
_PROCESSES = 5


class _Message:
    __slots__ = ("src", "dst", "kind", "seq", "value")

    def __init__(self, src: int, dst: int, kind: int, seq: int, value: object) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.value = value


class _Process:
    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.n = n
        self.acks: dict = {}
        self.store: dict = {}
        self.log: list = []

    def on_message(self, sim: "_MiniSim", msg: _Message) -> None:
        if msg.kind == 0:
            self.store[msg.seq & 1023] = msg.value
            self.log.append((msg.seq, msg.src))
            sim.send(_Message(self.pid, msg.src, 1, msg.seq, None))
        else:
            count = self.acks.get(msg.seq, 0) + 1
            if count * 2 > self.n:
                self.acks.pop(msg.seq, None)
                sim.completed += 1
            else:
                self.acks[msg.seq] = count


class _MiniSim:
    def __init__(self, n: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.heap: list = []
        self.now = 0.0
        self.counter = 0
        self.completed = 0
        self.processes = [_Process(pid, n) for pid in range(n)]

    def send(self, msg: _Message) -> None:
        self.counter += 1
        heapq.heappush(self.heap, (self.now + 0.2 + 0.8 * self.rng.random(), self.counter, msg))

    def drain(self) -> None:
        heap, processes, pop = self.heap, self.processes, heapq.heappop
        while heap:
            self.now, _, msg = pop(heap)
            processes[msg.dst].on_message(self, msg)

    def run(self, ops: int) -> int:
        n = len(self.processes)
        for seq in range(ops):
            src = seq % n
            for dst in range(n):
                self.send(_Message(src, dst, 0, seq, "v%d" % seq))
            if seq % 16 == 15:
                self.drain()
        self.drain()
        return self.completed


def calibrate() -> float:
    """Run the fixed piece of work once; return the wall seconds it took."""
    t0 = time.perf_counter()
    completed = _MiniSim(_PROCESSES, 7).run(_OPS)
    elapsed = time.perf_counter() - t0
    if completed != _OPS:
        raise RuntimeError(f"calibration completed {completed} of {_OPS} broadcasts")
    return elapsed


class Speedometer:
    """Calibration readings taken around the timed sections of one run.

    ``tick()`` before every timed section and once after the last; section
    *i* lies between readings *i* and *i + 1*.  Its slowdown is the median of
    the two readings on either side of it (a single reading jitters by as
    much as a repetition does) over ``REFERENCE_SECONDS``: 1.0 on the quiet
    reference box, 1.4 when the box runs everything 1.4x slower.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def tick(self) -> int:
        """Take a reading; returns the index of the section it opens."""
        self.readings.append(calibrate())
        return len(self.readings) - 1

    def slowdown(self, section: int) -> float:
        if not 0 <= section < len(self.readings) - 1:
            raise IndexError(f"section {section} is not bracketed by readings")
        around = self.readings[max(0, section - 1) : section + 3]
        return statistics.median(around) / REFERENCE_SECONDS

    def median_slowdown(self) -> float:
        return statistics.median(self.readings) / REFERENCE_SECONDS
