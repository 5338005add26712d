"""Crash-failure injection.

The model parameter ``t`` bounds the number of processes that may crash in a
run; the algorithms under test require ``t < n/2`` (a majority of processes
stays correct).  This module provides:

* :class:`CrashSchedule` — a declarative description of which processes crash
  and when (absolute virtual time, or "after the k-th message it sends"),
  with validation against ``t < n/2``;
* :class:`FailureInjector` — installs a schedule into a simulation;
* helpers to generate random (seeded) schedules for property-based tests.

Crash semantics themselves live in :class:`~repro.transport.runtime.ProcessBase` /
:class:`~repro.sim.network.Network`: a crashed process stops taking steps and
messages addressed to it are dropped at delivery time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.sim.network import Network
from repro.sim.rng import make_rng
from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class CrashEvent:
    """One planned crash.

    Exactly one of ``at_time`` / ``after_messages_sent`` must be set:

    * ``at_time`` — crash at that absolute virtual time;
    * ``after_messages_sent`` — crash immediately after the process has sent
      that many messages (an adversarial, execution-dependent trigger; useful
      to crash the writer mid-broadcast, which is the interesting corner of
      the write algorithm).
    """

    pid: int
    at_time: Optional[float] = None
    after_messages_sent: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.at_time is None) == (self.after_messages_sent is None):
            raise ValueError(
                "exactly one of at_time / after_messages_sent must be provided"
            )
        if self.at_time is not None and self.at_time < 0:
            raise ValueError("crash time must be non-negative")
        if self.after_messages_sent is not None and self.after_messages_sent < 0:
            raise ValueError("message-count trigger must be non-negative")


@dataclass
class CrashSchedule:
    """A set of planned crashes, at most one per process."""

    events: list[CrashEvent] = field(default_factory=list)

    @classmethod
    def none(cls) -> "CrashSchedule":
        """The failure-free schedule."""
        return cls(events=[])

    @classmethod
    def at_times(cls, crashes: dict[int, float]) -> "CrashSchedule":
        """Build a schedule from a ``{pid: crash_time}`` mapping."""
        return cls(events=[CrashEvent(pid=pid, at_time=when) for pid, when in sorted(crashes.items())])

    @classmethod
    def after_messages(cls, crashes: dict[int, int]) -> "CrashSchedule":
        """Build a schedule from a ``{pid: sent-message-count}`` mapping."""
        return cls(
            events=[
                CrashEvent(pid=pid, after_messages_sent=count)
                for pid, count in sorted(crashes.items())
            ]
        )

    @property
    def crashed_pids(self) -> list[int]:
        """Ids of processes that this schedule will crash."""
        return sorted({event.pid for event in self.events})

    def __len__(self) -> int:
        return len(self.events)

    def validate(self, n: int, writer_pid: Optional[int] = None, allow_writer_crash: bool = True) -> None:
        """Check the schedule against the model constraints.

        Raises ``ValueError`` if a pid is out of range, a process crashes
        twice, more than a minority of processes crash, or (when
        ``allow_writer_crash`` is false) the writer is scheduled to crash.
        """
        seen: set[int] = set()
        for event in self.events:
            if not 0 <= event.pid < n:
                raise ValueError(f"crash schedule references unknown process p{event.pid}")
            if event.pid in seen:
                raise ValueError(f"process p{event.pid} is scheduled to crash twice")
            seen.add(event.pid)
        max_faulty = (n - 1) // 2  # largest t with t < n/2
        if len(seen) > max_faulty:
            raise ValueError(
                f"schedule crashes {len(seen)} of {n} processes; the model requires "
                f"at most t = {max_faulty} (t < n/2)"
            )
        if not allow_writer_crash and writer_pid is not None and writer_pid in seen:
            raise ValueError("schedule crashes the writer but allow_writer_crash is False")


class FailureInjector:
    """Installs a :class:`CrashSchedule` into a running simulation.

    ``crash(pid)`` defaults to the process's own ``crash``; a deployment with
    a crash domain to keep in step (a store shard) passes its own.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        schedule: CrashSchedule,
        crash: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.schedule = schedule
        self._crash = crash or (lambda pid: network.process(pid).crash())
        self._installed = False

    def install(self) -> None:
        """Schedule all crash events (idempotent)."""
        if self._installed:
            return
        self._installed = True
        for event in self.schedule.events:
            if event.at_time is not None:
                self._install_timed(event)
            else:
                self._install_message_triggered(event)

    def _install_timed(self, event: CrashEvent) -> None:
        self.simulator.schedule_at(
            event.at_time if event.at_time >= self.simulator.now else self.simulator.now,
            lambda: self._crash(event.pid),
            label=f"crash p{event.pid}",
        )

    def _install_message_triggered(self, event: CrashEvent) -> None:
        process = self.network.process(event.pid)
        threshold = event.after_messages_sent or 0
        # Degenerate case: crash before sending anything.
        if threshold == 0:
            self._crash(event.pid)
            return
        pid = event.pid
        stats = self.network.stats

        # A send hook (not a post-event observer): the crash fires *at* the
        # k-th send, before the same event can emit the (k+1)-th — crashing a
        # writer genuinely mid-broadcast.  The k-th message itself is already
        # in flight (crashing does not retract messages); once crashed, the
        # sender's Network.send is a no-op, so the hook goes inert and the
        # crash fires exactly once.
        def on_send(src: int, _dst: int, _message: object) -> None:
            if src == pid and not process.crashed:
                if stats.per_sender.get(pid, 0) >= threshold:
                    self._crash(pid)

        self.network.add_send_hook(on_send)


def random_crash_schedule(
    n: int,
    seed: int,
    max_crashes: Optional[int] = None,
    horizon: float = 50.0,
    exclude: Sequence[int] = (),
) -> CrashSchedule:
    """Generate a random schedule crashing up to a minority of processes.

    Parameters
    ----------
    n:
        Number of processes.
    seed:
        RNG seed (schedules are reproducible).
    max_crashes:
        Upper bound on the number of crashes; defaults to ``(n - 1) // 2``.
    horizon:
        Crash times are drawn uniformly from ``[0, horizon]``.
    exclude:
        Process ids that must not crash (e.g. the writer in liveness tests
        that require the write to terminate).
    """
    rng = make_rng(seed, "crash-schedule", n, horizon, tuple(exclude))
    limit = (n - 1) // 2 if max_crashes is None else min(max_crashes, (n - 1) // 2)
    candidates = [pid for pid in range(n) if pid not in set(exclude)]
    rng.shuffle(candidates)
    count = rng.randint(0, min(limit, len(candidates)))
    chosen = sorted(candidates[:count])
    return CrashSchedule.at_times({pid: round(rng.uniform(0.0, horizon), 3) for pid in chosen})
