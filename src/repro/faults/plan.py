"""Link policies and fault plans: the declarative core of the fault plane.

A :class:`LinkPolicy` reshapes the delay of individual messages at send time
(``Network.send`` consults ``network.link_policy``); a :class:`FaultPlan`
bundles link policies with an optional :class:`~repro.sim.failures.CrashSchedule`
into one installable, reusable description of an adversarial run.

**Reliability preservation.**  The paper's channels are reliable and
asynchronous: delays are finite but unbounded (DESIGN §1).  Every policy in
this package is therefore required to return a *finite, non-negative* delay
for every message — partitions must heal (:class:`~repro.faults.partitions.PartitionWindow`
rejects an infinite heal time), storms must end, slowdown factors must be
finite.  ``Network.send`` enforces the same contract at runtime.  Under this
constraint a faulted execution is just an adversarial assignment of legal
delays, so every guarantee the algorithms give under ``t < n/2`` crashes
(atomicity, termination of operations by correct processes) must still hold
— which is exactly what the chaos sweeps check.

Policies are **pure**: ``adjust`` depends only on ``(src, dst, now, delay)``,
never on hidden RNG state, so the same plan applied to the same seeded run
reproduces the same execution record-by-record.

**Interplay with message coalescing.**  ``Network.send`` consults the link
policy *per logical message, before* the coalescing key is computed, so with
coalescing enabled (the store's default) policies still see and reshape
every individual message: a partition-held message is simply scheduled at
its healed delivery instant and coalesces with whatever else arrives there.
Coalescing can never merge messages a policy separated, nor hide one from a
policy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.failures import CrashSchedule


class LinkPolicy(abc.ABC):
    """Reshapes per-message delays on a :class:`~repro.sim.network.Network`.

    Subclasses must keep :meth:`adjust` pure (a function of its arguments
    only) and must always return a finite, non-negative delay — channels stay
    reliable, only the asynchrony is exercised.
    """

    @abc.abstractmethod
    def adjust(self, src: int, dst: int, now: float, delay: float) -> float:
        """Return the (possibly inflated) delay for a ``src -> dst`` message sent at ``now``."""

    def quiescent_after(self) -> float:
        """Virtual time after which this policy no longer adjusts any message."""
        return 0.0

    def validate(self, n: int) -> None:
        """Check the policy against a deployment of ``n`` processes (pids ``0..n-1``)."""

    def describe(self) -> List[Dict[str, Any]]:
        """Timeline annotation entries (plain dicts) for metrics snapshots."""
        return []


@dataclass(frozen=True)
class CompositeLinkPolicy(LinkPolicy):
    """Applies several policies in order, threading the delay through each."""

    policies: Tuple[LinkPolicy, ...]

    def adjust(self, src: int, dst: int, now: float, delay: float) -> float:
        for policy in self.policies:
            delay = policy.adjust(src, dst, now, delay)
        return delay

    def quiescent_after(self) -> float:
        return max((policy.quiescent_after() for policy in self.policies), default=0.0)

    def validate(self, n: int) -> None:
        for policy in self.policies:
            policy.validate(n)

    def describe(self) -> List[Dict[str, Any]]:
        entries: List[Dict[str, Any]] = []
        for policy in self.policies:
            entries.extend(policy.describe())
        return entries


@dataclass(frozen=True)
class FaultPlan:
    """A reusable description of one adversarial network condition.

    ``link_policies`` are applied (in order) to every message; the optional
    ``crash_schedule`` composes crash failures with them (e.g. a process
    crashing *during* a partition window).  Plans are immutable and pure, so
    the same plan + the same seeded workload reproduces the same run.

    Register-level runs install the whole plan (crashes included) via the
    workload runner; the sharded store accepts link policies only — server
    crashes there are expressed with the existing
    :class:`~repro.workloads.kv.CrashPoint` / ``crash_server_at`` machinery
    because a store crash needs a (shard, replica) coordinate, not a pid.
    """

    name: str = ""
    link_policies: Tuple[LinkPolicy, ...] = ()
    crash_schedule: Optional[CrashSchedule] = None

    def policy(self) -> Optional[LinkPolicy]:
        """The single link policy to install (``None`` when there is none)."""
        if not self.link_policies:
            return None
        if len(self.link_policies) == 1:
            return self.link_policies[0]
        return CompositeLinkPolicy(self.link_policies)

    def quiescent_after(self) -> float:
        """Virtual time after which no policy adjusts messages any more.

        Crash times are deliberately excluded: a crash needs no settling time
        of its own, while a heal does (held messages land right after it).
        """
        return max((policy.quiescent_after() for policy in self.link_policies), default=0.0)

    def validate(
        self,
        n: int,
        writer_pid: Optional[int] = None,
        allow_writer_crash: bool = True,
    ) -> None:
        """Validate every policy and the crash schedule against ``n`` processes."""
        for policy in self.link_policies:
            policy.validate(n)
        if self.crash_schedule is not None:
            self.crash_schedule.validate(
                n, writer_pid=writer_pid, allow_writer_crash=allow_writer_crash
            )

    def timeline(self) -> List[Dict[str, Any]]:
        """All fault events as plain dicts, sorted by start time.

        This is the annotation :class:`~repro.exec.metrics.MetricsCollector`
        embeds in snapshots (and the chaos sweep in ``chaos_report.json``) so
        a latency spike can be read against the faults that caused it.
        """
        entries: List[Dict[str, Any]] = []
        for policy in self.link_policies:
            entries.extend(policy.describe())
        if self.crash_schedule is not None:
            for event in self.crash_schedule.events:
                if event.at_time is not None:
                    entries.append({"fault": "crash", "pid": event.pid, "at": event.at_time})
                else:
                    entries.append(
                        {
                            "fault": "crash",
                            "pid": event.pid,
                            "after_messages_sent": event.after_messages_sent,
                        }
                    )
        entries.sort(key=lambda entry: (entry.get("at", entry.get("start", 0.0)) or 0.0))
        return entries
