"""Link policies, fault plans and crash points: the declarative fault plane.

A :class:`LinkPolicy` reshapes the delay of individual messages at send time
(``Network.send`` consults ``network.link_policy``); a :class:`FaultPlan`
bundles link policies into one installable, reusable description of an
adversarial network.  A :class:`CrashPoint` is the adversary's other choice
— which process crashes, and when — and the only crash type there is:
:func:`validate_crash_points` checks a set of them against the model when a
spec is built, :func:`install_crash_points` schedules them on a run.

**Reliability preservation.**  The paper's channels are reliable and
asynchronous: delays are finite but unbounded (DESIGN §1).  Every policy in
this package is therefore required to return a *finite, non-negative* delay
for every message — partitions must heal (:class:`~repro.faults.partitions.PartitionWindow`
rejects an infinite heal time), storms must end, slowdown factors must be
finite.  ``Network.send`` enforces the same contract at runtime.  Under this
constraint a faulted execution is just an adversarial assignment of legal
delays, so every guarantee the algorithms give under ``t < n/2`` crashes
(atomicity, termination of operations by correct processes) must still hold
— which is exactly what ``repro explore --strategy faults`` checks.

Policies are **deterministic in send order** and pure, one object for every
subnet, so the same plan applied to the same seeded run reproduces the same
execution record-by-record.

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
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class LinkPolicy(abc.ABC):
    """Reshapes per-message delays on a :class:`~repro.sim.network.Network`.

    Subclasses must keep :meth:`adjust` deterministic in send order and
    must always return a finite, non-negative delay — channels stay
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
        return [entry for policy in self.policies for entry in policy.describe()]


@dataclass(frozen=True)
class FaultPlan:
    """A reusable description of one adversarial network condition.

    ``link_policies`` are applied (in order) to every message, keyed by
    replica index, so one plan serves a register (whose pids are its
    replicas) and every key of a store alike.  Crashes are not part of a
    plan: they are :class:`CrashPoint` s beside it.  Plans are immutable, so
    the same plan + the same seeded workload reproduces the same run.
    """

    name: str = ""
    link_policies: Tuple[LinkPolicy, ...] = ()

    def policy(self) -> Optional[LinkPolicy]:
        """The single link policy to install (``None`` when there is none)."""
        if not self.link_policies:
            return None
        if len(self.link_policies) == 1:
            return self.link_policies[0]
        return CompositeLinkPolicy(self.link_policies)

    def quiescent_after(self) -> float:
        """Virtual time after which no policy adjusts messages any more."""
        return CompositeLinkPolicy(self.link_policies).quiescent_after()

    def validate(self, n: int) -> None:
        """Validate every policy against ``n`` processes."""
        CompositeLinkPolicy(self.link_policies).validate(n)

    def timeline(self) -> List[Dict[str, Any]]:
        """All fault events as plain dicts, sorted by start time.

        This is the annotation :class:`~repro.exec.metrics.MetricsCollector`
        embeds in snapshots, so a latency spike can be read against the
        faults that caused it.  Sorting loses the policies' order, so the
        serial form is :meth:`to_dict`, not this.
        """
        entries = CompositeLinkPolicy(self.link_policies).describe()
        return sorted(entries, key=lambda entry: (entry.get("at", entry.get("start", 0.0)) or 0.0))

    def to_dict(self) -> Dict[str, Any]:
        """The plan as plain data: its fault entries in policy order (a delay
        threads through the policies in order, so the order is part of the
        plan).  A partition schedule gives one entry per window."""
        entries = CompositeLinkPolicy(self.link_policies).describe()
        return {"name": self.name, "link_policies": entries}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict`'s form."""
        from repro.faults.partitions import PartitionSchedule
        from repro.faults.storms import DelayStorm

        kinds = {"partition": PartitionSchedule, "delay_storm": DelayStorm}
        try:
            policies = [kinds[e["fault"]].from_dict(e) for e in payload["link_policies"]]
        except KeyError as missing:
            raise ValueError(f"fault plan: unknown policy or missing field {missing}") from None
        return cls(name=payload.get("name", ""), link_policies=tuple(policies))


@dataclass(frozen=True)
class CrashPoint:
    """One planned crash: replica ``replica`` of shard ``shard``.

    A register is shard 0 of a one-shard store, so its process ``p_i`` is
    ``CrashPoint(shard=0, replica=i, ...)``.  Exactly one trigger is set:

    * ``at_time`` — crash at that absolute virtual time (a time already past
      when installed fires at once);
    * ``after_messages_sent`` — crash right after the replica's k-th send, an
      execution-dependent adversary that can kill a writer mid-broadcast.
      The count is the replica index's ``NetworkStats.per_sender`` entry,
      which every subnet of a store shares — so on a store it counts the
      sends of that replica index across every key and shard; on a register
      (one key) it is the process's own sends.  ``0`` crashes it before it
      sends anything.

    Replica 0 hosts every key's writer; crashing it needs ``allow_writer``.
    """

    shard: int
    replica: int
    allow_writer: bool = False
    at_time: Optional[float] = None
    after_messages_sent: Optional[int] = None


def validate_crash_points(
    points: Sequence[CrashPoint], num_shards: int, replication: int
) -> None:
    """Check crash points against the model; raise ``ValueError`` on the first fault.

    Each point needs exactly one non-negative trigger and a ``(shard,
    replica)`` inside the geometry; no pair crashes twice; a shard loses at
    most ``t = (replication - 1) // 2`` replicas (``t < n/2``); replica 0 —
    the writer — crashes only with ``allow_writer``.
    """
    budget = (replication - 1) // 2
    per_shard: Dict[int, set] = {}
    for point in points:
        triggers = [t for t in (point.at_time, point.after_messages_sent) if t is not None]
        if len(triggers) != 1:
            raise ValueError(
                f"{point}: exactly one of at_time / after_messages_sent must be set"
            )
        if triggers[0] < 0:
            raise ValueError(f"{point}: the crash trigger must be non-negative")
        if not 0 <= point.shard < num_shards:
            raise ValueError(f"{point}: shard out of range for {num_shards} shard(s)")
        if not 0 <= point.replica < replication:
            raise ValueError(f"{point}: replica out of range for replication {replication}")
        crashed = per_shard.setdefault(point.shard, set())
        if point.replica in crashed:
            raise ValueError(
                f"replica {point.replica} of shard {point.shard} is scheduled to crash twice"
            )
        crashed.add(point.replica)
        if len(crashed) > budget:
            raise ValueError(
                f"shard {point.shard} would lose {len(crashed)} replica(s); replication "
                f"{replication} tolerates at most t = {budget} (t < n/2)"
            )
        if point.replica == 0 and not point.allow_writer:
            raise ValueError(
                f"{point}: replica 0 hosts every key's writer; crashing it halts "
                "every write — set allow_writer=True to do it anyway"
            )


def install_crash_points(
    points: Sequence[CrashPoint],
    clock: Any,
    network: Any,
    crash: Callable[[CrashPoint], None],
) -> None:
    """Schedule ``points`` on a run: ``crash(point)`` fires each one.

    ``clock`` schedules the timed points (``schedule_at``); a message-count
    point becomes a send hook on ``network`` reading ``network.stats`` — a
    hook, not a post-event observer, so the crash lands *at* the k-th send,
    before the same step can emit the next one (the k-th message itself is
    already in flight: crashing does not retract it).  A zero count crashes
    at once.
    """
    for point in points:
        if point.at_time is not None:
            clock.schedule_at(
                max(point.at_time, clock.now),
                partial(crash, point),
                label=("crash shard%d/replica%d", point.shard, point.replica),
            )
        elif point.after_messages_sent == 0:
            crash(point)
        else:
            network.add_send_hook(_crash_on_send(point, network.stats, crash))


def _crash_on_send(
    point: CrashPoint, stats: Any, crash: Callable[[CrashPoint], None]
) -> Callable[[int, int, Any], None]:
    replica, threshold = point.replica, point.after_messages_sent
    fired = False

    def on_send(src: int, _dst: int, _message: Any) -> None:
        nonlocal fired
        if src == replica and not fired and stats.per_sender.get(replica, 0) >= threshold:
            fired = True
            crash(point)

    return on_send
