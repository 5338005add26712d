"""Partitions that heal: declarative network splits with finite heal times.

A :class:`PartitionWindow` splits the listed processes into disjoint groups
for the interval ``[start, heal)``; a message crossing group boundaries
during the window is *held* and delivered only after the heal (its normal
transfer delay resumes from the heal instant).  Processes not listed in any
group are unaffected — they keep talking to everyone (useful for splits that
only concern a register's replicas while clients stay connected).

**Mandatory heal.**  ``heal`` must be finite: an everlasting partition would
silently drop messages, violating the reliable-channel model (DESIGN §1) and
voiding every guarantee of the algorithms under test.  With a finite heal,
every held message still has a finite delivery bound (``heal - send_time +
base_delay``), so a partitioned run is just an adversarial — but legal —
asynchronous execution.

The hold applies at *send* time: messages already in flight when a window
opens were "already on the wire" and are delivered normally.  Either
behaviour is a legal delay assignment; this one keeps the hook zero-cost for
in-flight traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.faults.plan import LinkPolicy


@dataclass(frozen=True)
class PartitionWindow:
    """One split: ``groups`` cannot exchange messages during ``[start, heal)``.

    ``groups`` are disjoint, non-empty tuples of pids.  A message is blocked
    iff its source and destination are both listed and lie in *different*
    groups; unlisted pids are unaffected.
    """

    groups: Tuple[Tuple[int, ...], ...]
    start: float
    heal: float
    #: pid -> group index, precomputed for the per-message fast path.
    _group_of: Dict[int, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"partition start must be non-negative, got {self.start}")
        if not self.heal > self.start:
            raise ValueError(
                f"partition heal time {self.heal} must be after its start {self.start}"
            )
        if not math.isfinite(self.heal):
            raise ValueError(
                "partitions must heal: an infinite heal time would drop messages "
                "and violate the reliable-channel model"
            )
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups to separate")
        group_of: Dict[int, int] = {}
        for index, group in enumerate(self.groups):
            if not group:
                raise ValueError("partition groups must be non-empty")
            for pid in group:
                if pid < 0:
                    raise ValueError(f"invalid process id p{pid} in partition group")
                if pid in group_of:
                    raise ValueError(f"process p{pid} appears in more than one partition group")
                group_of[pid] = index
        object.__setattr__(self, "_group_of", group_of)

    @classmethod
    def isolate(
        cls, pids: Tuple[int, ...], n: int, start: float, heal: float
    ) -> "PartitionWindow":
        """Cut ``pids`` off from the remaining ``n - len(pids)`` processes."""
        cut = tuple(sorted(set(pids)))
        rest = tuple(pid for pid in range(n) if pid not in set(cut))
        if not cut or not rest:
            raise ValueError(f"isolating {pids!r} of {n} processes leaves an empty side")
        return cls(groups=(cut, rest), start=start, heal=heal)

    def blocks(self, src: int, dst: int) -> bool:
        """True when this window severs the ``src -> dst`` link."""
        group_of = self._group_of
        src_group = group_of.get(src)
        if src_group is None:
            return False
        dst_group = group_of.get(dst)
        return dst_group is not None and dst_group != src_group

    def describe(self) -> Dict[str, Any]:
        return {
            "fault": "partition",
            "groups": [list(group) for group in self.groups],
            "start": self.start,
            "heal": self.heal,
        }


@dataclass(frozen=True)
class PartitionSchedule(LinkPolicy):
    """A sequence of partition windows, applied as one link policy.

    Overlapping windows blocking the same link compound (each adds its
    residual ``heal - now``); since every heal is finite the total delay
    stays finite — reliability is preserved by construction.
    """

    windows: Tuple[PartitionWindow, ...]

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("a partition schedule needs at least one window")

    def adjust(self, src: int, dst: int, now: float, delay: float) -> float:
        for window in self.windows:
            if window.start <= now < window.heal and window.blocks(src, dst):
                delay = (window.heal - now) + delay
        return delay

    def quiescent_after(self) -> float:
        return max(window.heal for window in self.windows)

    def validate(self, n: int) -> None:
        for window in self.windows:
            for group in window.groups:
                for pid in group:
                    if not 0 <= pid < n:
                        raise ValueError(
                            f"partition window references unknown process p{pid} (n={n})"
                        )

    def describe(self) -> List[Dict[str, Any]]:
        return [window.describe() for window in self.windows]

    @classmethod
    def from_dict(cls, entry: Dict[str, Any]) -> "PartitionSchedule":
        """The one-window schedule of a ``describe()`` entry."""
        groups = tuple(map(tuple, entry["groups"]))
        return cls(windows=(PartitionWindow(groups, entry["start"], entry["heal"]),))
