"""Delay storms and asymmetric link slowdowns.

A :class:`DelayStorm` inflates matching messages' delays during a finite
window: ``delay * factor + extra``.  Unlike a partition it never *holds*
messages past a heal instant — it stretches them — so the affected links
stay live, just slow.  With a finite ``factor``/``extra`` and a finite
window, delays remain finite: the reliable-channel model is preserved and a
storm is simply a legal adversarial delay assignment.

Link matching is declarative: an explicit set of ``(src, dst)`` links, or
source/destination sets (``sources=(0,)`` slows everything process 0 sends;
``dests=(0,)`` slows everything addressed to it).  One-directional matching
is what makes *asymmetric* links expressible — see :func:`asymmetric_link`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import LinkPolicy


@dataclass(frozen=True)
class DelayStorm(LinkPolicy):
    """Inflate matching messages' delays during ``[start, end)``.

    Matching: when ``links`` is given only those exact ``(src, dst)`` pairs
    are affected; otherwise ``sources`` / ``dests`` restrict by endpoint (an
    omitted restriction matches everything).  With neither, the storm is
    global.
    """

    start: float
    end: float
    factor: float = 1.0
    extra: float = 0.0
    links: Optional[Tuple[Tuple[int, int], ...]] = None
    sources: Optional[Tuple[int, ...]] = None
    dests: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"storm start must be non-negative, got {self.start}")
        if not self.end > self.start:
            raise ValueError(f"storm end {self.end} must be after its start {self.start}")
        if not math.isfinite(self.end):
            raise ValueError(
                "storms must end: an infinite storm window has no quiescence point "
                "for the drive horizon"
            )
        if not (self.factor > 0 and math.isfinite(self.factor)):
            raise ValueError(f"storm factor must be positive and finite, got {self.factor}")
        if not (self.extra >= 0 and math.isfinite(self.extra)):
            raise ValueError(f"storm extra delay must be non-negative and finite, got {self.extra}")
        if self.factor == 1.0 and self.extra == 0.0:
            raise ValueError("a storm with factor=1 and extra=0 changes nothing")
        if self.links is not None and (self.sources is not None or self.dests is not None):
            raise ValueError("give either explicit links or sources/dests restrictions, not both")

    def matches(self, src: int, dst: int) -> bool:
        """True when this storm affects the ``src -> dst`` link."""
        if self.links is not None:
            return (src, dst) in self.links
        if self.sources is not None and src not in self.sources:
            return False
        if self.dests is not None and dst not in self.dests:
            return False
        return True

    def adjust(self, src: int, dst: int, now: float, delay: float) -> float:
        if self.start <= now < self.end and self.matches(src, dst):
            return delay * self.factor + self.extra
        return delay

    def quiescent_after(self) -> float:
        return self.end

    def validate(self, n: int) -> None:
        pids = set()
        if self.links is not None:
            for src, dst in self.links:
                pids.update((src, dst))
        for group in (self.sources, self.dests):
            if group is not None:
                pids.update(group)
        for pid in pids:
            if not 0 <= pid < n:
                raise ValueError(f"delay storm references unknown process p{pid} (n={n})")

    def describe(self) -> List[Dict[str, Any]]:
        entry: Dict[str, Any] = {
            "fault": "delay_storm",
            "start": self.start,
            "end": self.end,
            "factor": self.factor,
        }
        if self.extra:
            entry["extra"] = self.extra
        if self.links is not None:
            entry["links"] = [list(link) for link in self.links]
        if self.sources is not None:
            entry["sources"] = list(self.sources)
        if self.dests is not None:
            entry["dests"] = list(self.dests)
        return [entry]

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DelayStorm":
        """The storm of its ``describe()`` entry."""

        def tuples(name: str, item: Any = int) -> Optional[tuple]:
            return None if payload.get(name) is None else tuple(map(item, payload[name]))

        return cls(
            payload["start"], payload["end"], payload["factor"], payload.get("extra", 0.0),
            links=tuples("links", tuple), sources=tuples("sources"), dests=tuples("dests"),
        )


def asymmetric_link(
    src: int, dst: int, factor: float, start: float = 0.0, end: float = 1e9
) -> DelayStorm:
    """Slow the ``src -> dst`` direction only (the reverse link is untouched).

    Asymmetric slowdowns produce the deepest message reordering: acks come
    back fast while requests crawl, which is the regime where a protocol
    confusing "old" and "new" values would get caught.
    """
    return DelayStorm(start=start, end=end, factor=factor, links=((src, dst),))
