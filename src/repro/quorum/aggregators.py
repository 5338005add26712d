"""Pluggable per-phase reply reductions.

A quorum phase collects *one reply per responder* (later duplicates are
ignored — exactly the ``src not in replies`` check the hand-rolled loops
performed) into its collector's ``replies`` dict, keyed by responder pid.
Insertion order (= the deterministic reply arrival order, the sender's own
reply first) is exactly the iteration order the pre-engine code saw, so
reductions that break ties by "first seen" are history-preserving.

An aggregator is only the reduction: :meth:`ReplyAggregator.result` maps a
finished reply set to the phase's value.  It holds no per-phase state, so one
instance serves every phase that reduces the same way.  The two reductions the
register algorithms need are provided here; new algorithms can subclass
:class:`ReplyAggregator` for richer ones (vector collection, voting, ...).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Optional


class ReplyAggregator:
    """The reduction of a phase's replies; subclasses define it."""

    __slots__ = ()

    def result(self, replies: Dict[int, Any]) -> Any:
        """The aggregated value of ``replies`` (responder pid -> payload); None by default."""
        return None


class AckCounter(ReplyAggregator):
    """Pure acknowledgement counting — payloads are ignored."""

    __slots__ = ()

    def result(self, replies: Dict[int, Any]) -> int:
        return len(replies)


class MaxReply(ReplyAggregator):
    """Returns the maximum payload.

    ``key`` mirrors ``max(..., key=...)``: with a key function, ties are
    broken by arrival order (first maximal reply wins) — the exact semantics
    of the pre-engine ``max(replies.values(), key=lambda pair: pair[0])``
    selection, which must be preserved for history equivalence.
    """

    __slots__ = ("key",)

    def __init__(self, key: Optional[Callable[[Any], Any]] = None) -> None:
        self.key = key

    def result(self, replies: Dict[int, Any]) -> Any:
        if not replies:
            raise ValueError("cannot aggregate an empty reply set")
        if self.key is None:
            return max(replies.values())
        return max(replies.values(), key=self.key)


#: The ABD family's read reduction: the ``(sequence number or timestamp,
#: value)`` pair with the highest first element, the first seen on a tie.
HIGHEST_PAIR = MaxReply(key=itemgetter(0))
