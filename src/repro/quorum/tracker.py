"""The ``wait(z >= n - t ...)`` threshold arithmetic.

This is the canonical home of :class:`QuorumTracker` (it lived in
``repro.registers.base`` before the phase engine existed; that module still
re-exports it).  Register algorithms repeatedly wait until at least ``n - t``
processes satisfy some predicate — acknowledged a write, answered a read
query, hold a fresh-enough sequence number.  The tracker centralises the
majority arithmetic and the "count processes satisfying a predicate" loop so
each protocol reads like its pseudocode.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence


class QuorumTracker:
    """Helper implementing the ``wait(z >= n - t ...)`` pattern."""

    def __init__(self, n: int, t: Optional[int] = None) -> None:
        if n < 1:
            raise ValueError("need at least one process")
        self.n = n
        self.t = (n - 1) // 2 if t is None else t
        if not 0 <= self.t < n:
            raise ValueError(f"invalid t={self.t} for n={n}")
        #: The majority-quorum threshold ``n - t``.
        self.quorum_size = self.n - self.t

    def satisfied(self, count: int) -> bool:
        """True when ``count`` processes suffice for a quorum."""
        return count >= self.quorum_size

    def count_satisfying(self, values: Sequence[Any], predicate: Callable[[Any], bool]) -> int:
        """Count entries of ``values`` satisfying ``predicate``."""
        return sum(1 for value in values if predicate(value))

    def quorum_of(self, values: Sequence[Any], predicate: Callable[[Any], bool]) -> bool:
        """True when at least ``n - t`` entries of ``values`` satisfy ``predicate``."""
        return self.satisfied(self.count_satisfying(values, predicate))

    # The two predicate shapes the two-bit algorithm waits on at every
    # delivery, answered without a Python-level loop: same truth value as
    # ``quorum_of`` with the pseudocode's lambda (the property suite pins it).

    def quorum_equal(self, values: list, target: Any) -> bool:
        """``#{j : values[j] = target} >= n - t`` (Figure 1, lines 3 and 7)."""
        return values.count(target) >= self.quorum_size

    def quorum_at_least(self, values: list, floor: Any) -> bool:
        """``#{j : values[j] >= floor} >= n - t`` (Figure 1, line 9).

        At least ``n - t`` entries reach ``floor`` exactly when the
        ``(n - t)``-th largest one does.
        """
        size = self.quorum_size
        return len(values) >= size and sorted(values)[-size] >= floor
