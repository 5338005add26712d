"""The ``wait(z >= n - t ...)`` threshold arithmetic.

This is the canonical home of :class:`QuorumTracker` (it lived in
``repro.registers.base`` before the phase engine existed; that module still
re-exports it).  Register algorithms repeatedly wait until at least ``n - t``
processes satisfy some predicate — acknowledged a write, answered a read
query, hold a fresh-enough sequence number.  Each one counts those processes
as their replies arrive; the tracker holds the majority arithmetic.
"""

from __future__ import annotations

from typing import Optional


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
