"""Per-process local state of the two-bit algorithm.

Section 3.2 of the paper ("Local data structures"):

* ``history_i`` — the prefix of written values known by ``p_i``; indexed from
  0, with ``history_i[0] = v0`` (the register's initial value).  Because there
  is a single writer, every process's history is a prefix of the writer's
  (Lemma 4), which is exactly what :class:`repro.core.invariants` checks.
* ``w_sync_i[1..n]`` — write-synchronisation sequence numbers:
  ``w_sync_i[j] = α`` means "to ``p_i``'s knowledge, ``p_j`` knows the prefix
  of the history up to index α".  In particular ``w_sync_i[i]`` is the length
  (last index) of ``p_i``'s own history and ``w_sync_w[w]`` is the sequence
  number of the last written value.
* ``r_sync_i[1..n]`` — read-synchronisation counters: ``r_sync_i[i]`` counts
  the read requests ``p_i`` has issued, and ``r_sync_i[j]`` counts how many of
  them ``p_j`` has answered with a ``PROCEED()``.

The sequence numbers are *local only* — they never appear in messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List


@dataclass
class TwoBitState:
    """Local state of one process running the two-bit algorithm.

    Process ids are 0-based here (the paper uses 1-based ``p_1 .. p_n``);
    arrays are plain Python lists indexed by pid.
    """

    n: int
    pid: int
    initial_value: Any = None
    history: List[Any] = field(default_factory=list)
    w_sync: List[int] = field(default_factory=list)
    r_sync: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.pid < self.n:
            raise ValueError(f"pid {self.pid} out of range for n={self.n}")
        if not self.history:
            # local variables initialization: history_i[0] <- v0
            self.history = [self.initial_value]
        if not self.w_sync:
            # w_sync_i[1..n] <- [0, ..., 0]
            self.w_sync = [0] * self.n
        if not self.r_sync:
            # r_sync_i[1..n] <- [0, ..., 0]
            self.r_sync = [0] * self.n
        if len(self.w_sync) != self.n or len(self.r_sync) != self.n:
            raise ValueError("w_sync / r_sync must have one entry per process")

    # ----------------------------------------------------------- convenience

    @property
    def own_sequence_number(self) -> int:
        """``w_sync_i[i]`` — sequence number of the most recent value this process knows."""
        return self.w_sync[self.pid]

    def known_prefix(self) -> list[Any]:
        """A copy of the history prefix this process currently knows."""
        return list(self.history[: self.own_sequence_number + 1])

    def record_value(self, sequence_number: int, value: Any) -> None:
        """Append ``value`` as the ``sequence_number``-th written value.

        The algorithm only ever appends the *next* value (the predicate of
        line 13 guarantees ``sequence_number == w_sync_i[i] + 1``); this
        method enforces that so a protocol bug cannot silently corrupt the
        history.
        """
        if sequence_number != len(self.history):
            raise ValueError(
                f"p{self.pid} tried to record value #{sequence_number} but its history "
                f"has length {len(self.history)}; histories grow by exactly one"
            )
        self.history.append(value)

    # ---------------------------------------------------------------- memory

    def local_memory_words(self) -> int:
        """Number of state words held locally (Table 1, line 4).

        One word per history entry plus one per ``w_sync`` / ``r_sync`` slot.
        The history grows without bound with the number of writes — this is
        the "unbounded local memory" the paper acknowledges for its algorithm.
        """
        return len(self.history) + len(self.w_sync) + len(self.r_sync)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict snapshot used by traces, invariant monitors and tests."""
        return {
            "pid": self.pid,
            "history_len": len(self.history),
            "w_sync": list(self.w_sync),
            "r_sync": list(self.r_sync),
        }
