"""Explorer configuration: how much to search, over what base workload."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class ExploreConfig:
    """Parameters of one schedule-exploration run.

    ``budget`` bounds the number of schedules explored (the sweep stops at
    its first counterexample: a violation is actionable on its own);
    everything else describes the base keyed workload each schedule
    explores.  Every case is checked with the Wing–Gong search, at most
    :data:`~repro.explore.case.CHECK_MAX_STATES` states a key.  All
    randomness (operation scripts, delivery choices, sweep grids)
    derives from ``seed`` — same config, same schedules, same verdicts, and
    the same shrunken counterexample if one is found (the repository-wide
    determinism contract).
    """

    strategy: str = "random-walk"
    budget: int = 20
    seed: int = 0
    algorithm: str = "abd"
    num_keys: int = 6
    num_ops: int = 80
    read_fraction: float = 0.75
    num_shards: int = 2
    replication: int = 3
    batch_size: int = 8
    #: Weighted operation mix (see :class:`~repro.workloads.kv.KVWorkloadSpec`).
    #: ``None`` keeps the classic read/write split driven by
    #: ``read_fraction``; consensus-object explorations pass e.g.
    #: ``(("read", .5), ("cas", .5))`` to script cas/tas/incr operations.
    op_mix: Optional[Tuple[Tuple[str, float], ...]] = None
    #: Initial value of every key (``None`` = store starts empty, the
    #: natural choice for cas chains that begin from "unset").
    initial_value: Optional[str] = "v0"
    #: One operation arrives every ``arrival_gap`` virtual-time units
    #: (open-loop): operations overlap across replicas *and* acquire
    #: real-time ordering, the combination atomicity bugs need.  ``0``
    #: falls back to closed-loop batches of ``batch_size``.
    arrival_gap: float = 0.4
    #: Base delay model: it times the delivery slots the chooser fills.
    #: Under any base, a key's schedule depends on its own traffic only —
    #: each subnet takes ``delay_model.scoped(name)`` (a uniform model
    #: derives a seed per scope) and its own chooser stream — which is what
    #: lets the shrinker drop other keys' operations.  The default is
    #: **fixed** because it found the explorer's mutants no less often than
    #: a uniform 0.2–1.8 base did (seeds 0–9, 100 schedules each):
    #: ``mmr-cas-skip-aux`` on 10 seeds against 8, ``abd-no-writeback`` and
    #: ``abd-sloppy-write`` on as many under every strategy.
    delay: Dict[str, Any] = field(default_factory=lambda: {"kind": "fixed", "delta": 1.0})
    #: Worker processes for the sweep (:mod:`repro.parallel`): cases are
    #: independent seeded executions, so ``N > 1`` runs them on a process
    #: pool.  Verdicts, counts and any shrunken counterexample are identical
    #: to the serial sweep; ``1`` is exactly the serial loop.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")
        if self.num_ops < 1:
            raise ValueError(f"num_ops must be at least 1, got {self.num_ops}")
        if self.num_keys < 1:
            raise ValueError(f"num_keys must be at least 1, got {self.num_keys}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {self.read_fraction}")
        if self.arrival_gap < 0:
            raise ValueError(f"arrival_gap must be non-negative, got {self.arrival_gap}")
        if self.replication < 2:
            raise ValueError(f"replication must be >= 2, got {self.replication}")

    def with_(self, **changes: object) -> "ExploreConfig":
        """Copy with fields replaced (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)
