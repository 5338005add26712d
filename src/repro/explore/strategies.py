"""Schedule strategies: how the explorer picks which executions to try.

A :class:`ScheduleStrategy` turns an :class:`~repro.explore.config.ExploreConfig`
into a seeded, deterministic stream of :class:`~repro.explore.case.ExploreCase`
objects, each with the seeded :class:`~repro.explore.chooser.RandomChooser`
to run it under: every strategy delivers through the same chooser, a
uniform pick over each subnet's messages in flight that explores message
*reorderings* the base delay model would rarely produce.  Three built-ins:

* :class:`RandomWalkStrategy` — the chooser alone;
* :class:`CrashPointSweepStrategy` — sweeps a seeded grid of server-crash
  coordinates (a virtual time, or on every other case a send count, x shard
  x non-writer replica): explores crash placement relative to in-flight
  quorum phases, mid-broadcast included;
* :class:`PartitionBoundarySweepStrategy` — sweeps healing-partition
  windows (isolated replica x start x duration), reusing the
  :mod:`repro.faults` partition plane: explores operations straddling
  partition boundaries.

Each case also varies the operation script and the delay-model seed, so a
budget of N explores N genuinely different executions.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterator, Optional, Tuple, Type

from repro.explore.case import CaseOp, ExploreCase
from repro.explore.chooser import RandomChooser
from repro.explore.config import ExploreConfig
from repro.sim.rng import make_rng
from repro.workloads.kv import KVWorkloadSpec, generate_kv_operations

#: A crash-sweep send-count trigger is drawn from ``1 .. SEND_COUNT_RANGE - 1``:
#: a replica index sends about 4 messages per time unit on the quick
#: geometry, so this spans about the timed trigger's 0.5–12 window.
SEND_COUNT_RANGE = 50

#: What a strategy yields: the case plus the chooser to record its picks
#: under (None when the case is fully described by its fields).
PreparedCase = Tuple[ExploreCase, Optional[RandomChooser]]


def _script_for(config: ExploreConfig, case_seed: int) -> Tuple[CaseOp, ...]:
    """The operation script of one case (seeded; distinct values per key)."""
    spec = KVWorkloadSpec(
        num_keys=config.num_keys,
        num_ops=config.num_ops,
        read_fraction=config.read_fraction,
        op_mix=config.op_mix,
        distribution="uniform",
        algorithm="abd",  # placeholder: generation never consults the registry
        num_shards=config.num_shards,
        replication=config.replication,
        initial_value=config.initial_value,
        seed=case_seed,
    )
    return tuple(
        CaseOp(kind=op.kind.value, key=op.key, value=op.value)
        for op in generate_kv_operations(spec)
    )


def _delay_for(config: ExploreConfig, case_seed: int) -> Dict[str, object]:
    """The case's serialized delay model (uniform models get a per-case seed)."""
    delay = dict(config.delay)
    if delay.get("kind") == "uniform":
        delay["seed"] = case_seed
    return delay


class ScheduleStrategy(abc.ABC):
    """Base class: a seeded, deterministic stream of cases to explore."""

    name: str = ""

    def __init__(self, config: ExploreConfig) -> None:
        self.config = config

    @abc.abstractmethod
    def cases(self) -> Iterator[PreparedCase]:
        """Yield up to ``config.budget`` prepared cases, deterministically."""

    def _case(self, index: int, case_seed: int, **faults: Any) -> ExploreCase:
        """Case ``index``: the configured geometry, a seeded script and delay, ``faults``."""
        config = self.config
        return ExploreCase(
            name=f"{self.name}-{index}",
            algorithm=config.algorithm,
            num_shards=config.num_shards,
            replication=config.replication,
            batch_size=config.batch_size,
            arrival_gap=config.arrival_gap,
            delay=_delay_for(config, case_seed),
            ops=_script_for(config, case_seed),
            initial_value=config.initial_value,
            **faults,
        )


class RandomWalkStrategy(ScheduleStrategy):
    """Seeded random delivery choices over the base delay model."""

    name = "random-walk"

    def cases(self) -> Iterator[PreparedCase]:
        config = self.config
        rng = make_rng(config.seed, "explore", self.name)
        for index in range(config.budget):
            case_seed = rng.randrange(2**31)
            chooser_seed = rng.randrange(2**31)
            yield self._case(index, case_seed), RandomChooser(chooser_seed)


class CrashPointSweepStrategy(ScheduleStrategy):
    """Sweep server-crash coordinates (time x shard x non-writer replica)."""

    name = "crash-sweep"

    def cases(self) -> Iterator[PreparedCase]:
        config = self.config
        if config.replication < 3:
            raise ValueError(
                "crash-sweep needs replication >= 3 (replication "
                f"{config.replication} tolerates no crashes)"
            )
        rng = make_rng(config.seed, "explore", self.name)
        for index in range(config.budget):
            case_seed = rng.randrange(2**31)
            chooser_seed = rng.randrange(2**31)
            # Odd cases crash after a send count: possibly mid-broadcast.
            crash = (
                {"after_messages_sent": rng.randrange(1, SEND_COUNT_RANGE)}
                if index % 2
                else {"at_time": round(rng.uniform(0.5, 12.0), 3)}
            )
            crash["shard"] = rng.randrange(config.num_shards)
            crash["replica"] = rng.randrange(1, config.replication)
            case = self._case(index, case_seed, crash_points=(crash,))
            yield case, RandomChooser(chooser_seed)


class PartitionBoundarySweepStrategy(ScheduleStrategy):
    """Sweep healing-partition windows (replica x start x duration)."""

    name = "partition-sweep"

    def cases(self) -> Iterator[PreparedCase]:
        config = self.config
        rng = make_rng(config.seed, "explore", self.name)
        for index in range(config.budget):
            case_seed = rng.randrange(2**31)
            chooser_seed = rng.randrange(2**31)
            start = round(rng.uniform(0.5, 8.0), 3)
            duration = round(rng.uniform(2.0, 15.0), 3)
            partition = {
                # Isolating replica 0 (every key's writer) is a legal — and
                # interesting — window: puts stall until the heal.
                "replicas": [rng.randrange(config.replication)],
                "start": start,
                "heal": round(start + duration, 3),
            }
            case = self._case(index, case_seed, partition=partition)
            yield case, RandomChooser(chooser_seed)


#: Strategy name -> class, in presentation order.
STRATEGIES: Dict[str, Type[ScheduleStrategy]] = {
    strategy.name: strategy
    for strategy in (
        RandomWalkStrategy,
        CrashPointSweepStrategy,
        PartitionBoundarySweepStrategy,
    )
}


def available_strategies() -> list[str]:
    """Names of the registered strategies, in presentation order."""
    return list(STRATEGIES)


def build_strategy(config: ExploreConfig) -> ScheduleStrategy:
    """Instantiate the strategy named by ``config.strategy``."""
    try:
        cls = STRATEGIES[config.strategy]
    except KeyError:
        raise KeyError(
            f"unknown schedule strategy {config.strategy!r}; "
            f"available: {available_strategies()}"
        ) from None
    return cls(config)
