"""Schedule strategies: how the explorer picks which executions to try.

A :class:`ScheduleStrategy` turns an :class:`~repro.explore.config.ExploreConfig`
into a seeded, deterministic stream of :class:`~repro.explore.case.ExploreCase`
objects, each with the seeded :class:`~repro.explore.chooser.RandomChooser`
to run it under: the search strategies deliver through the same chooser, a
uniform pick over each subnet's messages in flight that explores message
*reorderings* the base delay model would rarely produce.  Four built-ins:

* :class:`RandomWalkStrategy` — the chooser alone;
* :class:`CrashPointSweepStrategy` — sweeps a seeded grid of server-crash
  coordinates (a virtual time, or on every other case a send count, x shard
  x non-writer replica): explores crash placement relative to in-flight
  quorum phases, mid-broadcast included;
* :class:`PartitionBoundarySweepStrategy` — sweeps healing-partition
  windows (isolated replica x start x duration), reusing the
  :mod:`repro.faults` partition plane: explores operations straddling
  partition boundaries;
* :class:`FaultsStrategy` — named fault plans x seeds, each plan with its
  own workload, run with no delivery picks.

The three search strategies also vary the operation script and the
delay-model seed, so a budget of N explores N genuinely different
executions.
"""

from __future__ import annotations

from dataclasses import asdict
from itertools import count, islice
from random import Random
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Type

from repro.explore.case import CaseOp, ExploreCase, delay_model_to_dict
from repro.explore.chooser import RandomChooser
from repro.explore.config import ExploreConfig
from repro.faults import CrashPoint, FaultPlan, PartitionSchedule, PartitionWindow, slow_the_writer
from repro.sim.rng import make_rng
from repro.workloads import scenarios
from repro.workloads.kv import KVWorkloadSpec, generate_kv_operations

#: A crash-sweep send-count trigger is drawn from ``1 .. SEND_COUNT_RANGE - 1``:
#: a replica index sends about 4 messages per time unit on the quick
#: geometry, so this spans about the timed trigger's 0.5–12 window.
SEND_COUNT_RANGE = 50

#: What a strategy yields: the case plus the chooser to record its picks
#: under (None when the case is fully described by its fields).
PreparedCase = Tuple[ExploreCase, Optional[RandomChooser]]


def _isolate(name: str, replica: int, replication: int, start: float, heal: float) -> FaultPlan:
    """A plan cutting ``replica`` off from its peers during ``[start, heal)``."""
    window = PartitionWindow.isolate((replica,), replication, start=start, heal=heal)
    return FaultPlan(name=name, link_policies=(PartitionSchedule(windows=(window,)),))


def case_from_spec(name: str, spec: KVWorkloadSpec) -> ExploreCase:
    """A closed-loop workload spec as a case: same store, script, faults and run."""
    return ExploreCase(
        name=name,
        algorithm=spec.algorithm,
        num_shards=spec.num_shards,
        replication=spec.replication,
        batch_size=spec.batch_size,
        delay=delay_model_to_dict(spec.delay_model),
        ops=tuple(
            CaseOp(kind=op.kind.value, key=op.key, value=op.value)
            for op in generate_kv_operations(spec)
        ),
        crash_points=tuple(asdict(point) for point in spec.crash_points),
        fault_plan=spec.fault_plan.to_dict() if spec.fault_plan is not None else None,
        initial_value=spec.initial_value,
    )


class ScheduleStrategy:
    """Base class: a seeded, deterministic stream of cases to explore."""

    name: str = ""

    def __init__(self, config: ExploreConfig) -> None:
        self.config = config

    def cases(self) -> Iterator[PreparedCase]:
        """Yield up to ``config.budget`` prepared cases, deterministically.

        Case ``index`` draws its script-and-delay seed, its chooser seed and
        then :meth:`faults` from the strategy's own seeded stream.
        """
        config = self.config
        rng = make_rng(config.seed, "explore", self.name)
        for index in range(config.budget):
            case_seed = rng.randrange(2**31)
            chooser_seed = rng.randrange(2**31)
            case = self._case(index, case_seed, **self.faults(index, rng))
            yield case, RandomChooser(chooser_seed)

    def faults(self, index: int, rng: Random) -> Dict[str, Any]:
        """Case ``index``'s fault fields (crash points, fault plan): none here."""
        return {}

    def _case(self, index: int, case_seed: int, **faults: Any) -> ExploreCase:
        """Case ``index``: the configured geometry, a seeded script and delay, ``faults``."""
        config = self.config
        delay = dict(config.delay)
        if delay.get("kind") == "uniform":
            delay["seed"] = case_seed  # uniform models get a per-case seed
        # The spec keeps its default algorithm: generation never consults it.
        spec = KVWorkloadSpec(
            num_keys=config.num_keys,
            num_ops=config.num_ops,
            read_fraction=config.read_fraction,
            op_mix=config.op_mix,
            num_shards=config.num_shards,
            replication=config.replication,
            batch_size=config.batch_size,
            initial_value=config.initial_value,
            seed=case_seed,
        )
        return case_from_spec(f"{self.name}-{index}", spec).with_(
            algorithm=config.algorithm,
            arrival_gap=config.arrival_gap,
            delay=delay,
            **faults,
        )


class RandomWalkStrategy(ScheduleStrategy):
    """Seeded random delivery choices over the base delay model."""

    name = "random-walk"


class CrashPointSweepStrategy(ScheduleStrategy):
    """Sweep server-crash coordinates (time x shard x non-writer replica)."""

    name = "crash-sweep"

    def faults(self, index: int, rng: Random) -> Dict[str, Any]:
        config = self.config
        if config.replication < 3:
            raise ValueError(
                "crash-sweep needs replication >= 3 (replication "
                f"{config.replication} tolerates no crashes)"
            )
        # Odd cases crash after a send count: possibly mid-broadcast.
        crash = (
            {"after_messages_sent": rng.randrange(1, SEND_COUNT_RANGE)}
            if index % 2
            else {"at_time": round(rng.uniform(0.5, 12.0), 3)}
        )
        crash["shard"] = rng.randrange(config.num_shards)
        crash["replica"] = rng.randrange(1, config.replication)
        return {"crash_points": (crash,)}


class PartitionBoundarySweepStrategy(ScheduleStrategy):
    """Sweep healing-partition windows (replica x start x duration)."""

    name = "partition-sweep"

    def faults(self, index: int, rng: Random) -> Dict[str, Any]:
        replication = self.config.replication
        start = round(rng.uniform(0.5, 8.0), 3)
        heal = round(start + round(rng.uniform(2.0, 15.0), 3), 3)
        # Isolating replica 0 (every key's writer) is a legal — and
        # interesting — window: puts stall until the heal.
        replica = rng.randrange(replication)
        return {"fault_plan": _isolate(self.name, replica, replication, start, heal).to_dict()}


def _kv(seed: int) -> KVWorkloadSpec:
    return scenarios.kv_uniform(num_keys=16, num_ops=240, seed=seed)


def _consensus(seed: int) -> KVWorkloadSpec:
    return scenarios.consensus_smoke(num_keys=6, num_ops=120, seed=seed)


#: The named fault plans, in sweep order: ``(name, build(seed))``, where
#: ``build`` returns a seeded workload spec carrying its plan and crashes.
FAULT_SCHEDULES: Tuple[Tuple[str, Callable[[int], KVWorkloadSpec]], ...] = (
    ("kv-partitioned", lambda seed: scenarios.kv_partitioned(num_keys=16, num_ops=240, seed=seed)),
    # Replica 0 hosts every key's writer: storm its links in each subnet.
    ("delay-storm", lambda seed: _kv(seed).with_(fault_plan=slow_the_writer(0, 6.0, 2.0, 25.0))),
    # One replica crashes mid-run (t = 1 < n/2): MMR must keep deciding.
    (
        "consensus-crash",
        lambda seed: _consensus(seed).with_(
            crash_points=(CrashPoint(at_time=4.0 + seed, shard=seed % 2, replica=2),)
        ),
    ),
    # The writer cut off: puts stall until the heal, reads keep completing.
    (
        "partition-writer",
        lambda seed: _kv(seed).with_(fault_plan=_isolate("partition-writer", 0, 3, 3.0, 14.0)),
    ),
    ("chaos", lambda seed: scenarios.chaos(num_keys=16, num_ops=240, seed=seed)),
    # One replica's slots stall until the heal; the majority keeps deciding.
    (
        "consensus-partition",
        lambda seed: _consensus(seed).with_(
            fault_plan=_isolate("consensus-partition", seed % 3, 3, 3.0, 16.0)
        ),
    ),
)


class FaultsStrategy(ScheduleStrategy):
    """:data:`FAULT_SCHEDULES` x seeds ``config.seed, config.seed + 1, ...``, seed-major.

    A plan's workload (geometry, algorithm, operation mix) is part of the
    plan: the config's workload fields do not apply.  Cases run with no
    delivery picks — the plan is the adversary.
    """

    name = "faults"

    def cases(self) -> Iterator[PreparedCase]:
        cases = (
            (case_from_spec(f"{name}/seed={seed}", build(seed)), None)
            for seed in count(self.config.seed)
            for name, build in FAULT_SCHEDULES
        )
        return islice(cases, self.config.budget)


#: Strategy name -> class, in presentation order.
STRATEGIES: Dict[str, Type[ScheduleStrategy]] = {
    strategy.name: strategy
    for strategy in (
        RandomWalkStrategy,
        CrashPointSweepStrategy,
        PartitionBoundarySweepStrategy,
        FaultsStrategy,
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
