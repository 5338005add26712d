"""Canned workload scenarios.

These are the named configurations the examples, integration tests and
ablation benchmarks share, so "the read-dominated scenario" means exactly the
same thing everywhere.  Each function returns a fully populated
:class:`~repro.workloads.spec.WorkloadSpec` that can be further customised
with :meth:`WorkloadSpec.with_`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.faults.adversary import random_crash_points, random_fault_plan, slow_the_writer
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import CrashPoint, FaultPlan
from repro.sim.delays import ExponentialDelay, FixedDelay, UniformDelay
from repro.sim.rng import make_rng
from repro.workloads.kv import KVWorkloadSpec
from repro.workloads.spec import WorkloadSpec


def quickstart(n: int = 5, algorithm: str = "two-bit", seed: int = 0) -> WorkloadSpec:
    """A tiny failure-free mixed workload — the one the quickstart example runs."""
    return WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=5,
        reads_per_reader=5,
        delay_model=FixedDelay(1.0),
        check_invariants=(algorithm == "two-bit"),
        seed=seed,
    )


def read_dominated(
    n: int = 7,
    algorithm: str = "two-bit",
    reads_per_reader: int = 50,
    num_writes: int = 5,
    seed: int = 1,
) -> WorkloadSpec:
    """The paper's motivating setting: a read-dominated application.

    Section 5 argues the O(n) read cost "can benefit read-dominated
    applications"; this scenario is what the corresponding ablation benchmark
    sweeps over algorithms and ``n``.
    """
    return WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=num_writes,
        reads_per_reader=reads_per_reader,
        read_think_time=0.5,
        write_think_time=5.0,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
    )


def write_heavy(n: int = 5, algorithm: str = "two-bit", num_writes: int = 50, seed: int = 2) -> WorkloadSpec:
    """A write-heavy stream with a few auditing readers."""
    return WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=num_writes,
        reads_per_reader=5,
        read_think_time=3.0,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
    )


def contended(n: int = 5, algorithm: str = "two-bit", seed: int = 3) -> WorkloadSpec:
    """Readers and the writer hammering the register simultaneously with random delays.

    This is the scenario that most stresses the atomicity checker: heavy
    message reordering plus overlapping operations.
    """
    return WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=20,
        reads_per_reader=20,
        delay_model=ExponentialDelay(base=0.1, mean=0.8, cap=6.0, seed=seed),
        check_invariants=(algorithm == "two-bit"),
        seed=seed,
    )


def crash_storm(
    n: int = 7,
    algorithm: str = "two-bit",
    seed: int = 4,
    crash_writer: bool = False,
    crash_points: Optional[Tuple[CrashPoint, ...]] = None,
) -> WorkloadSpec:
    """A minority of processes crash mid-run.

    By default the writer is spared so the workload's writes terminate (the
    liveness guarantee only covers operations by correct processes); pass
    ``crash_writer=True`` to explore reader liveness when the writer dies.
    ``crash_points`` replaces the seeded draw.
    """
    if crash_points is None:
        exclude = () if crash_writer else (0,)
        crash_points = random_crash_points(n, seed=seed, horizon=30.0, exclude=exclude)
    return WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=15,
        reads_per_reader=15,
        delay_model=UniformDelay(0.2, 1.5, seed=seed),
        crash_points=crash_points,
        seed=seed,
        max_virtual_time=5_000.0,
    )


def kv_uniform(
    num_keys: int = 16,
    num_ops: int = 400,
    read_fraction: float = 0.9,
    algorithm: str = "abd",
    num_shards: int = 4,
    replication: int = 3,
    batch_size: int = 64,
    seed: int = 6,
) -> KVWorkloadSpec:
    """A keyed store workload with uniform key popularity.

    Every key is equally likely; with the default hash placement the load is
    balanced across shards.  This is the baseline the store benchmark and the
    per-key atomicity tests run.
    """
    return KVWorkloadSpec(
        num_keys=num_keys,
        num_ops=num_ops,
        read_fraction=read_fraction,
        distribution="uniform",
        algorithm=algorithm,
        num_shards=num_shards,
        replication=replication,
        batch_size=batch_size,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
    )


def kv_zipfian(
    num_keys: int = 64,
    num_ops: int = 600,
    read_fraction: float = 0.9,
    zipf_s: float = 1.2,
    algorithm: str = "abd",
    num_shards: int = 4,
    replication: int = 3,
    batch_size: int = 64,
    seed: int = 7,
) -> KVWorkloadSpec:
    """A keyed store workload with Zipfian (hot-key) popularity.

    A few keys absorb most of the traffic — the realistic regime for caches
    and social feeds, and the one where per-process sequencing on a hot key's
    replicas limits batching gains (cross-key concurrency still wins).
    """
    return KVWorkloadSpec(
        num_keys=num_keys,
        num_ops=num_ops,
        read_fraction=read_fraction,
        distribution="zipfian",
        zipf_s=zipf_s,
        algorithm=algorithm,
        num_shards=num_shards,
        replication=replication,
        batch_size=batch_size,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
    )


def kv_openloop(
    num_keys: int = 32,
    num_ops: int = 400,
    arrival_rate: float = 8.0,
    arrival: str = "poisson",
    read_fraction: float = 0.9,
    algorithm: str = "abd",
    num_shards: int = 4,
    replication: int = 3,
    seed: int = 8,
) -> KVWorkloadSpec:
    """An open-loop keyed store workload: seeded Poisson (or uniform) arrivals.

    Offered load (``arrival_rate`` operations per virtual-time unit) is
    decoupled from service rate, so sweeping the rate produces a
    throughput-vs-offered-load curve: below saturation the store completes
    operations as fast as they arrive; above it, queueing delay on each
    replica's sequential FIFO grows without bound.  Same seed, same arrival
    times, same history — the repository-wide determinism contract.
    """
    return KVWorkloadSpec(
        num_keys=num_keys,
        num_ops=num_ops,
        read_fraction=read_fraction,
        distribution="uniform",
        algorithm=algorithm,
        num_shards=num_shards,
        replication=replication,
        arrival=arrival,
        arrival_rate=arrival_rate,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
    )


def delay_storm(
    n: int = 5,
    algorithm: str = "two-bit",
    num_writes: int = 12,
    reads_per_reader: int = 12,
    factor: float = 6.0,
    storm_start: float = 3.0,
    storm_end: float = 30.0,
    seed: int = 9,
) -> WorkloadSpec:
    """Every link touching the writer crawls for a finite window.

    The *slow-the-writer* adversary: reads stay fast while writes (and the
    writer's acks) stretch by ``factor``, maximising read/write overlap —
    the regime where a new/old inversion would surface if the protocol were
    wrong.  Delays stay finite, so this is a legal asynchronous execution.
    """
    return WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=num_writes,
        reads_per_reader=reads_per_reader,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        fault_plan=slow_the_writer(
            writer_pid=0, factor=factor, start=storm_start, end=storm_end
        ),
        check_invariants=(algorithm == "two-bit"),
        seed=seed,
    )


def kv_partitioned(
    num_keys: int = 16,
    num_ops: int = 300,
    read_fraction: float = 0.9,
    algorithm: str = "abd",
    num_shards: int = 4,
    replication: int = 3,
    batch_size: int = 64,
    isolate_replica: int = 2,
    partition_start: float = 4.0,
    heal_at: float = 18.0,
    seed: int = 10,
) -> KVWorkloadSpec:
    """A keyed store workload through a partition that heals.

    Replica ``isolate_replica`` of *every* shard is cut off from its peers
    during ``[partition_start, heal_at)``: the majority side keeps serving,
    reads routed to the isolated replica stall until the heal, then
    complete.  Per-key atomicity must hold across the window — this is the
    plan the ``faults`` explore strategy runs first.
    """
    window = PartitionWindow.isolate(
        (isolate_replica,), replication, start=partition_start, heal=heal_at
    )
    plan = FaultPlan(
        name="kv-partitioned", link_policies=(PartitionSchedule(windows=(window,)),)
    )
    return KVWorkloadSpec(
        num_keys=num_keys,
        num_ops=num_ops,
        read_fraction=read_fraction,
        distribution="uniform",
        algorithm=algorithm,
        num_shards=num_shards,
        replication=replication,
        batch_size=batch_size,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        fault_plan=plan,
        seed=seed,
    )


def chaos(
    num_keys: int = 12,
    num_ops: int = 240,
    read_fraction: float = 0.85,
    algorithm: str = "abd",
    num_shards: int = 4,
    replication: int = 3,
    batch_size: int = 64,
    horizon: float = 40.0,
    seed: int = 0,
) -> KVWorkloadSpec:
    """A seeded chaos run: random healing partition + storm + crash-in-window.

    The link-level plan comes from :func:`~repro.faults.random_fault_plan`
    (replica 0 — every key's writer — always stays on the majority side);
    with some seeds a non-writer replica of one shard additionally crashes
    *inside* the partition window, composing crash and partition faults.
    Everything derives from ``seed``: same seed, same adversary, same run.
    """
    plan = random_fault_plan(replication, seed=seed, horizon=horizon)
    rng = make_rng(seed, "chaos-crash-points", num_shards, replication)
    crash_points: tuple[CrashPoint, ...] = ()
    if replication >= 3 and rng.random() < 0.6:
        partition = next(
            policy for policy in plan.link_policies if isinstance(policy, PartitionSchedule)
        )
        window = partition.windows[0]
        crash_points = (
            CrashPoint(
                at_time=round(rng.uniform(window.start, window.heal), 3),
                shard=rng.randrange(num_shards),
                replica=rng.randrange(1, replication),
            ),
        )
    return KVWorkloadSpec(
        num_keys=num_keys,
        num_ops=num_ops,
        read_fraction=read_fraction,
        distribution="uniform",
        algorithm=algorithm,
        num_shards=num_shards,
        replication=replication,
        batch_size=batch_size,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        fault_plan=plan,
        crash_points=crash_points,
        seed=seed,
    )


def kv_mixed(
    num_keys: int = 24,
    num_ops: int = 300,
    read_fraction: float = 0.8,
    num_shards: int = 3,
    replication: int = 3,
    batch_size: int = 64,
    algorithms: tuple = ("two-bit", "abd", "abd-mwmr"),
    seed: int = 11,
) -> KVWorkloadSpec:
    """A mixed-algorithm store: different shards run different register algorithms.

    The listed ``algorithms`` are mapped round-robin onto the shards (shard 0
    runs the first, shard 1 the second, ...), so one keyed workload exercises
    the paper's two-bit algorithm, plain ABD and MWMR ABD side by side on one
    virtual clock with one aggregate message bill.  The shared quorum phase
    engine (:mod:`repro.quorum`) is what makes this cheap: every algorithm
    speaks the same broadcast/collect protocol shape, so mixing them is pure
    configuration.  Per-key atomicity is checked with the same per-key SWMR
    checker regardless of the shard's algorithm (the store routes all puts of
    a key through replica 0, so every key's history is single-writer).
    """
    if not algorithms:
        raise ValueError("kv_mixed needs at least one algorithm")
    shard_algorithms = tuple(
        algorithms[shard % len(algorithms)] for shard in range(num_shards)
    )
    return KVWorkloadSpec(
        num_keys=num_keys,
        num_ops=num_ops,
        read_fraction=read_fraction,
        distribution="uniform",
        algorithm=algorithms[0],
        num_shards=num_shards,
        replication=replication,
        batch_size=batch_size,
        shard_algorithms=shard_algorithms,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
    )


def kv_cas(
    num_keys: int = 32,
    num_ops: int = 600,
    algorithm: str = "mmr-cas",
    num_shards: int = 4,
    replication: int = 3,
    batch_size: int = 32,
    seed: int = 12,
) -> KVWorkloadSpec:
    """Compare-and-swap objects over MMR consensus under contention.

    Every key is a CAS register served by a consensus-backed state machine
    (:mod:`repro.consensus`): swaps round-robin over replicas, so several
    replicas propose for one key concurrently and binary consensus orders
    them.  CAS pairs chain through the generator's predicted value — whether
    a swap succeeds is decided by the real interleaving, which is exactly
    what the SMR-spec linearizability check verifies.  The store starts
    empty (``initial_value=None``) so the first swap of each key expects
    "unset".
    """
    return KVWorkloadSpec(
        num_keys=num_keys,
        num_ops=num_ops,
        op_mix=(("read", 0.45), ("cas", 0.35), ("write", 0.20)),
        distribution="uniform",
        algorithm=algorithm,
        num_shards=num_shards,
        replication=replication,
        batch_size=batch_size,
        initial_value=None,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
    )


def kv_counter(
    num_keys: int = 8,
    num_ops: int = 300,
    algorithm: str = "mmr-counter",
    num_shards: int = 2,
    replication: int = 3,
    batch_size: int = 16,
    seed: int = 13,
) -> KVWorkloadSpec:
    """Replicated counters over MMR consensus: increments from every replica.

    Counters are the textbook non-commutative-result object (every increment
    returns the post-increment value), so a lost or doubled increment is
    immediately visible to the SMR-spec checker.  Keys start at ``None``
    (read as 0 by the first increment).
    """
    return KVWorkloadSpec(
        num_keys=num_keys,
        num_ops=num_ops,
        op_mix=(("read", 0.4), ("incr", 0.6)),
        distribution="uniform",
        algorithm=algorithm,
        num_shards=num_shards,
        replication=replication,
        batch_size=batch_size,
        initial_value=None,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
    )


def consensus_smoke(
    num_keys: int = 6,
    num_ops: int = 150,
    algorithm: str = "mmr-cas",
    num_shards: int = 2,
    replication: int = 3,
    batch_size: int = 8,
    seed: int = 14,
) -> KVWorkloadSpec:
    """A small consensus workout: reads, writes, swaps and test-and-sets.

    The quick checker-gated scenario CI runs on both backends — every
    operation kind the consensus objects serve, few enough operations to
    finish in seconds, enough key contention that multi-round instances and
    skip-slot proposals actually occur.
    """
    return KVWorkloadSpec(
        num_keys=num_keys,
        num_ops=num_ops,
        op_mix=(("read", 0.40), ("cas", 0.25), ("write", 0.20), ("tas", 0.15)),
        distribution="uniform",
        algorithm=algorithm,
        num_shards=num_shards,
        replication=replication,
        batch_size=batch_size,
        initial_value=None,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
    )


def explore_smoke(
    budget: int = 6,
    algorithm: str = "abd",
    num_keys: int = 4,
    num_ops: int = 48,
    seed: int = 0,
):
    """A small seeded schedule-exploration run (random-walk, quick budget).

    Returns an :class:`~repro.explore.ExploreConfig` for
    :func:`~repro.explore.run_exploration`: ``budget`` chosen schedules
    of a small keyed workload, each execution checked per key with the
    Wing–Gong linearizability checker, violations shrunk to replayable
    counterexample artifacts.  On a healthy algorithm the run must come
    back clean — this is the configuration the CI explore smoke job runs.
    """
    from repro.explore.config import ExploreConfig

    return ExploreConfig(
        strategy="random-walk",
        budget=budget,
        seed=seed,
        algorithm=algorithm,
        num_keys=num_keys,
        num_ops=num_ops,
    )


def isolated_latency_probe(
    n: int = 5,
    algorithm: str = "two-bit",
    num_writes: int = 5,
    reads_per_reader: int = 2,
    delta: float = 1.0,
    seed: int = 5,
) -> WorkloadSpec:
    """Isolated operations under a fixed delay ``delta`` — the Table-1 measurement regime."""
    return WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=num_writes,
        reads_per_reader=reads_per_reader,
        delay_model=FixedDelay(delta),
        isolated_operations=True,
        seed=seed,
    )


# ------------------------------------------------------------------- registry


@dataclass(frozen=True)
class ScenarioInfo:
    """Registry entry for one canned scenario.

    ``kind`` is ``"register"`` (builds a :class:`WorkloadSpec` for a single
    register deployment), ``"store"`` (builds a :class:`KVWorkloadSpec`
    for the sharded multi-key store) or ``"explore"`` (builds an
    :class:`~repro.explore.ExploreConfig` for schedule exploration).
    ``builder`` is the module-level function of the same name;
    ``description`` is its docstring's first line.
    """

    name: str
    kind: str
    builder: Callable[..., object]
    description: str


def _info(name: str, kind: str, builder: Callable[..., object]) -> ScenarioInfo:
    summary = (builder.__doc__ or "").strip().splitlines()[0] if builder.__doc__ else ""
    return ScenarioInfo(name=name, kind=kind, builder=builder, description=summary)


#: Name -> scenario, in presentation order (registers first, then the store).
SCENARIOS: Dict[str, ScenarioInfo] = {
    info.name: info
    for info in (
        _info("quickstart", "register", quickstart),
        _info("read_dominated", "register", read_dominated),
        _info("write_heavy", "register", write_heavy),
        _info("contended", "register", contended),
        _info("crash_storm", "register", crash_storm),
        _info("delay_storm", "register", delay_storm),
        _info("isolated_latency_probe", "register", isolated_latency_probe),
        _info("kv_uniform", "store", kv_uniform),
        _info("kv_zipfian", "store", kv_zipfian),
        _info("kv_openloop", "store", kv_openloop),
        _info("kv_partitioned", "store", kv_partitioned),
        _info("kv_mixed", "store", kv_mixed),
        _info("kv_cas", "store", kv_cas),
        _info("kv_counter", "store", kv_counter),
        _info("consensus_smoke", "store", consensus_smoke),
        _info("chaos", "store", chaos),
        _info("explore_smoke", "explore", explore_smoke),
    )
}


def available_scenarios() -> list[str]:
    """Names of all registered scenarios, in presentation order."""
    return list(SCENARIOS)


def get_scenario(name: str) -> ScenarioInfo:
    """Look up a scenario by name (raises ``KeyError`` listing known names)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        ) from None
