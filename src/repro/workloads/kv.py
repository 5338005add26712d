"""Keyed workloads for the sharded multi-key store.

The single-register workloads (:mod:`repro.workloads.spec`) drive one
register with a writer and readers; a *keyed* workload drives a
:class:`~repro.store.store.KVStore` with a stream of ``get``/``put``
operations over many keys.  The spec captures the key population, the
operation mix, the access-skew distribution (uniform or Zipfian) and the
store geometry, all derived from one seed — same spec, same run, event for
event (the repository-wide determinism contract).

Uniqueness of written values per key (``"k0003=v7"`` is write number 7 to key
``k0003``) is guaranteed by construction, so the fast per-key SWMR checker
can map every read back to the write it observed.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.consensus.mmr import replica_invariants
from repro.exec.clients import ARRIVAL_PROCESSES, IsolatedOpCost, OpenLoopClient, iter_arrival_times
from repro.exec.metrics import json_number
from repro.exec.oplog import OpLog
from repro.exec.target import OpRequest, interned_request
from repro.faults.plan import CrashPoint, FaultPlan, install_crash_points, validate_crash_points
from repro.registers.base import OperationKind, OperationRecord
from repro.registers.registry import available_algorithms
from repro.sim.delays import DelayModel, FixedDelay
from repro.sim.network import NetworkStats
from repro.sim.rng import make_rng
from repro.store.store import KVStore, StoreConfig

# Bound once: looking a member up on the enum class runs EnumType's
# ``__getattr__`` hook, which the per-operation path would pay per use.
_READ, _WRITE = OperationKind.READ, OperationKind.WRITE

#: Supported key-access distributions.
DISTRIBUTIONS = ("uniform", "zipfian")

#: Operation kinds an ``op_mix`` may mention (consensus-object kinds included).
MIX_KINDS = ("read", "write", "cas", "tas", "incr")


class KVOp(NamedTuple):
    """One scripted store operation (before submission).

    A named tuple, not a frozen dataclass: one is drawn per scripted
    operation, and a tuple is the cheapest immutable record to build.
    """

    index: int
    kind: OperationKind
    key: str
    value: Any = None


@dataclass(frozen=True)
class KVWorkloadSpec:
    """Parameters of one keyed store run.

    Attributes
    ----------
    num_keys / num_ops:
        Key population size and total operations issued.
    read_fraction:
        Probability each operation is a ``get`` (the rest are ``put``).
    distribution / zipf_s:
        Key-access skew: ``"uniform"``, or ``"zipfian"`` with exponent
        ``zipf_s`` (hot-key ranks are a seeded permutation of the key space,
        so hotness is decoupled from placement).
    algorithm / num_shards / replication / placement_salt:
        The store geometry (see :class:`~repro.store.store.StoreConfig`).
    batch_size:
        Operations submitted per :meth:`~repro.store.store.KVStore.drive`
        call (closed-loop driving only).  ``1`` reproduces the classic
        per-operation driving pattern; larger batches overlap independent
        operations in virtual time.
    arrival / arrival_rate:
        Traffic model.  ``"closed"`` (default) submits in batches as above.
        ``"poisson"`` / ``"uniform"`` switch to **open-loop** driving: the
        operation stream arrives at seeded arrival times with mean rate
        ``arrival_rate`` (operations per virtual-time unit), regardless of
        completions — offered load is decoupled from service rate, so
        overload shows up as queueing delay instead of client throttling.
    delay_model:
        Message-delay model (default ``FixedDelay(1.0)``).
    crash_points:
        Server crashes (:class:`~repro.faults.CrashPoint`), checked against
        the geometry here and scheduled before the run starts (live: shards folded).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` of link policies keyed by
        replica index (``0 .. replication - 1``), installed store-wide
        before the run (see :meth:`~repro.store.store.KVStore.install_fault_plan`).
    coalesce:
        Pack same-instant deliveries to one replica into a single heap event
        (on by default; see :class:`~repro.store.store.StoreConfig`).
    shard_algorithms:
        Optional per-shard register algorithms (one name per shard) for
        mixed-algorithm stores — the ``kv_mixed`` scenario.
    seed:
        Master seed for key choice, op mix, arrival times and think
        randomness.
    workers:
        Worker processes (:mod:`repro.parallel`); row ``i`` of the result's
        oplog is script operation ``i`` at any count.  On the simulator,
        ``N > 1`` partitions the shards into ``N`` disjoint groups, runs each
        group's subnets in its own process and merges the results — per-key
        histories, checker verdicts and metrics are bit-identical to the
        serial run (the differential suite in ``tests/parallel/`` enforces
        it).  On the live transport they are ``N`` *client* processes against
        the one replica cluster: worker ``w`` fires script operations ``w,
        w+N, …`` — the same stream and the same message bill, on a schedule
        the operating system decides.
    slo_p99:
        Optional p99 latency limit on the clock that timed the run (wall
        seconds live, virtual time units on the simulator): ``verify()``
        fails a run whose p99 over all completed operations exceeds it.
        ``None`` (default) reports the percentile without gating on it.
    max_events:
        Per-process event-count safety valve (``None`` = auto: the simulator
        default, scaled up for runs large enough to legitimately exceed it).
    """

    num_keys: int = 16
    num_ops: int = 500
    read_fraction: float = 0.8
    #: Optional weighted operation mix ``((kind, weight), ...)`` over
    #: :data:`MIX_KINDS`.  ``None`` (default) keeps the classic two-kind
    #: read/write stream driven by ``read_fraction`` — byte-identical to
    #: every pre-existing spec.  When set, each operation's kind is drawn
    #: from the weighted mix instead and the consensus-object kinds become
    #: available: ``cas`` operations carry ``(expected, new)`` pairs chained
    #: through the generator's predicted per-key value (so contention, not
    #: the script, decides which swaps fail), ``incr`` carries a small
    #: seeded addend, ``tas`` carries no value.  Mixes must be
    #: type-consistent (don't combine ``incr`` with string-valued writes —
    #: the SMR object would add an int to a string).
    op_mix: Optional[Tuple[Tuple[str, float], ...]] = None
    distribution: str = "uniform"
    zipf_s: float = 1.2
    algorithm: str = "abd"
    num_shards: int = 4
    replication: int = 3
    placement_salt: int = 0
    batch_size: int = 64
    coalesce: bool = True
    shard_algorithms: Optional[Tuple[str, ...]] = None
    arrival: str = "closed"
    arrival_rate: float = 0.0
    delay_model: DelayModel = field(default_factory=lambda: FixedDelay(1.0))
    crash_points: Tuple[CrashPoint, ...] = ()
    fault_plan: Optional[FaultPlan] = None
    seed: int = 0
    initial_value: Any = "v0"
    max_virtual_time: float = 100_000.0
    workers: int = 1
    max_events: Optional[int] = None
    #: Which backend executes the run: ``"sim"`` (virtual-time simulator,
    #: default — deterministic, supports fault plans/coalescing) or
    #: ``"live"`` (asyncio TCP loopback cluster, one wire codec; wall-clock
    #: time, with ``arrival_rate`` read as operations per *second*).  The
    #: seeded operation stream is identical on both — only timing differs.
    transport: str = "sim"
    slo_p99: Optional[float] = None

    def __post_init__(self) -> None:
        # The store config's own validation (transport name, per-shard
        # algorithm count, workers >= 1) and the geometry, on either backend.
        self.store_config().shard_map()
        known = available_algorithms()
        for name in self.shard_algorithms or (self.algorithm,):
            if name not in known:
                raise ValueError(f"unknown algorithm {name!r}; choose from {known}")
        if self.transport == "live":
            # The one list of what the live backend rejects (the CLI and the
            # runners defer to it): a live run takes the wire as-is, one
            # algorithm per cluster.
            for given, what in (
                (self.fault_plan is not None, "fault plans"),
                (not self.coalesce, "coalesce=False"),
                (self.shard_algorithms is not None, "shard_algorithms"),
            ):
                if given:
                    raise ValueError(
                        f"{what}: simulated-only; live runs take the wire as-is, "
                        "one algorithm per cluster (see `repro transports`)"
                    )
        if self.slo_p99 is not None and self.slo_p99 <= 0:
            raise ValueError(f"slo_p99 must be positive, got {self.slo_p99}")
        if self.num_keys < 1:
            raise ValueError("keyed workloads need at least one key")
        if self.num_ops < 0:
            raise ValueError("operation count must be non-negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {self.read_fraction}")
        if self.op_mix is not None:
            if not self.op_mix:
                raise ValueError("op_mix must name at least one operation kind")
            for kind, weight in self.op_mix:
                if kind not in MIX_KINDS:
                    raise ValueError(
                        f"unknown op_mix kind {kind!r}; choose from {MIX_KINDS}"
                    )
                if weight <= 0:
                    raise ValueError(
                        f"op_mix weights must be positive, got {weight} for {kind!r}"
                    )
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; choose from {DISTRIBUTIONS}"
            )
        if self.zipf_s <= 0:
            raise ValueError(f"zipf_s must be positive, got {self.zipf_s}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.arrival not in ("closed",) + ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival model {self.arrival!r}; choose from "
                f"{('closed',) + ARRIVAL_PROCESSES}"
            )
        if self.arrival != "closed" and self.arrival_rate <= 0:
            raise ValueError(
                f"open-loop arrivals need a positive arrival_rate, got {self.arrival_rate}"
            )
        if self.fault_plan is not None:
            self.fault_plan.validate(self.replication)
        validate_crash_points(self.crash_points, self.num_shards, self.replication)
        if self.transport == "live":  # one live process serves every shard: fold them
            folded = [replace(p, shard=0) for p in self.crash_points]
            try:
                validate_crash_points(folded, 1, self.replication)
            except ValueError as exc:
                raise ValueError(f"one live process serves every shard: {exc}") from None
        counted = any(p.after_messages_sent is not None for p in self.crash_points)
        if counted and self.transport == "sim" and min(self.workers, self.num_shards) > 1:
            raise ValueError(
                "after_messages_sent counts a replica's sends across the whole store; "
                "a shard-parallel worker sees only its own shards (use workers=1 or at_time)"
            )

    @property
    def open_loop(self) -> bool:
        """True when this spec drives the store open-loop."""
        return self.arrival != "closed"

    # ------------------------------------------------------------ conveniences

    def keys(self) -> list[str]:
        """The key population (``k0000``, ``k0001``, ...)."""
        width = max(4, len(str(self.num_keys - 1)))
        return [f"k{index:0{width}d}" for index in range(self.num_keys)]

    def store_config(self) -> StoreConfig:
        """The :class:`StoreConfig` this spec deploys."""
        # Auto-scale the event-count safety valve: a quorum operation costs a
        # couple dozen events, so million-op runs legitimately exceed the
        # simulator's 5M default.  Only ever scale *up* — small runs keep the
        # default valve and its message-storm protection.
        max_events = self.max_events
        if max_events is None and self.num_ops > 100_000:
            max_events = 60 * self.num_ops
        return StoreConfig(
            transport=self.transport,
            algorithm=self.algorithm,
            num_shards=self.num_shards,
            replication=self.replication,
            placement_salt=self.placement_salt,
            delay_model=self.delay_model,
            initial_value=self.initial_value,
            max_virtual_time=self.max_virtual_time,
            coalesce=self.coalesce,
            shard_algorithms=self.shard_algorithms,
            workers=self.workers,
            max_events=max_events,
        )

    def with_(self, **changes: object) -> "KVWorkloadSpec":
        """Copy with fields replaced (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)


# ------------------------------------------------------------------ generator


def _zipfian_cum_weights(num_keys: int, s: float) -> list[float]:
    """Cumulative (unnormalised) Zipf weights: weight(rank r) = 1 / r^s."""
    total = 0.0
    cumulative: list[float] = []
    for rank in range(1, num_keys + 1):
        total += 1.0 / (rank**s)
        cumulative.append(total)
    return cumulative


def iter_kv_operations(spec: KVWorkloadSpec) -> Iterator[KVOp]:
    """Lazily yield the spec's operation stream (seeded, reproducible).

    The stream is drawn one operation at a time from a fresh RNG, in exactly
    the order :func:`generate_kv_operations` materializes — runners that
    stream (the open-loop client, the shard-parallel workers) never hold a
    million scripted operations in memory at once.
    """
    rng = make_rng(
        spec.seed,
        "kv-workload",
        spec.num_keys,
        spec.num_ops,
        spec.distribution,
        spec.read_fraction,
    )
    keys = spec.keys()
    # Hot-key ranks are a seeded permutation of the key space so that skew is
    # not systematically correlated with key ids (and hence with placement).
    ranked = list(keys)
    rng.shuffle(ranked)
    if spec.distribution == "zipfian":
        cumulative = _zipfian_cum_weights(spec.num_keys, spec.zipf_s)
        total = cumulative[-1]

        def sample_key() -> str:
            return ranked[bisect.bisect_left(cumulative, rng.random() * total)]

    else:

        def sample_key() -> str:
            return ranked[rng.randrange(spec.num_keys)]

    write_counters: dict[str, int] = {}
    if spec.op_mix is None:
        # The classic two-kind stream — draw-for-draw what every earlier
        # release generated (golden histories depend on it).
        for index in range(spec.num_ops):
            key = sample_key()
            if rng.random() < spec.read_fraction:
                yield KVOp(index, _READ, key)
            else:
                count = write_counters.get(key, 0) + 1
                write_counters[key] = count
                yield KVOp(index, _WRITE, key, f"{key}=v{count}")
        return
    # Weighted mix over MIX_KINDS.  CAS pairs chain through the generator's
    # *predicted* per-key value (what the key would hold if every operation
    # so far applied in script order): under serial driving every swap
    # succeeds; under batched/concurrent driving real races decide.
    kinds = [OperationKind(kind) for kind, _ in spec.op_mix]
    cumulative = list(itertools.accumulate(weight for _, weight in spec.op_mix))
    total = cumulative[-1]
    predicted: dict[str, Any] = {}
    cas_counters: dict[str, int] = {}
    for index in range(spec.num_ops):
        key = sample_key()
        kind = kinds[bisect.bisect_left(cumulative, rng.random() * total)]
        if kind is OperationKind.INCR and isinstance(predicted.get(key), str):
            # Incrementing a string-valued key is a spec type error (the SMR
            # spec computes state + addend); the draw degrades to a read so
            # mixes combining incr with write/cas stay well-typed per key.
            kind = OperationKind.READ
        if kind is OperationKind.READ:
            yield KVOp(index=index, kind=kind, key=key)
        elif kind is OperationKind.WRITE:
            count = write_counters.get(key, 0) + 1
            write_counters[key] = count
            value = f"{key}=v{count}"
            predicted[key] = value
            yield KVOp(index=index, kind=kind, key=key, value=value)
        elif kind is OperationKind.CAS:
            count = cas_counters.get(key, 0) + 1
            cas_counters[key] = count
            expected = predicted.get(key, spec.initial_value)
            new = f"{key}=c{count}"
            predicted[key] = new
            yield KVOp(index=index, kind=kind, key=key, value=(expected, new))
        elif kind is OperationKind.TAS:
            predicted[key] = True
            yield KVOp(index=index, kind=kind, key=key)
        else:  # INCR
            addend = rng.randrange(1, 8)
            base = predicted.get(key, spec.initial_value)
            # Mirror the SMR spec: non-numeric state increments from 0.
            predicted[key] = (base if isinstance(base, (int, float)) else 0) + addend
            yield KVOp(index=index, kind=kind, key=key, value=addend)


def generate_kv_operations(spec: KVWorkloadSpec) -> List[KVOp]:
    """Turn a spec into the concrete operation stream (seeded, reproducible)."""
    return list(iter_kv_operations(spec))


# -------------------------------------------------------------------- result


@dataclass
class RunVerdict:
    """The one judgement of a finished keyed run (:meth:`KVWorkloadResult.verify`)."""

    #: Per-key linearizability verdicts
    #: (:class:`~repro.verification.linearizability.PartitionedCheckReport`),
    #: against the register or SMR spec per the run's ``effective_spec()``.
    report: Any
    #: Agreement/validity violations read off the consensus replicas, or
    #: ``None`` when the run deployed no consensus-backed key
    #: (:attr:`KVWorkloadResult.invariants`).
    invariants: Optional[List[str]]
    #: Everything wrong with the run, flat: an unclean finish, per-key
    #: violations (each names its key), invariant violations, SLO misses.
    failures: List[str]

    @property
    def ok(self) -> bool:
        """True when the run passed every gate."""
        return not self.failures


@dataclass
class KVWorkloadResult:
    """Everything a keyed store run produced — on every backend.

    Serial simulation, shard-parallel workers and the live loopback cluster
    (one client process or several) all hand back this object, built by
    :meth:`from_store` or :func:`~repro.parallel.merge.merged_result`, and a
    finished run is read through it alone.  The run's record is ``oplog``
    (``ops`` views it); the replicas' record is ``stats``, ``crashed`` and
    ``invariants``, taken where the replicas ran.  ``store`` is the
    :class:`~repro.store.store.KVStore` exactly when the run was one serial
    simulation, and ``virtual_makespan`` is set where a virtual clock timed
    the run.
    """

    spec: Any
    oplog: OpLog
    #: Every submitted operation, in submission order (serial sim: the
    #: driver's futures; elsewhere a lazy view over ``oplog``).
    ops: Sequence[OperationRecord]
    wall_seconds: float
    #: Metrics snapshot: latency percentiles, throughput, message bill — in
    #: virtual time units, or wall seconds (plus a ``transport`` section of
    #: per-connection counters) for live runs.
    metrics: dict
    #: The replicas' message bill (merged over workers, drained from live
    #: replicas).  A killed live replica's bill dies with it: live ``stats``
    #: is the survivors' bill.
    stats: NetworkStats
    #: Crashed servers as sorted ``(shard, replica)`` pairs (live: every shard of a process).
    crashed: List[Tuple[int, int]]
    #: The agreement/validity audit of every consensus-backed key, taken
    #: where its replicas ran (``[]`` when healthy); ``None`` when the run
    #: deployed no consensus-backed key.
    invariants: Optional[List[str]]
    store: Optional[KVStore] = None
    virtual_makespan: Optional[float] = None
    batches: int = 0
    #: Open-loop runs: the seeded arrival times, in submission order.
    arrivals: List[float] = field(default_factory=list)
    #: False when a budget (virtual time, wall deadline) cut the run short —
    #: operations were left unsubmitted or pending — or, on the live plane,
    #: when any operation failed.  Simulated operations that *failed fast*
    #: with a reason (crashed replica) still count as a clean finish; they
    #: are reported via ``failed_ops`` instead.  Never silently truncate.
    finished_cleanly: bool = True
    #: ``workers > 1`` only: when a worker process raised or died, the run
    #: fails fast (``finished_cleanly=False``) and this carries the cause (the
    #: worker's traceback when it reported one).  ``None`` otherwise.
    worker_failure: Optional[str] = None
    #: ``workers > 1`` only: total worker→parent result-payload bytes (pickle
    #: blob + out-of-band column buffers).
    ipc_bytes: int = 0
    #: Register runs (:func:`~repro.workloads.runner.run_workload`) only: the
    #: two-bit lemma monitor when the spec asked for one, and an isolated-mode
    #: run's per-operation costs.
    monitor: Optional[Any] = None
    isolated_costs: List[IsolatedOpCost] = field(default_factory=list)

    @classmethod
    def from_store(
        cls, spec: Any, store: KVStore, ops: Sequence[OperationRecord], wall_seconds: float, **fields: Any
    ) -> "KVWorkloadResult":
        """The result of a run simulated on ``store`` in this process, audited as it ends."""
        return cls(
            spec=spec,
            oplog=store.oplog,
            ops=ops,
            wall_seconds=wall_seconds,
            metrics=store.metrics_snapshot(),
            stats=store.stats,
            crashed=store.crashed_servers(),
            invariants=replica_invariants(store),
            store=store,
            virtual_makespan=store.simulator.now,
            **fields,
        )

    @property
    def config(self) -> StoreConfig:
        """The store geometry the run's histories are checked against."""
        return self.spec.store_config()

    # Op accessors, the message total, per-key histories and checking are
    # KVStore's own code (it reads ``ops`` / ``oplog`` / ``stats`` /
    # ``config`` only), so a store and a result can never disagree.
    total_messages = KVStore.total_messages
    completed_ops = KVStore.completed_ops
    failed_ops = KVStore.failed_ops
    history = KVStore.history
    histories = KVStore.histories
    check_linearizability = KVStore.check_linearizability
    check_atomicity = KVStore.check_atomicity

    @property
    def completed(self) -> int:
        """Operations completed when the run ended."""
        return self.metrics["completed"]

    @property
    def failed(self) -> int:
        """Operations failed when the run ended."""
        return self.metrics["failed"]

    @property
    def makespan(self) -> float:
        """Run length on the clock that timed it (virtual units or wall seconds)."""
        return self.wall_seconds if self.virtual_makespan is None else self.virtual_makespan

    def virtual_throughput(self) -> float:
        """Completed operations per virtual-time unit."""
        return _rate(self.completed, self.virtual_makespan or 0.0)

    def wall_throughput(self) -> float:
        """Completed operations per wall-clock second (hardware dependent)."""
        return _rate(self.completed, self.wall_seconds)

    def latencies(self, kind: Optional[OperationKind] = None) -> List[float]:
        """*Service* latencies (invocation to response, on the run's clock).

        Completed operations in submission order, optionally of one kind.
        The metrics snapshot's latencies are sojourn times (they include
        queueing behind the serving replica); these are the protocol's own.
        """
        return [
            op.latency
            for op in self.completed_ops()
            if kind is None or op.kind is kind
        ]

    def verify(self) -> RunVerdict:
        """Judge the run: clean finish, every key linearizable, invariants
        intact, the spec's p99 limit (if any) met.

        The per-key check is :meth:`check_linearizability` with its defaults —
        the call ``store.check_linearizability()`` makes; the consensus
        invariants are the audit the run carries (:attr:`invariants`).
        """
        report = self.check_linearizability()
        failures: List[str] = []
        if self.worker_failure is not None:
            failures.append(f"parallel worker failure:\n{self.worker_failure}")
        elif not self.finished_cleanly:
            failures.append(
                "run did not finish cleanly: "
                + (
                    "operations failed or missed the completion deadline"
                    if self.virtual_makespan is None
                    else "the virtual-time budget expired with operations unsubmitted "
                    "or pending (raise the spec's max_virtual_time, or the offered rate)"
                )
            )
        failures.extend(report.violations())
        failures.extend(self.invariants or ())
        if self.monitor is not None:
            failures.extend(self.monitor.report.violations)
        slo = getattr(self.spec, "slo_p99", None)  # a register spec has none
        latency = self.metrics["latency"]["all"]
        if slo is not None and latency is not None and latency["p99"] > slo:
            unit = "s" if self.virtual_makespan is None else "virtual time units"
            failures.append(f"p99 {latency['p99']:.6g} {unit} misses the {slo:.6g} {unit} SLO")
        return RunVerdict(report=report, invariants=self.invariants, failures=failures)

    def summary(self, verdict: Optional[RunVerdict] = None) -> Dict[str, Any]:
        """The run (and its verdict, when given) as one flat JSON-ready dict.

        What the CLI tables are rendered from.  Values a backend has no
        notion of are ``None``.
        """
        virtual = self.virtual_makespan is not None
        out: Dict[str, Any] = {
            "algorithm": self.spec.algorithm,
            "checked_against": self.config.effective_spec(),
            "clock": "virtual" if virtual else "wall",
            "submitted": len(self.oplog),
            "completed": self.completed,
            "failed": self.failed,
            "messages": self.total_messages(),
            "finished_cleanly": self.finished_cleanly,
            "wall_seconds": round(self.wall_seconds, 4),
            "wall_throughput": json_number(self.wall_throughput(), 1),
            "virtual_makespan": round(self.virtual_makespan, 3) if virtual else None,
            "virtual_throughput": json_number(self.virtual_throughput()) if virtual else None,
            "latency": self.metrics["latency"]["all"],
            "wire": self.metrics.get("transport"),
            "batches": (self.batches or None) if virtual else None,
            "ipc_bytes": self.ipc_bytes or None,
            "per_sender": dict(self.stats.per_sender),
            "coalesced": (
                self.stats.messages_coalesced if virtual and self.config.coalesce else None
            ),
            "crashes_fired": len(self.crashed if virtual else {r for _s, r in self.crashed}),
        }
        if verdict is not None:
            out["ok"] = verdict.ok
            out["atomic"] = verdict.report.ok
            out["keys_checked"] = verdict.report.keys_checked
            out["consensus_violations"] = verdict.invariants
        return out


def _rate(count: int, span: float) -> float:
    if span <= 0:
        return float("inf") if count else 0.0
    return count / span


def iter_kv_arrivals(spec: KVWorkloadSpec) -> Iterator[float]:
    """Lazily yield the seeded open-loop arrival times for ``spec``.

    Derived from the master seed but on an independent RNG stream, so the
    operation mix is identical between closed- and open-loop runs of the
    same spec — only *when* operations arrive changes.
    """
    if not spec.open_loop:
        raise ValueError(f"spec has closed-loop arrivals (arrival={spec.arrival!r})")
    rng = make_rng(spec.seed, "kv-arrivals", spec.arrival, spec.arrival_rate, spec.num_ops)
    return iter_arrival_times(spec.arrival, rng, spec.arrival_rate, spec.num_ops)


def generate_kv_arrivals(spec: KVWorkloadSpec) -> List[float]:
    """Seeded open-loop arrival times for ``spec`` (one per operation)."""
    return list(iter_kv_arrivals(spec))


def last_kv_arrival(spec: KVWorkloadSpec) -> float:
    """The final arrival time of the spec's schedule (0 closed-loop), in O(1) memory."""
    last = 0.0
    for last in iter_kv_arrivals(spec) if spec.open_loop else ():
        pass
    return last


def iter_kv_script(spec: KVWorkloadSpec) -> Iterator[Tuple[float, OpRequest, Any]]:
    """The spec's ``(at, request, value)`` script, lazily (closed loop: ``at`` is 0)."""
    times = iter_kv_arrivals(spec) if spec.open_loop else itertools.repeat(0.0)
    for at, scripted in zip(times, iter_kv_operations(spec)):
        yield (at, interned_request(scripted.kind, scripted.key, None), scripted.value)


def deploy_store(
    config: StoreConfig,
    fault_plan: Optional[FaultPlan] = None,
    crash_points: Sequence[CrashPoint] = (),
) -> KVStore:
    """Build a simulated deployment: the one way a run gets its store.

    Store config, store-wide fault plan, scheduled server crashes — in that
    order, so setup-time events enter the queue identically wherever the
    store is built (serial runner, shard-parallel worker, register runner,
    explorer case).
    """
    store = KVStore(config)
    if fault_plan is not None:
        store.install_fault_plan(fault_plan)
    install_crash_points(crash_points, store.simulator, store.network, store.crash_point)
    return store


def deploy(spec: KVWorkloadSpec) -> KVStore:
    """The single-process store a run of ``spec`` executes on (``spec.workers``
    is the *runner's* concern)."""
    return deploy_store(
        spec.store_config().with_(workers=1), spec.fault_plan, spec.crash_points
    )


def drive_script(
    store: KVStore,
    script: Iterable[Tuple[float, OpRequest, Any]],
    open_loop: bool,
    batch_size: int,
    last_arrival: float = 0.0,
    keep: Optional[Callable[[int, OpRequest], bool]] = None,
    after_drive: Callable[[bool], None] = lambda drove: None,
) -> Tuple[List[OperationRecord], int, bool]:
    """Turn an ``(at, request, value)`` script into events on ``store``.

    The one drive loop of every simulated run (serial, shard-parallel worker,
    explore case).  Closed loop: windows of ``batch_size`` entries, each
    submitted through ``KVStore.submit_*`` and completed by one
    :meth:`~repro.store.store.KVStore.drive`; ``at`` is ignored.  Open loop:
    one :class:`~repro.exec.clients.OpenLoopClient` fires each entry at its
    ``at`` and is driven to ``last_arrival`` plus the store's
    ``max_virtual_time`` — the budget bounds completion after the last
    arrival, so a low offered rate cannot spend it idling.  A request's
    ``replica`` pins the replica serving it (writes always go to the writer).

    ``keep(position, request)``, when given, is asked once per entry in
    script order and drops the entries it refuses; closed-loop windows still
    count them.  ``after_drive(drove)`` runs after every drive with its
    return value.

    Returns ``(ops, drives, finished)``: the submitted operations in
    submission order, the number of drives, and whether the run finished
    cleanly — every entry submitted and every operation done, where an
    operation that failed with a reason (a crashed replica) counts as done.
    """
    if open_loop:
        if keep is not None:
            script = (entry for position, entry in enumerate(script) if keep(position, entry[1]))
        client = OpenLoopClient(store.driver, store.target, script)
        client.start()
        after_drive(client.drive(limit=last_arrival + store.config.max_virtual_time))
        ops, drives, submitted = client.ops, 1, client.all_submitted
    else:
        ops, drives, submitted = [], 0, True
        entries = enumerate(script)
        while True:
            window = list(itertools.islice(entries, batch_size))
            if not window:
                break
            for position, (_at, request, value) in window:
                if keep is not None and not keep(position, request):
                    continue
                # One KVStore.submit_* call per operation (submit_op would
                # nest a second one for reads and writes).
                if request.kind is _WRITE:
                    ops.append(store.submit_put(request.key, value))
                elif request.kind is _READ:
                    ops.append(store.submit_get(request.key, request.replica))
                else:
                    ops.append(store.submit_op(request.kind, request.key, value, request.replica))
            after_drive(store.drive())
            drives += 1
    return ops, drives, submitted and all(op.done for op in ops)


def run_kv_workload(spec: KVWorkloadSpec) -> KVWorkloadResult:
    """Execute a keyed workload on the spec's backend and collect the result.

    A serial simulated run streams the spec's script through
    :func:`drive_script`: closed-loop batches of ``spec.batch_size``
    (``batch_size=1`` reproduces per-operation driving), or open-loop
    arrivals at seeded times with mean rate ``spec.arrival_rate``.

    ``spec.transport == "live"`` dispatches to the loopback socket cluster
    (:func:`repro.transport.live.run_live_workload`, ``spec.workers`` client
    processes) and ``spec.workers > 1`` on the simulator to the
    shard-parallel engine
    (:func:`repro.parallel.engine.run_kv_workload_parallel`); both return the
    same :class:`KVWorkloadResult` — same seeded operation stream, row ``i``
    script operation ``i`` — with wall-clock timings or a virtual makespan,
    respectively, and no ``store``.
    """
    if spec.transport == "live":
        from repro.transport.live import run_live_workload

        return run_live_workload(spec)
    if spec.workers > 1:
        from repro.parallel.engine import run_kv_workload_parallel

        return run_kv_workload_parallel(spec)
    store = deploy(spec)
    started = time.perf_counter()
    # The script streams into the loop: the full operation list never exists.
    ops, batches, finished = drive_script(
        store, iter_kv_script(spec), spec.open_loop, spec.batch_size, last_kv_arrival(spec)
    )
    arrivals = generate_kv_arrivals(spec) if spec.open_loop else []
    wall_seconds = time.perf_counter() - started
    return KVWorkloadResult.from_store(
        spec, store, ops, wall_seconds,
        batches=batches, arrivals=arrivals, finished_cleanly=finished,
    )
