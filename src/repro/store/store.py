"""Sharded multi-key register store: many registers, one simulation.

The paper implements a *single* atomic register; a real keyed store serves
millions of independent keys.  This module composes many register instances
(any algorithm from :mod:`repro.registers.registry`) behind one
:class:`KVStore` facade:

* each key gets its own register deployment — ``replication`` processes on a
  private :class:`~repro.sim.network.Subnet` — created lazily on first use;
* a :class:`~repro.store.shardmap.ShardMap` places keys on shard groups;
  keys of a shard share a crash domain (:meth:`KVStore.crash_server`) but
  nothing else;
* all deployments share a single :class:`~repro.sim.scheduler.Simulator` and
  aggregate :class:`~repro.sim.network.NetworkStats`, so operations on
  different keys interleave realistically on one virtual clock and produce
  one message bill.

Two driving styles, same API:

* **blocking** — :meth:`KVStore.put` / :meth:`KVStore.get` issue one
  operation and run the event loop until it completes (the classic
  :class:`~repro.registers.base.RegisterHandle` pattern, one ``run_until``
  per operation);
* **batched** — :meth:`KVStore.submit_put` / :meth:`KVStore.submit_get`
  enqueue any number of concurrent operations and one :meth:`KVStore.drive`
  call runs the loop until *all* of them complete.  Operations on different
  keys overlap in virtual time, so a batch of B independent operations
  finishes in roughly one operation's latency instead of B of them
  (``tests/store/test_kvstore.py`` pins batched < per-op / 4).

Both styles delegate the actual driving — per-process FIFO queueing,
completion chaining, stuck detection, metrics — to the unified execution
engine (:mod:`repro.exec`); the store contributes routing
(:class:`~repro.exec.target.StoreTarget`) and the shard/replica geometry.

Per-key atomicity is checked with the same fast checker the single-register
harness uses: each key's operations form an independent SWMR history
(:meth:`KVStore.check_atomicity`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.driver import Driver, ExecOp
from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog
from repro.exec.target import OpRequest, StoreTarget
from repro.registers.base import OperationKind, RegisterProcess
from repro.registers.registry import get_algorithm
from repro.sim.delays import DelayModel
from repro.sim.network import Network, Subnet
from repro.sim.scheduler import Simulator
from repro.store.shardmap import Placement, ShardMap
from repro.transport.base import validate_transport
from repro.verification.history import History
from repro.verification.register_checker import AtomicityViolation

#: A submitted store operation — the engine-level future, re-exported under
#: its historical name (``op.key`` is always set for store operations).
StoreOp = ExecOp


@dataclass(frozen=True)
class StoreConfig:
    """Everything needed to build (and rebuild, identically) a :class:`KVStore`.

    Attributes
    ----------
    algorithm:
        Registry name of the per-key register algorithm (``"two-bit"``,
        ``"abd"``, ``"abd-mwmr"``, ...).
    num_shards / replication / placement_salt:
        The :class:`~repro.store.shardmap.ShardMap` geometry.
    delay_model:
        Message-delay model shared by every subnet (``None`` = fixed 1.0).
        The store calls :meth:`~repro.sim.delays.DelayModel.fresh` so reusing
        one config reproduces the same delays.
    initial_value:
        Initial value of every key's register (must be hashable and distinct
        from written values for the fast checker).
    max_virtual_time:
        Per-:meth:`KVStore.drive` virtual-time budget before the store stops
        waiting for stragglers.
    coalesce:
        Pack same-instant deliveries to one replica into a single heap event
        (see :class:`~repro.sim.network.Network`).  On by default: the store
        is the broadcast-heavy deployment where quorum replies pile onto the
        same destination at the same instant, and logical-message accounting
        (bills, per-type attribution, link policies) is unaffected.  Turn it
        off to reproduce pre-coalescing event interleavings exactly.
    shard_algorithms:
        Optional per-shard register algorithms (one registry name per shard,
        length must equal ``num_shards``).  Keys placed on shard ``i`` run
        ``shard_algorithms[i]``; unset means every shard runs ``algorithm``.
        The shared quorum engine makes mixing algorithms under one workload
        cheap — this is what the ``kv_mixed`` scenario exercises.
    workers:
        Worker processes for shard-parallel execution (see
        :mod:`repro.parallel`).  ``1`` (default) is the plain single-process
        path; ``N > 1`` partitions shards into ``N`` disjoint groups and runs
        each group in its own process.  Carried on the config so workloads
        and the parallel engine can rebuild identical stores; a
        :class:`KVStore` itself always simulates whatever shards it hosts in
        one process.
    max_events:
        Event-count safety valve for the store's simulator (``None`` = the
        :class:`~repro.sim.scheduler.Simulator` default).  Million-op runs
        legitimately execute tens of millions of events and must raise it.
    """

    algorithm: str = "abd"
    num_shards: int = 4
    replication: int = 3
    placement_salt: int = 0
    delay_model: Optional[DelayModel] = None
    initial_value: Any = "v0"
    max_virtual_time: float = 100_000.0
    coalesce: bool = True
    shard_algorithms: Optional[Tuple[str, ...]] = None
    workers: int = 1
    max_events: Optional[int] = None
    #: Backend name (``"sim"``/``"live"``).  A :class:`KVStore` itself is the
    #: *simulated* deployment — constructing one from a live config raises;
    #: the field rides on the config so workload specs and the CLI carry one
    #: geometry description across both backends.
    transport: str = "sim"

    def __post_init__(self) -> None:
        validate_transport(self.transport)
        if self.shard_algorithms is not None and len(self.shard_algorithms) != self.num_shards:
            raise ValueError(
                f"shard_algorithms has {len(self.shard_algorithms)} entries "
                f"for {self.num_shards} shards; provide exactly one per shard"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def algorithm_for(self, shard: int) -> str:
        """The register algorithm keys of ``shard`` run."""
        if self.shard_algorithms is None:
            return self.algorithm
        return self.shard_algorithms[shard]

    def effective_spec(self) -> str:
        """The sequential spec this store's histories are checked against.

        ``"register"`` for read/write register algorithms, ``"smr"`` for the
        consensus-backed object algorithms.  Mixing the two in one store is
        rejected: per-key verdicts would need per-key specs and no scenario
        wants that geometry.
        """
        names = set(self.shard_algorithms) if self.shard_algorithms else {self.algorithm}
        specs = {get_algorithm(name).spec for name in names}
        if len(specs) > 1:
            raise ValueError(
                f"store mixes algorithms with different sequential specs {sorted(specs)}; "
                "deploy register and consensus-object algorithms in separate stores"
            )
        return specs.pop()

    def shard_map(self) -> ShardMap:
        """The (validated) placement this config describes."""
        return ShardMap(
            num_shards=self.num_shards,
            replication=self.replication,
            salt=self.placement_salt,
        )

    def with_(self, **changes: object) -> "StoreConfig":
        """Copy with fields replaced (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)


@dataclass
class KeyRegister:
    """One key's register deployment: a subnet plus its processes."""

    key: Any
    placement: Placement
    subnet: Subnet
    processes: List[RegisterProcess]
    writer_index: int = 0
    next_read_replica: int = 0  # round-robin cursor for read load-spreading


@dataclass
class StoreShard:
    """Book-keeping for one shard group (a crash domain)."""

    shard_id: int
    replication: int
    crashed_replicas: set[int] = field(default_factory=set)
    registers: List[KeyRegister] = field(default_factory=list)

    @property
    def live_replicas(self) -> int:
        return self.replication - len(self.crashed_replicas)


class KVStore:
    """Sharded multi-key atomic register store (the facade).

    >>> store = KVStore(StoreConfig(algorithm="abd", num_shards=4))
    >>> _ = store.put("user:7", "alice")     # blocking: drives the event loop
    >>> store.get("user:7")
    'alice'
    >>> ops = [store.submit_get("user:7"), store.submit_put("cart:7", "empty")]
    >>> _ = store.drive()                    # one event-loop run for the batch
    >>> ops[0].result
    'alice'

    Every key is an independent SWMR register: puts go to replica 0 of the
    key's shard (the writer), gets round-robin over live replicas.  The store
    records every operation so :meth:`check_atomicity` can verify each key's
    history after the fact.
    """

    def __init__(self, config: Optional[StoreConfig] = None, **overrides: object) -> None:
        if config is None:
            config = StoreConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            config = config.with_(**overrides)
        self.config = config
        if config.transport != "sim":
            raise ValueError(
                f"KVStore is the simulated deployment; transport={config.transport!r} "
                "runs through repro.transport.live.run_live_workload instead"
            )
        self.shard_map = config.shard_map()  # validates the geometry
        get_algorithm(config.algorithm)  # fail fast on unknown names
        if config.shard_algorithms is not None:
            for name in config.shard_algorithms:
                get_algorithm(name)
        self.simulator = (
            Simulator() if config.max_events is None else Simulator(max_events=config.max_events)
        )
        delay = config.delay_model.fresh() if config.delay_model is not None else None
        # The root network hosts no processes itself; it provides the shared
        # clock, delay model, aggregate stats and the coalescing setting that
        # every subnet taps into.
        self.network = Network(self.simulator, delay_model=delay, coalesce=config.coalesce)
        self.shards = [
            StoreShard(shard_id=shard, replication=config.replication)
            for shard in range(config.num_shards)
        ]
        self._registers: Dict[Any, KeyRegister] = {}
        # All driving goes through the unified execution engine: the store
        # contributes routing (StoreTarget) and geometry; repro.exec owns
        # queueing, completion chaining, stuck detection and metrics.
        self.target = StoreTarget(self)
        # The driver records every operation into a columnar OpLog as the run
        # executes; histories and checking read the columns, never the ExecOp
        # object graph (see repro.exec.oplog).
        self.driver = Driver(
            self.simulator, metrics=MetricsCollector(self.network), oplog=OpLog()
        )
        #: Installed link-level fault plan (see :meth:`install_fault_plan`).
        self.fault_plan = None

    @property
    def ops(self) -> List[StoreOp]:
        """Every submitted operation, in submission order."""
        return self.driver.ops

    # ------------------------------------------------------------- placement

    def placement(self, key: Any) -> Placement:
        """Where ``key`` lives (computed, does not deploy the register)."""
        return self.shard_map.placement(key)

    def register_for(self, key: Any) -> KeyRegister:
        """The key's register deployment, created lazily on first access."""
        deployment = self._registers.get(key)
        if deployment is None:
            deployment = self._deploy(key)
        return deployment

    def _deploy(self, key: Any) -> KeyRegister:
        placement = self.shard_map.placement(key)
        shard = self.shards[placement.shard]
        subnet = Subnet(self.network, name=f"shard{placement.shard}:{key!r}")
        # Every subnet gets a *scoped* delay stream derived from the model's
        # seed and the subnet name: a subnet's delay draws then depend only on
        # its own send sequence, never on interleaving with other subnets.
        # This is what makes disjoint shard groups executable in separate
        # worker processes with bit-identical histories (repro.parallel) —
        # the same per-subnet scoping the explore perturbation streams use.
        subnet.delay_model = self.network.delay_model.scoped(subnet.name)
        algorithm = get_algorithm(self.config.algorithm_for(placement.shard))
        processes = algorithm.build(
            self.simulator,
            subnet,
            self.config.replication,
            writer_pid=0,
            initial_value=self.config.initial_value,
        )
        deployment = KeyRegister(
            key=key, placement=placement, subnet=subnet, processes=list(processes)
        )
        # A register deployed after a server crashed joins the crash domain
        # in its current state: the corresponding replica is down from birth.
        for replica in shard.crashed_replicas:
            processes[replica].crash()
        shard.registers.append(deployment)
        self._registers[key] = deployment
        return deployment

    @property
    def deployed_keys(self) -> list[Any]:
        """Keys whose registers have been deployed, sorted by repr."""
        return sorted(self._registers, key=repr)

    # ------------------------------------------------------------ submission

    def submit_put(self, key: Any, value: Any) -> StoreOp:
        """Enqueue a write of ``value`` to ``key``; complete it via :meth:`drive`.

        Routing (and lazy register deployment) happens in ``target.route``.
        """
        process = self.target.route(OpRequest(kind=OperationKind.WRITE, key=key))
        op = self.driver.new_op(OperationKind.WRITE, value=value, key=key)
        self.driver.submit(process, op)
        return op

    def submit_get(self, key: Any, replica: Optional[int] = None) -> StoreOp:
        """Enqueue a read of ``key``; complete it via :meth:`drive`.

        Reads round-robin over the key's live replicas unless ``replica``
        pins a specific one.
        """
        process = self.target.route(
            OpRequest(kind=OperationKind.READ, key=key, replica=replica)
        )
        op = self.driver.new_op(OperationKind.READ, key=key)
        self.driver.submit(process, op)
        return op

    def submit_op(
        self, kind: OperationKind, key: Any, value: Any = None, replica: Optional[int] = None
    ) -> StoreOp:
        """Enqueue an operation of any kind; complete it via :meth:`drive`.

        ``WRITE`` routes to the key's writer replica, everything else
        round-robins over live replicas (or honours a pinned ``replica``) —
        consensus-object kinds (``cas``, ``tas``, ``incr``) spread over
        replicas exactly like reads, which is what makes the store
        multi-writer under consensus algorithms.
        """
        if kind is OperationKind.WRITE:
            return self.submit_put(key, value)
        if kind is OperationKind.READ:
            return self.submit_get(key, replica=replica)
        process = self.target.route(OpRequest(kind=kind, key=key, replica=replica))
        op = self.driver.new_op(kind, value=value, key=key)
        self.driver.submit(process, op)
        return op

    def pick_reader(self, deployment: KeyRegister) -> RegisterProcess:
        """Round-robin over the deployment's live replicas (used by routing)."""
        replication = self.config.replication
        for offset in range(replication):
            index = (deployment.next_read_replica + offset) % replication
            if not deployment.processes[index].crashed:
                deployment.next_read_replica = (index + 1) % replication
                return deployment.processes[index]
        # Unreachable under the minority crash budget; kept for robustness.
        return deployment.processes[deployment.next_read_replica]

    # ----------------------------------------------------------- driving
    #
    # Queueing, issuing and completion chaining live in repro.exec.Driver;
    # the store only decides *when* to run the loop and for how long.

    @property
    def outstanding(self) -> int:
        """Submitted operations not yet completed (or failed)."""
        return self.driver.outstanding

    def drive(self, limit: Optional[float] = None) -> bool:
        """Run the shared event loop until every submitted operation is done.

        This is the batched hot path: one ``run_until`` for the whole batch
        instead of one per operation, so independent operations overlap in
        virtual time.  Returns ``True`` when everything completed; ``False``
        when the virtual-time ``limit`` passed first (operations stay
        outstanding and a later ``drive`` may finish them) or the event queue
        drained with operations stuck (they are marked failed — this happens
        when a replica crashed mid-operation).
        """
        if limit is None:
            limit = self.simulator.now + self.config.max_virtual_time
        return self.driver.drive(limit=limit)

    # ----------------------------------------------------- blocking facade

    def _finish(self, op: StoreOp, call: str) -> StoreOp:
        """Drive the loop until ``op`` is done; a failed op raises."""
        self.drive()
        if op.failed:
            raise RuntimeError(f"{call}({op.key!r}) failed: {op.failure_reason}")
        return op

    def put(self, key: Any, value: Any) -> StoreOp:
        """Blocking write: submit, then drive the loop until it completes."""
        return self._finish(self.submit_put(key, value), "put")

    def get(self, key: Any) -> Any:
        """Blocking read: submit, then drive the loop; returns the value."""
        return self._finish(self.submit_get(key), "get").result

    def _blocking_op(self, kind: OperationKind, key: Any, value: Any = None) -> Any:
        return self._finish(self.submit_op(kind, key, value), kind.value).result

    def cas(self, key: Any, expected: Any, new: Any) -> bool:
        """Blocking compare-and-swap; True iff the swap took effect."""
        return self._blocking_op(OperationKind.CAS, key, (expected, new))

    def tas(self, key: Any) -> Any:
        """Blocking test-and-set: sets the key to ``True``, returns the old value."""
        return self._blocking_op(OperationKind.TAS, key)

    def incr(self, key: Any, amount: int = 1) -> int:
        """Blocking counter increment; returns the post-increment value."""
        return self._blocking_op(OperationKind.INCR, key, amount)

    def settle(self) -> None:
        """Drain residual dissemination (forwarded messages, late acks)."""
        self.simulator.drain()

    # -------------------------------------------------------------- teardown

    def close(self) -> None:
        """Tear the store down: close every key's subnet and the root network.

        After closing, any further protocol send raises
        :class:`~repro.transport.base.TransportClosedError` — a subnet is no
        longer immortal once its store is done with it.  Recorded state
        (histories, the op log, metrics) stays readable.  Idempotent.
        """
        for deployment in self._registers.values():
            deployment.subnet.close()
        self.network.close()

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------------- faults

    def crash_server(self, shard_id: int, replica: int, allow_writer: bool = False) -> None:
        """Crash virtual server ``replica`` of ``shard_id``.

        Crashes replica ``replica`` of *every* register hosted on the shard,
        now and in the future (registers deployed later are born with the
        replica down).  Enforces the per-shard minority budget
        ``(replication - 1) // 2``.  Replica 0 hosts every key's writer, so
        crashing it halts all puts on the shard; require ``allow_writer=True``
        to make that explicit.
        """
        if not 0 <= shard_id < self.config.num_shards:
            raise ValueError(f"shard {shard_id} out of range for {self.config.num_shards} shards")
        if not 0 <= replica < self.config.replication:
            raise ValueError(
                f"replica {replica} out of range for replication {self.config.replication}"
            )
        shard = self.shards[shard_id]
        if replica in shard.crashed_replicas:
            return
        if replica == 0 and not allow_writer:
            raise ValueError(
                "replica 0 hosts every key's writer on this shard; crashing it "
                "halts all puts — pass allow_writer=True to do it anyway"
            )
        budget = self.shard_map.max_faulty_per_shard
        if len(shard.crashed_replicas) + 1 > budget:
            raise ValueError(
                f"crashing replica {replica} of shard {shard_id} would exceed the "
                f"tolerated minority t = {budget} of replication = {self.config.replication}"
            )
        shard.crashed_replicas.add(replica)
        for deployment in shard.registers:
            deployment.processes[replica].crash()

    def install_fault_plan(self, plan) -> None:
        """Install a :class:`~repro.faults.FaultPlan`'s link policies store-wide.

        The plan's policies are keyed by *replica index* (``0 ..
        replication - 1``) and apply uniformly to every key's subnet —
        partitioning replica 2 partitions it for every shard.  Registers
        deployed later (keys touched for the first time mid-run) inherit the
        policy at deployment, so lazy deployment and chaos compose.

        Store-level plans carry link policies only: a server crash needs a
        ``(shard, replica)`` coordinate, which is what
        :class:`~repro.workloads.kv.CrashPoint` / :meth:`crash_server_at`
        express.  Also raises the driver's drive horizon past the last
        scheduled heal and annotates metrics snapshots with the fault
        timeline.
        """
        if plan.crash_schedule is not None:
            raise ValueError(
                "store-level fault plans carry link policies only; schedule server "
                "crashes with CrashPoint / crash_server_at (they need a shard "
                "coordinate, not a pid)"
            )
        plan.validate(self.config.replication)
        policy = plan.policy()
        self.network.link_policy = policy
        for deployment in self._registers.values():
            deployment.subnet.link_policy = policy
        self.fault_plan = plan
        # Heal-aware driving: never let a per-drive budget truncate a run
        # while messages are merely held until a scheduled heal.
        self.driver.fault_horizon = plan.quiescent_after() + self.config.max_virtual_time
        if self.driver.metrics is not None:
            self.driver.metrics.fault_timeline = plan.timeline()

    def install_perturbation(self, perturbation) -> None:
        """Install a schedule-exploration perturbation store-wide.

        ``perturbation`` is an object with ``perturb(src, dst, now, delay)
        -> float`` (see :mod:`repro.explore.perturb`), consulted once per
        logical message after the link policy.  Like fault plans it applies
        to every key's subnet, including subnets deployed later; unlike them
        it may carry state (a seeded choice recorder or a replayed choice
        log), which is what makes explored schedules shrinkable.
        """
        self.network.perturbation = perturbation
        for deployment in self._registers.values():
            deployment.subnet.perturbation = perturbation

    def crash_server_at(
        self, time: float, shard_id: int, replica: int, allow_writer: bool = False
    ) -> None:
        """Schedule :meth:`crash_server` at virtual ``time`` (for crash plans).

        Times already in the past fire immediately (same clamping the
        :class:`~repro.sim.failures.FailureInjector` applies).
        """
        self.simulator.schedule_at(
            max(time, self.simulator.now),
            lambda: self.crash_server(shard_id, replica, allow_writer=allow_writer),
            label=f"crash shard{shard_id}/replica{replica}",
        )

    # ----------------------------------------------------------- inspection

    @property
    def stats(self):
        """Aggregate network statistics across every key's subnet."""
        return self.network.stats

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Driver-level metrics: latency percentiles, throughput, message mix."""
        return self.driver.metrics.snapshot()

    @property
    def oplog(self) -> OpLog:
        """The columnar log the driver records every operation into."""
        return self.driver.oplog

    # ------------------------------------------- the finished-run surface
    #
    # Written against ``self.ops``, ``self.oplog``, ``self.stats`` and
    # ``self.config`` only, so everything that carries a finished run reads
    # and checks it through these same functions:
    # :class:`~repro.parallel.merge.MergedStore` and
    # :class:`~repro.workloads.kv.KVWorkloadResult` bind them as their own
    # methods instead of keeping copies.

    def total_messages(self) -> int:
        """Messages sent across the whole store so far."""
        return self.stats.messages_sent

    def completed_ops(self) -> list[StoreOp]:
        """Operations that completed successfully, in submission order."""
        return [op for op in self.ops if op.completed]

    def failed_ops(self) -> list[StoreOp]:
        """Operations that failed (crashed replica, stalled batch, ...)."""
        return [op for op in self.ops if op.failed]

    def history(self, key: Any) -> History:
        """The SWMR history of one key (completed and pending operations)."""
        return self.oplog.history_for(key, initial_value=self.config.initial_value)

    def histories(self) -> Dict[Any, History]:
        """Every touched key's history, keyed by key.

        Each is a :class:`~repro.verification.history.History` gathered from
        the OpLog's columns and sharing its value table; no per-operation
        object is built until a caller asks for ``operations``.
        """
        return self.oplog.per_key_histories(initial_value=self.config.initial_value)

    def check_linearizability(
        self,
        swmr_fast_path: bool = True,
        max_states: Optional[int] = None,
        workers: int = 1,
    ):
        """Check every key with the general linearizability checker.

        Per-key partitioning is sound because keys are independent registers
        (P-compositionality / Herlihy–Wing locality — see DESIGN §9).  The
        default lets single-writer keys take the Lemma-10 claims fast path;
        ``swmr_fast_path=False`` forces the Wing–Gong search on every key
        (what the schedule explorer and the checker benchmark use).
        ``workers > 1`` checks keys on a process pool (:mod:`repro.parallel`).
        Consensus-object stores are checked against the SMR spec
        (:meth:`StoreConfig.effective_spec`).
        """
        from repro.verification.linearizability import check_histories_per_key

        return check_histories_per_key(
            self.histories(),
            swmr_fast_path=swmr_fast_path,
            max_states=max_states,
            workers=workers,
            spec=self.config.effective_spec(),
        )

    def check_atomicity(self, raise_on_violation: bool = True):
        """The *raising* spelling of :meth:`check_linearizability`.

        Same per-key check, same
        :class:`~repro.verification.linearizability.PartitionedCheckReport`;
        a failing report raises :class:`AtomicityViolation` listing every
        violation unless ``raise_on_violation`` is false.
        """
        report = self.check_linearizability()
        if raise_on_violation and not report.ok:
            violations = report.violations()
            raise AtomicityViolation(
                f"{len(violations)} per-key atomicity violation(s):\n  - "
                + "\n  - ".join(violations)
            )
        return report


def create_store(
    num_shards: int = 4,
    replication: int = 3,
    algorithm: str = "abd",
    delay_model: Optional[DelayModel] = None,
    initial_value: Any = "v0",
    placement_salt: int = 0,
    coalesce: bool = True,
    shard_algorithms: Optional[Tuple[str, ...]] = None,
) -> KVStore:
    """Create a sharded multi-key store (the ``repro.create_store`` entry point).

    Parameters mirror :class:`StoreConfig`; see :class:`KVStore` for usage.
    """
    return KVStore(
        StoreConfig(
            algorithm=algorithm,
            num_shards=num_shards,
            replication=replication,
            placement_salt=placement_salt,
            delay_model=delay_model,
            initial_value=initial_value,
            coalesce=coalesce,
            shard_algorithms=shard_algorithms,
        )
    )
