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

from repro.exec.driver import Driver
from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import KeyHistories, OpLog
from repro.exec.target import StoreTarget, interned_request
from repro.faults.plan import CrashPoint, install_crash_points
from repro.registers.base import OperationKind, OperationRecord, RegisterProcess
from repro.registers.registry import available_algorithms, get_algorithm
from repro.sim.delays import DelayModel
from repro.sim.network import Network, Subnet
from repro.sim.scheduler import Simulator
from repro.store.shardmap import Placement, ShardMap
from repro.verification.history import History
from repro.verification.register_checker import AtomicityViolation

# Bound once: looking a member up on the enum class runs EnumType's
# ``__getattr__`` hook, which the per-operation path would pay per use.
_READ, _WRITE = OperationKind.READ, OperationKind.WRITE

@dataclass(frozen=True)
class StoreConfig:
    """Everything needed to build (and rebuild, identically) a :class:`KVStore`.

    Attributes
    ----------
    algorithm:
        Registry name of the per-key register algorithm (``"two-bit"``,
        ``"abd"``, ``"abd-mwmr"``, ...).
    num_shards / replication:
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
    max_events:
        Event-count safety valve for the store's simulator (``None`` = the
        :class:`~repro.sim.scheduler.Simulator` default).  Million-op runs
        legitimately execute tens of millions of events and must raise it.

    A config describes one simulated deployment; which backend runs a
    workload, and on how many processes, is the
    :class:`~repro.workloads.kv.KVWorkloadSpec`'s concern.
    """

    algorithm: str = "abd"
    num_shards: int = 4
    replication: int = 3
    delay_model: Optional[DelayModel] = None
    initial_value: Any = "v0"
    max_virtual_time: float = 100_000.0
    coalesce: bool = True
    shard_algorithms: Optional[Tuple[str, ...]] = None
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shard_algorithms is None:
            return
        if len(self.shard_algorithms) != self.num_shards:
            raise ValueError(
                f"shard_algorithms has {len(self.shard_algorithms)} entries "
                f"for {self.num_shards} shards; provide exactly one per shard"
            )
        # A register / consensus mix is refused here, not after its run; an
        # unknown name is refused where it is deployed.
        if set(self.shard_algorithms) <= set(available_algorithms()):
            self.effective_spec()

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
        return ShardMap(num_shards=self.num_shards, replication=self.replication)

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

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
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
        # executes; histories, checking and metrics read the columns, never
        # the operation objects (see repro.exec.oplog).  The metrics view
        # bills the whole store's traffic.
        self.driver = Driver(self.simulator)
        self.driver.metrics = MetricsCollector(self.driver.oplog, self.network.stats)
        #: Installed link-level fault plan (see :meth:`install_fault_plan`).
        self.fault_plan = None

    @property
    def ops(self) -> List[OperationRecord]:
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
        # Its delay model and chooser are scoped to its name (``Subnet``).
        subnet = Subnet(self.network, name=f"shard{placement.shard}:{key!r}")
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

    def submit_put(self, key: Any, value: Any) -> OperationRecord:
        """Enqueue a write of ``value`` to ``key``; complete it via :meth:`drive`.

        Routing (and lazy register deployment) happens in ``target.route``.
        """
        process = self.target.route(interned_request(_WRITE, key, None))
        op = self.driver.new_op(_WRITE, value, key)
        self.driver.submit(process, op)
        return op

    def submit_get(self, key: Any, replica: Optional[int] = None) -> OperationRecord:
        """Enqueue a read of ``key``; complete it via :meth:`drive`.

        Reads round-robin over the key's live replicas unless ``replica``
        pins a specific one.
        """
        process = self.target.route(interned_request(_READ, key, replica))
        op = self.driver.new_op(_READ, None, key)
        self.driver.submit(process, op)
        return op

    def submit_op(
        self, kind: OperationKind, key: Any, value: Any = None, replica: Optional[int] = None
    ) -> OperationRecord:
        """Enqueue an operation of any kind; complete it via :meth:`drive`.

        A pinned ``replica`` serves it; otherwise ``WRITE`` routes to the
        key's writer replica and everything else round-robins over live
        replicas — consensus-object kinds (``cas``, ``tas``, ``incr``) spread
        over replicas exactly like reads, which is what makes the store
        multi-writer under consensus algorithms.
        """
        process = self.target.route(interned_request(kind, key, replica))
        op = self.driver.new_op(kind, value, key)
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

    def _finish(self, op: OperationRecord, call: str) -> OperationRecord:
        """Drive the loop until ``op`` is done; a failed op raises."""
        self.drive()
        if not op.completed:
            raise RuntimeError(
                f"{call}({op.key!r}) "
                + (f"failed: {op.failure_reason}" if op.failed else "has not completed")
            )
        return op

    def put(self, key: Any, value: Any) -> OperationRecord:
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
        policy at deployment, so lazy deployment and chaos compose.  Also
        raises ``Driver.fault_horizon`` past the last scheduled heal and
        annotates metrics snapshots with the fault timeline.
        """
        plan.validate(self.config.replication)
        policy = plan.policy()
        self.network.link_policy = policy
        for deployment in self._registers.values():
            deployment.subnet.link_policy = policy
        self.fault_plan = plan
        # Heal-aware driving: never let a per-drive budget truncate a run
        # while messages are merely held until a scheduled heal.
        self.driver.fault_horizon = plan.quiescent_after() + self.config.max_virtual_time
        self.driver.metrics.fault_timeline = plan.timeline()

    def crash_server_at(
        self, time: float, shard_id: int, replica: int, allow_writer: bool = False
    ) -> None:
        """Schedule :meth:`crash_server` at virtual ``time`` (a time already
        past fires at once): one timed :class:`~repro.faults.CrashPoint`."""
        point = CrashPoint(shard=shard_id, replica=replica, allow_writer=allow_writer, at_time=time)
        install_crash_points((point,), self.simulator, self.network, self.crash_point)

    def crash_point(self, point: CrashPoint) -> None:
        """Fire ``point`` now: the crash callback a store's points are installed with."""
        self.crash_server(point.shard, point.replica, allow_writer=point.allow_writer)

    # ----------------------------------------------------------- inspection

    @property
    def stats(self):
        """Aggregate network statistics across every key's subnet."""
        return self.network.stats

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Driver-level metrics: latency percentiles, throughput, message mix."""
        return self.driver.metrics.snapshot()

    def crashed_servers(self) -> List[Tuple[int, int]]:
        """Every crashed server as ``(shard, replica)``, sorted."""
        return [
            (shard.shard_id, replica)
            for shard in self.shards
            for replica in sorted(shard.crashed_replicas)
        ]

    @property
    def oplog(self) -> OpLog:
        """The columnar log the driver records every operation into."""
        return self.driver.oplog

    # ------------------------------------------- the finished-run surface
    #
    # Written against ``self.ops``, ``self.oplog``, ``self.stats`` and
    # ``self.config`` only, so a finished run is read and checked through
    # these same functions: :class:`~repro.workloads.kv.KVWorkloadResult`
    # binds them as its own methods instead of keeping copies.

    def total_messages(self) -> int:
        """Messages sent across the whole store so far."""
        return self.stats.messages_sent

    def completed_ops(self) -> list[OperationRecord]:
        """Operations that completed successfully, in submission order."""
        return [op for op in self.ops if op.completed]

    def failed_ops(self) -> list[OperationRecord]:
        """Operations that failed (crashed replica, stalled batch, ...)."""
        return [op for op in self.ops if op.failed]

    def history(self, key: Any) -> History:
        """The SWMR history of one key (completed and pending operations);
        empty for a key no operation touched."""
        log = self.oplog
        return History.view(log, log.rows_by_key().get(key, ()), self.config.initial_value)

    def histories(self) -> Dict[Any, History]:
        """Every touched key's history, keyed by key.

        Each is a :class:`~repro.verification.history.History` view over the
        OpLog: the log and the key's rows, sorted into history order on this
        call; no cell is copied and no per-operation object is built until a
        caller asks for ``operations``.  A view reads the log's cells when
        asked, so a row still pending now shows its response once it
        completes; its rows are fixed now, so a row issued later is not in it.
        """
        return self.oplog.per_key_histories(initial_value=self.config.initial_value)

    def check_linearizability(
        self,
        swmr_fast_path: bool = True,
        max_states: Optional[int] = None,
    ):
        """Check every key with the general linearizability checker.

        Per-key partitioning is sound because keys are independent registers
        (P-compositionality / Herlihy–Wing locality — see DESIGN §9).  The
        default lets single-writer keys take the Lemma-10 claims fast path,
        which reads the op log's columns and builds no history for a key it
        accepts; ``swmr_fast_path=False`` forces the Wing–Gong search on every key
        (what the schedule explorer and the checker benchmark use).
        Consensus-object stores are checked against the SMR spec
        (:meth:`StoreConfig.effective_spec`).
        """
        from repro.verification.linearizability import check_histories_per_key

        return check_histories_per_key(
            KeyHistories(self.oplog, self.config.initial_value),
            swmr_fast_path=swmr_fast_path,
            max_states=max_states,
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


def create_store(**config: Any) -> KVStore:
    """Create a sharded multi-key store (the ``repro.create_store`` entry point).

    ``config`` is :class:`StoreConfig`'s fields; see :class:`KVStore` for usage.
    """
    return KVStore(StoreConfig(**config))
