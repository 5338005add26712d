"""The shard-parallel store engine: one worker process per shard group.

How a parallel run works
------------------------
The parent deals the store's shards into ``N`` disjoint round-robin groups
(:meth:`~repro.store.shardmap.ShardMap.shard_groups`) and spawns one worker
per group.  Every worker builds a *complete* store from the same spec — same
placement, same fault plan, same crash schedule, same scripted operation
stream — but only **submits the operations whose key lands in its own
groups' shards**.  Because every subnet draws delays from its own scoped RNG
stream (:meth:`~repro.sim.delays.DelayModel.scoped`) and subnets never
exchange messages, each worker's subnets execute event-for-event what they
would have executed inside the single-process run (DESIGN.md §10 gives the
induction).

The only shared resource is the virtual clock, synchronised at barriers:

* **closed loop** — after each batch, every worker drives its slice to
  completion, reports its local clock, receives the global maximum ``T`` and
  calls :meth:`~repro.sim.scheduler.Simulator.run_before` — processing
  everything strictly before ``T``, exactly the state the single-process
  loop is in when it starts submitting the next batch;
* **open loop** — arrivals carry absolute seeded times, so workers just
  drive their filtered arrival stream against the *global* completion
  budget, with a single final barrier for the merged makespan.

Workers ship back their run as **raw columns**: the driver's
:class:`~repro.exec.oplog.OpLog` crosses the pipe as pickle protocol 5
out-of-band buffers (one flat byte block per column plus the interned value
table), alongside raw metrics samples and network-statistics snapshots.  The
parent concatenates the column blocks, permutes rows into scripted-index
order and wraps them in a :class:`~repro.parallel.merge.MergedStore` whose
histories, checker verdicts and metrics are bit-identical to the serial
run's — no per-operation object is ever pickled or rebuilt.

A worker that raises fails the run *fast*: the parent converts its traceback
into a :class:`~repro.parallel.pool.WorkerFailure`, terminates the rest of
the pool, and returns a result with ``finished_cleanly=False`` and the
traceback in ``worker_failure`` — barriers never hang on a dead worker.
"""

from __future__ import annotations

import itertools
import time
from array import array
from typing import Any, Dict, List, Tuple

from repro.exec.oplog import encode_oplog
from repro.exec.target import OpRequest
from repro.parallel.merge import (
    MergedStore,
    collector_raw_state,
    merge_metrics,
    merge_network_stats,
    merge_oplogs,
)
from repro.parallel.pool import (
    WorkerFailure,
    maybe_poison,
    recv_message,
    send_error,
    spawn_context,
    terminate_all,
)


def _barrier(conn: Any, simulator: Any, stuck: bool) -> float:
    """Worker side of one clock barrier: report, then await the global max.

    ``stuck`` reports that this group's drive ended with operations failed as
    stuck (its event queue drained under them).  The serial loop handles that
    case by draining the *global* queue before ``fail_stuck`` fires — its
    clock ends at the last event anywhere in the system — so when any group
    is stuck the parent broadcasts a ``drain`` round: every worker drains its
    own residual events (the union of those queues *is* the serial queue) and
    re-reports, and only then does the barrier take the max.
    """
    conn.send(("barrier", simulator.now, stuck))
    while True:
        kind, value = conn.recv()
        if kind == "drain":
            simulator.drain()
            conn.send(("barrier", simulator.now, False))
            continue
        if kind != "advance":  # pragma: no cover - protocol invariant
            raise RuntimeError(f"expected an advance message at the barrier, got {kind!r}")
        return value


def _run_group(conn: Any, spec, group_index: int, n_groups: int) -> Dict[str, Any]:
    """Execute one shard group's slice of the workload (runs inside a worker)."""
    from repro.workloads.kv import (
        deploy,
        iter_kv_arrivals,
        iter_kv_operations,
        last_kv_arrival,
        submit_scripted,
    )

    # Every worker deploys the *complete* store (it is itself a plain
    # single-process store over the shards it owns).  Fault plan and crash
    # points are installed in every worker too: crashes are per-shard
    # bookkeeping plus register-process crashes, so they are no-ops for
    # shards the worker never deploys, and scheduling them all keeps the
    # event-queue insertion order of setup-time events identical to the
    # single-process run.
    store = deploy(spec)
    shard_map = store.shard_map
    mine = set(shard_map.shard_groups(n_groups)[group_index])

    tracked: List[Tuple[int, Any]] = []  # (global scripted index, ExecOp)
    batches = 0
    if spec.open_loop:
        # Arrivals keep their absolute seeded times; filtering a subsequence
        # never changes when the surviving arrivals fire.  The schedule
        # streams straight from its seeded generators — the full scripted
        # list never exists in the worker.
        indices: List[int] = []

        def owned_arrivals():
            for at, scripted in zip(iter_kv_arrivals(spec), iter_kv_operations(spec)):
                if shard_map.shard_of(scripted.key) not in mine:
                    continue
                indices.append(scripted.index)
                yield (at, OpRequest(kind=scripted.kind, key=scripted.key), scripted.value)

        from repro.exec.clients import OpenLoopClient

        client = OpenLoopClient(store.driver, store.target, owned_arrivals())
        client.start()
        # The completion budget is anchored at the *global* last arrival —
        # the same limit every worker (and the serial run) uses.
        drove_to_completion = client.drive(limit=last_kv_arrival(spec) + spec.max_virtual_time)
        finished = client.all_submitted and all(op.done for op in client.ops)
        stuck = not drove_to_completion and store.simulator.pending_events == 0
        # The client pre-pulls one arrival, so on truncation ``indices`` may
        # run one entry past the fired ops; zip clips it.
        tracked = list(zip(indices, client.ops))
        batches = 1
        store.simulator.run_before(_barrier(conn, store.simulator, stuck))
    else:
        # Every worker walks every batch window (even ones it owns nothing
        # in): the barrier count must match across workers and the parent.
        stream = iter_kv_operations(spec)
        while True:
            batch = list(itertools.islice(stream, spec.batch_size))
            if not batch:
                break
            for scripted in batch:
                if shard_map.shard_of(scripted.key) not in mine:
                    continue
                tracked.append((scripted.index, submit_scripted(store, scripted)))
            drove_to_completion = store.drive()
            stuck = not drove_to_completion and store.simulator.pending_events == 0
            batches += 1
            store.simulator.run_before(_barrier(conn, store.simulator, stuck))
        finished = all(op.done for _, op in tracked)

    # Ship the run as raw columns: the scripted global index of each oplog
    # row rides along so the parent can reassemble global submission order
    # by permutation instead of sorting an object graph.
    log = store.driver.oplog
    global_index = array("q", bytes(8 * len(log)))  # zero-filled
    for index, op in tracked:
        global_index[op.op_id] = index
    return {
        "group": group_index,
        "columnar": encode_oplog(log, global_index),
        "metrics": collector_raw_state(store.driver.metrics),
        "stats": store.stats.snapshot(),
        "crashed": {shard.shard_id: sorted(shard.crashed_replicas) for shard in store.shards},
        "now": store.simulator.now,
        "executed_events": store.simulator.executed_events,
        "batches": batches,
        "finished": finished,
    }


def _store_worker_main(conn: Any, spec, group_index: int, n_groups: int) -> None:
    """Spawn entry point for one shard-group worker."""
    try:
        maybe_poison("store-worker")
        conn.send(("result", _run_group(conn, spec, group_index, n_groups)))
    except BaseException:
        send_error(conn)
    finally:
        conn.close()


def run_kv_workload_parallel(spec):
    """Run a keyed workload across ``spec.workers`` shard-group processes.

    Returns the same :class:`~repro.workloads.kv.KVWorkloadResult` shape as
    the serial :func:`~repro.workloads.kv.run_kv_workload`, with a
    :class:`~repro.parallel.merge.MergedStore` in the ``store`` slot.  On a
    worker crash the result comes back immediately with
    ``finished_cleanly=False`` and the worker's traceback in
    ``worker_failure``.
    """
    from repro.workloads.kv import KVWorkloadResult, generate_kv_arrivals, run_kv_workload

    # A group without shards would simulate nothing; never spawn more
    # workers than shards.
    n_groups = min(int(spec.workers), spec.num_shards)
    if n_groups <= 1:
        return run_kv_workload(spec.with_(workers=1))

    started = time.perf_counter()
    if spec.open_loop:
        rounds = 1
    else:
        rounds = -(-spec.num_ops // spec.batch_size)  # ceil; 0 ops -> 0 rounds
    ctx = spawn_context()
    procs: List[Any] = []
    conns: List[Any] = []
    payloads: List[Dict[str, Any]] = []
    failure: str = ""
    try:
        for group in range(n_groups):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_store_worker_main,
                args=(child_conn, spec, group, n_groups),
                name=f"repro-shard-group-{group}",
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        def collect_barrier() -> Tuple[float, bool]:
            local_times = []
            any_stuck = False
            for proc, conn in zip(procs, conns):
                message = recv_message(conn, proc, "a barrier time")
                if message[0] == "error":
                    raise WorkerFailure(
                        f"worker {proc.name} raised mid-run", traceback_text=message[1]
                    )
                if message[0] != "barrier":  # pragma: no cover - protocol invariant
                    raise WorkerFailure(f"worker {proc.name} sent {message[0]!r} at a barrier")
                local_times.append(message[1])
                any_stuck = any_stuck or message[2]
            return max(local_times), any_stuck

        for _ in range(rounds):
            t_global, any_stuck = collect_barrier()
            if any_stuck:
                # A group failed operations as stuck.  The serial loop only
                # does that after draining the whole global queue, so every
                # group must drain its residuals before the clocks advance.
                for conn in conns:
                    conn.send(("drain", None))
                t_global, _ = collect_barrier()
            for conn in conns:
                conn.send(("advance", t_global))
        for proc, conn in zip(procs, conns):
            kind, value = recv_message(conn, proc, "the run result")
            if kind == "error":
                raise WorkerFailure(
                    f"worker {proc.name} raised while finishing", traceback_text=value
                )
            if kind != "result":  # pragma: no cover - protocol invariant
                raise WorkerFailure(f"worker {proc.name} sent {kind!r} instead of a result")
            payloads.append(value)
        for proc in procs:
            proc.join()
    except WorkerFailure as exc:
        failure = str(exc)
        payloads = []
    finally:
        terminate_all(procs)
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass
    wall_seconds = time.perf_counter() - started

    # Row ``i`` of the merged log is exactly the op the serial driver would
    # have created ``i``-th (submission order is scripted order in both
    # loops); ``ipc_bytes`` is the whole worker→parent result-plane bill.  A
    # worker failure left no payloads: every fold below then runs over the
    # empty set, and the result is an empty, unclean run carrying the
    # traceback.
    oplog, ipc_bytes = merge_oplogs([payload["columnar"] for payload in payloads])

    stats = merge_network_stats([payload["stats"] for payload in payloads])
    metrics = merge_metrics(
        [payload["metrics"] for payload in payloads],
        stats,
        fault_timeline=spec.fault_plan.timeline() if spec.fault_plan else None,
    )
    crashed: Dict[int, List[int]] = {}
    for payload in payloads:
        for shard_id, replicas in payload["crashed"].items():
            merged = set(crashed.get(shard_id, ())) | set(replicas)
            crashed[shard_id] = sorted(merged)
    makespan = max((payload["now"] for payload in payloads), default=0.0)
    store = MergedStore(
        config=spec.store_config().with_(workers=1),
        oplog=oplog,
        stats=stats,
        crashed=crashed,
        now=makespan,
        executed_events=sum(payload["executed_events"] for payload in payloads),
        fault_plan=spec.fault_plan,
    )
    return KVWorkloadResult(
        spec=spec,
        oplog=oplog,
        ops=store.ops if payloads else [],
        wall_seconds=wall_seconds,
        metrics=metrics,
        store=store,
        virtual_makespan=makespan,
        batches=max((payload["batches"] for payload in payloads), default=0),
        arrivals=generate_kv_arrivals(spec) if spec.open_loop and payloads else [],
        finished_cleanly=not failure and all(payload["finished"] for payload in payloads),
        worker_failure=failure or None,
        ipc_bytes=ipc_bytes,
    )
