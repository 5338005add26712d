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

A worker runs the serial run's own drive loop
(:func:`~repro.workloads.kv.drive_script`) with its shard filter and a clock
barrier after every drive.  The only shared resource is the virtual clock,
synchronised at those barriers:

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
table), alongside network-statistics snapshots.  The parent concatenates
the column blocks, permutes rows into scripted-index order and folds
everything into the one result (:func:`~repro.parallel.merge.merged_result`,
its metrics a view over the merged log) whose histories, checker verdicts
and metrics are bit-identical to the serial run's — no
per-operation object is ever pickled or rebuilt.  The consensus audit runs
where the replicas live: each worker audits its own store and ships the
violations back.

A worker that raises fails the run *fast*: the parent converts its traceback
into a :class:`~repro.parallel.pool.WorkerFailure`, terminates the rest of
the pool, and returns a result with ``finished_cleanly=False`` and the
traceback in ``worker_failure`` — barriers never hang on a dead worker.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Dict, List, Tuple

from repro.exec.oplog import encode_oplog
from repro.exec.target import OpRequest
from repro.parallel.merge import merge_network_stats, merged_result
from repro.parallel.pool import (
    WorkerFailure,
    maybe_poison,
    recv_message,
    send_error,
    spawn_context,
    terminate_all,
)


def _barrier(conn: Any, simulator: Any, drove: bool) -> None:
    """Worker side of one clock barrier: report, await the global max, advance.

    A drive that returned ``False`` with nothing left to run ended with
    operations failed as *stuck* (the group's event queue drained under
    them).  The serial loop handles that case by draining the *global* queue
    before ``fail_stuck`` fires — its clock ends at the last event anywhere
    in the system — so when any group is stuck the parent broadcasts a
    ``drain`` round: every worker drains its own residual events (the union
    of those queues *is* the serial queue) and re-reports, and only then does
    the barrier take the max, which every worker then runs up to.
    """
    conn.send(("barrier", simulator.now, not drove and simulator.pending_events == 0))
    while True:
        kind, value = conn.recv()
        if kind == "drain":
            simulator.drain()
            conn.send(("barrier", simulator.now, False))
            continue
        if kind != "advance":  # pragma: no cover - protocol invariant
            raise RuntimeError(f"expected an advance message at the barrier, got {kind!r}")
        simulator.run_before(value)
        return


def _run_group(conn: Any, spec, group_index: int, n_groups: int) -> Dict[str, Any]:
    """Execute one shard group's slice of the workload (runs inside a worker)."""
    from repro.consensus.mmr import replica_invariants
    from repro.workloads.kv import (
        deploy, drive_script, iter_kv_arrivals, iter_kv_script, last_kv_arrival,
    )

    # Every worker deploys the *complete* store (it is itself a plain
    # single-process store over the shards it owns).  Fault plan and crash
    # points are installed in every worker too: crashes are per-shard
    # bookkeeping plus register-process crashes, so they are no-ops for
    # shards the worker never deploys, and scheduling them all keeps the
    # event-queue insertion order of setup-time events identical to the
    # single-process run.
    store = deploy(spec)
    shard_of = store.shard_map.shard_of
    mine = set(store.shard_map.shard_groups(n_groups)[group_index])
    positions: List[int] = []  # script position of every owned entry

    def owned(position: int, request: OpRequest) -> bool:
        if shard_of(request.key) not in mine:
            return False
        positions.append(position)
        return True

    # The serial run's script, filtered: open-loop arrivals keep their
    # absolute times and the budget its global anchor; every worker walks
    # every closed-loop window (even ones it owns nothing in), so the
    # barrier count matches across workers and the parent.  The times are
    # drawn twice, lazily (once for the budget's anchor, once as they are
    # fired), so a worker holds none of them.
    ops, batches, finished = drive_script(
        store,
        iter_kv_script(spec, iter_kv_arrivals(spec) if spec.open_loop else ()),
        spec.open_loop,
        spec.batch_size,
        last_kv_arrival(spec),
        keep=owned,
        after_drive=lambda drove: _barrier(conn, store.simulator, drove),
    )

    # Ship the run as raw columns: the scripted global index of each oplog
    # row rides along so the parent can reassemble global submission order
    # by permutation instead of sorting an object graph.  (The open-loop
    # client pre-pulls one entry, so on truncation ``positions`` may run one
    # past the fired ops; zip clips it.)
    log = store.driver.oplog
    global_index = array("q", bytes(8 * len(log)))  # zero-filled
    for index, op in zip(positions, ops):
        global_index[op.op_id] = index
    return {
        "columnar": encode_oplog(log, global_index),
        "batches": batches,
        "finished": finished,
        "stats": store.stats.snapshot(),
        "crashed": store.crashed_servers(),
        "invariants": replica_invariants(store),
        "now": store.simulator.now,
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

    Returns the same :class:`~repro.workloads.kv.KVWorkloadResult` as the
    serial :func:`~repro.workloads.kv.run_kv_workload`, with no ``store``
    (the replicas lived in the workers).  On a worker crash the result comes
    back immediately with ``finished_cleanly=False`` and the worker's
    traceback in ``worker_failure``.
    """
    from repro.workloads.kv import run_kv_workload

    # A group without shards would simulate nothing; never spawn more
    # workers than shards.
    n_groups = min(int(spec.workers), spec.num_shards)
    if n_groups <= 1:
        return run_kv_workload(spec.with_(workers=1))

    started = time.perf_counter()
    # One barrier per worker drive: one open-loop drive, or one per window.
    rounds = 1 if spec.open_loop else -(-spec.num_ops // spec.batch_size)
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
    # Disjoint groups deploy disjoint keys, so their audits concatenate; a
    # group with no consensus-backed key had nothing to audit.
    audits = [payload["invariants"] for payload in payloads if payload["invariants"] is not None]
    return merged_result(
        spec,
        payloads,
        started,
        stats=merge_network_stats([payload["stats"] for payload in payloads]),
        crashed={pair for payload in payloads for pair in payload["crashed"]},
        invariants=[violation for audit in audits for violation in audit] if audits else None,
        virtual_makespan=max((payload["now"] for payload in payloads), default=0.0),
        failure=failure or None,
    )
