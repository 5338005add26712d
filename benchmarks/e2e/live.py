"""The two live-loopback workloads, driven directly and stamped correctly.

``LiveCluster`` + ``LiveClient`` are driven from here rather than through
``run_live_workload`` / ``run_loadgen``: both of those stamp an operation's
response time when its result is *collected* (after the firing loop), so an
open-loop run reports the length of the schedule as latency (README, "Known
measurement gaps in ``src/``").  This driver registers a pending object with
a ``future`` for every operation, sends the ``invoke`` frame itself and
stamps completion in the future's done-callback; an open-loop operation is
timed from the instant it was *due*, so generator lateness counts against
the system, and every operation is its own checker process (consecutive
operations of one connection overlap, there is no program order).

Load comes from one process, one thread, one asyncio loop and one
``LiveClient`` — the protocol's one connection per replica.  The cluster is
booted once per run and reused by every repetition; a repetition works on
its own key namespace so its history starts from the initial value.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.clients import iter_arrival_times
from repro.exec.metrics import nearest_rank
from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord
from repro.sim.delays import UniformDelay
from repro.sim.rng import make_rng
from repro.transport.live import LiveClient, LiveCluster
from repro.verification import linearizability
from repro.workloads import kv
from repro.workloads.kv import KVWorkloadSpec

from .workloads import Repetition, Row, Workload, sim_metrics

ALGORITHM = "abd-mwmr"
REPLICAS = 3
NUM_KEYS = 32
READ_FRACTION = 0.5
INITIAL_VALUE = "v0"

#: ``live_closed``: operations kept in flight (refilled per completion).
WINDOW = 32
#: ``live_rates``: the step the end-to-end numbers come from, then the steps
#: only the traced pass runs (ops/s).
BASE_RATE = 1000.0
EXTRA_RATES = (2500.0, 5000.0)
#: Latency limit the rate steps are judged against (p95, milliseconds).
SLO_P95_MS = 10.0

#: Seconds a repetition may take beyond its schedule before it is cut off.
DRAIN_BUDGET = 20.0
#: Timed passes of the correctness gate's check per repetition.
CHECK_PASSES = 3
#: Most operations the simulated twin run (the cost-model metrics) executes.
TWIN_OPS = 2000

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class _Pending:
    """What ``LiveClient``'s read loop needs of an in-flight operation."""

    __slots__ = ("future",)

    def __init__(self, future: "asyncio.Future") -> None:
        self.future = future


@dataclass
class LiveState:
    """One booted cluster plus the client connected to it."""

    loop: asyncio.AbstractEventLoop
    cluster: LiveCluster
    client: LiveClient
    cluster_start_s: float
    connect_s: float
    stop_s: float = 0.0
    next_op_id: int = 0
    repetitions: int = 0
    peak_replica_rss_mb: float = 0.0
    #: Cost-model metrics of the simulated twin (computed once, in the warm-up).
    twin: Optional[Row] = None


@dataclass
class Counters:
    """Cumulative cost counters of client and replicas at one instant."""

    client_cpu: float
    replica_cpu: float
    messages: int
    client_bytes: int  # both directions, as transport_summary counts them
    client_bytes_out: int
    replica_bytes_out: int
    replica_peer_bytes_out: int
    frames_out: int
    batches_out: int


@dataclass
class Drive:
    """Raw outcome of one driven operation stream."""

    ops: List[Tuple[OperationKind, str, Any]]
    sent: List[float]
    done: List[float]
    frames: List[Optional[Dict[str, Any]]]
    #: Open loop only: when each operation was due.
    due: Optional[List[float]] = None
    inflight_max: int = 0
    first_submit: float = 0.0
    last_completion: float = 0.0
    before: Optional[Counters] = None
    after: Optional[Counters] = None
    completed: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.completed = sum(1 for frame in self.frames if frame is not None and frame.get("ok"))


# ------------------------------------------------------------ boot / teardown


async def _boot() -> Tuple[LiveCluster, LiveClient, float, float]:
    t0 = time.perf_counter()
    cluster = LiveCluster(REPLICAS, ALGORITHM, INITIAL_VALUE)
    try:
        ports = await cluster.start()
        t1 = time.perf_counter()
        client = LiveClient()
        await client.connect(ports)
        await client.wire_peers(ports)
        client.start_readers()
    except BaseException:
        for server in cluster.servers:
            server.terminate()
        await cluster.stop()
        raise
    return cluster, client, t1 - t0, time.perf_counter() - t1


def live_setup(_workload: Workload, _seed: int, _ops: int) -> LiveState:
    loop = asyncio.new_event_loop()
    try:
        cluster, client, start_s, connect_s = loop.run_until_complete(_boot())
    except BaseException:
        _close_loop(loop)
        raise
    return LiveState(loop, cluster, client, start_s, connect_s)


def _close_loop(loop: asyncio.AbstractEventLoop) -> None:
    loop.run_until_complete(loop.shutdown_default_executor())
    loop.close()


def live_discard(state: LiveState) -> None:
    """Shut the replicas down, wait until each has ended, close the loop."""

    async def stop() -> None:
        try:
            await state.client.close(send_shutdown=True)
        finally:
            await state.cluster.stop()

    t0 = time.perf_counter()
    try:
        state.loop.run_until_complete(stop())
    finally:
        for server in state.cluster.servers:
            if server.is_alive():
                server.kill()
                server.join(5.0)
        _close_loop(state.loop)
    state.stop_s = time.perf_counter() - t0


def stop_helper_processes() -> None:
    """End ``multiprocessing``'s resource tracker and wait until it is gone.

    Spawning the replicas starts a tracker process that otherwise lives until
    this process exits and ends an instant *after* it: a run would leave a
    process behind.  A later spawn starts a fresh tracker.
    """
    from multiprocessing import resource_tracker

    # Finalise the boot queues' semaphores now; unregistering one later would
    # start the tracker again.
    gc.collect()
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # closing the "alive" descriptor ends its main()
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


# ------------------------------------------------------------------ counters


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # Fields after the parenthesised command name; utime and stime are
        # fields 14 and 15 of the full line.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


async def _counters(state: LiveState) -> Counters:
    client = state.client
    client_rows = [conn.stats for conn in client.conns.values()]
    # Snapshot the client side first: the stats request itself is traffic.
    client_bytes_out = sum(stats.bytes_out for stats in client_rows)
    client_bytes = client_bytes_out + sum(stats.bytes_in for stats in client_rows)
    frames_out = sum(stats.frames_out for stats in client_rows)
    batches_out = sum(stats.batches_out for stats in client_rows)
    client_cpu = time.process_time()
    client.stats_replies.clear()
    messages = await client.drain_stats()
    if len(client.stats_replies) < len(client.conns):
        raise RuntimeError("a replica did not answer the stats request")
    replica_bytes_out = peer_bytes_out = 0
    for reply in client.stats_replies.values():
        for row in reply["transport"]:
            replica_bytes_out += row["bytes_out"]
            frames_out += row["frames_out"]
            batches_out += row["batches_out"]
            if row["label"].startswith("peer"):
                peer_bytes_out += row["bytes_out"]
    pids = [server.pid for server in state.cluster.servers]
    state.peak_replica_rss_mb = max(
        [state.peak_replica_rss_mb] + [_proc_peak_rss_mb(pid) for pid in pids]
    )
    return Counters(
        client_cpu=client_cpu,
        replica_cpu=sum(_proc_cpu_seconds(pid) for pid in pids),
        messages=messages,
        client_bytes=client_bytes,
        client_bytes_out=client_bytes_out,
        replica_bytes_out=replica_bytes_out,
        replica_peer_bytes_out=peer_bytes_out,
        frames_out=frames_out,
        batches_out=batches_out,
    )


# ------------------------------------------------------------------ driving


def operations(seed: int, count: int, namespace: str) -> List[Tuple[OperationKind, str, Any]]:
    """The seeded operation stream, moved into a repetition's own key space."""
    spec = KVWorkloadSpec(
        num_keys=NUM_KEYS, num_ops=count, read_fraction=READ_FRACTION, seed=seed
    )
    return [
        (op.kind, f"{namespace}:{op.key}", None if op.value is None else f"{namespace}:{op.value}")
        for op in kv.iter_kv_operations(spec)
    ]


async def drive(
    state: LiveState,
    ops: List[Tuple[OperationKind, str, Any]],
    rate: Optional[float],
    seed: int,
    recorder: Any = None,
) -> Drive:
    """Run ``ops`` open loop at ``rate`` ops/s, or closed loop when ``rate`` is None."""
    loop, client = state.loop, state.client
    clock = time.perf_counter
    count = len(ops)
    sent = [0.0] * count
    done = [0.0] * count
    frames: List[Optional[Dict[str, Any]]] = [None] * count
    base_id = state.next_op_id
    state.next_op_id += count
    read_turn: Dict[str, int] = {}
    finished = loop.create_future()
    progress = {"next": 0, "completed": 0, "inflight": 0, "inflight_max": 0}
    closed_loop = rate is None

    def on_done(index: int, future: "asyncio.Future") -> None:
        done[index] = clock()
        if not future.cancelled():
            frames[index] = future.result()
        progress["completed"] += 1
        progress["inflight"] -= 1
        if closed_loop and progress["next"] < count:
            fire(progress["next"])
        if progress["completed"] == count and not finished.done():
            finished.set_result(None)

    def fire(index: int) -> None:
        progress["next"] = index + 1
        kind, key, value = ops[index]
        if kind is OperationKind.WRITE:
            replica = 0  # the writer replica, as the repository's runners route
        else:
            turn = read_turn.get(key, 0)
            read_turn[key] = turn + 1
            replica = turn % REPLICAS
        future = loop.create_future()
        future.add_done_callback(partial(on_done, index))
        client.pending[base_id + index] = _Pending(future)
        progress["inflight"] += 1
        if progress["inflight"] > progress["inflight_max"]:
            progress["inflight_max"] = progress["inflight"]
        if recorder is not None:
            recorder.current_tag = index
        sent[index] = clock()
        client.conns[replica].send(
            {"kind": "invoke", "op_id": base_id + index, "op": kind.value, "key": key, "value": value}
        )

    before = await _counters(state)
    due: Optional[List[float]] = None
    if closed_loop:
        budget = DRAIN_BUDGET + count / 500.0
        for index in range(min(WINDOW, count)):
            fire(index)
    else:
        offsets = list(
            iter_arrival_times("poisson", make_rng(seed, "e2e-arrivals", rate), rate, count)
        )
        budget = DRAIN_BUDGET
        start = clock() + 0.02
        due = [start + offset for offset in offsets]
        for index in range(count):
            delay = due[index] - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            elif index % 16 == 0:
                await asyncio.sleep(0)  # behind schedule: still let completions in
            fire(index)
    try:
        await asyncio.wait_for(asyncio.shield(finished), timeout=budget)
    except asyncio.TimeoutError:
        for index in range(count):
            client.pending.pop(base_id + index, None)
    after = await _counters(state)
    return Drive(
        ops=ops,
        sent=sent,
        done=done,
        frames=frames,
        due=due,
        inflight_max=progress["inflight_max"],
        first_submit=sent[0],
        last_completion=max(done),
        before=before,
        after=after,
    )


# ------------------------------------------------------------------ checking


def build_oplog(run: Drive) -> OpLog:
    """The client-observed history: one checker process per operation."""
    oplog = OpLog()
    origin = run.first_submit
    for index, (kind, key, value) in enumerate(run.ops):
        row = oplog.note_created(kind, key, value)
        invoked = run.sent[index] - origin
        oplog.note_submitted(row, invoked)
        record = OperationRecord(op_id=0, pid=index, kind=kind, value=value, invoked_at=invoked)
        oplog.note_issued(row, record)
        frame = run.frames[index]
        if frame is not None and frame.get("ok"):
            record.completed = True
            record.result = frame.get("value")
            record.responded_at = run.done[index] - origin
            oplog.note_completed(row, record)
        else:
            oplog.note_failed(row, (frame or {}).get("error", "no response before the deadline"))
    return oplog


def check(oplog: OpLog) -> Any:
    """Wing–Gong search on every key of the merged history (no fast path)."""
    # Through the module, so a traced pass meets the wrapper.
    return linearizability.check_histories_per_key(
        oplog.per_key_histories(INITIAL_VALUE), swmr_fast_path=False
    )


def twin_metrics(seed: int, ops: int, closed_loop: bool) -> Row:
    """Cost-model numbers of the same algorithm and mix on the simulator.

    A live run has no virtual clock and its replicas do not report control
    bits, so message delays per operation and control bits per message come
    from a small simulated run of the same algorithm, replication, key count
    and read share under the same seed.
    """
    spec = KVWorkloadSpec(
        algorithm=ALGORITHM,
        replication=REPLICAS,
        num_keys=NUM_KEYS,
        read_fraction=READ_FRACTION,
        num_ops=ops,
        batch_size=WINDOW,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
        **({} if closed_loop else {"arrival": "poisson", "arrival_rate": 1.0}),
    )
    result = kv.run_kv_workload(spec)
    if not result.finished_cleanly or result.failed_ops():
        raise RuntimeError("the simulated twin run did not finish cleanly")
    return sim_metrics(result, ops, 1.0, 1.0)


def latencies_ms(run: Drive) -> List[float]:
    """Per completed operation: due (open loop) or sent (closed) to completion."""
    origin = run.due if run.due is not None else run.sent
    return [
        1000.0 * (run.done[index] - origin[index])
        for index, frame in enumerate(run.frames)
        if frame is not None and frame.get("ok")
    ]


def live_row(run: Drive, check_wall: float, checked: int, twin: Row) -> Row:
    before, after = run.before, run.after
    completed = run.completed
    wall = run.last_completion - run.first_submit
    latencies = latencies_ms(run)
    cpu = (after.client_cpu - before.client_cpu) + (after.replica_cpu - before.replica_cpu)
    wire_bytes = (after.client_bytes_out - before.client_bytes_out) + (
        after.replica_bytes_out - before.replica_bytes_out
    )
    return {
        "ops_per_s": completed / wall,
        "check_ops_per_s": checked / check_wall,
        "cpu_ms_per_op": 1000.0 * cpu / completed,
        "lat_p50_ms": nearest_rank(latencies, 0.50),
        "lat_p95_ms": nearest_rank(latencies, 0.95),
        "vlat_p50": twin["vlat_p50"],
        "vlat_p95": twin["vlat_p95"],
        "msgs_per_op": (after.messages - before.messages) / completed,
        "ctrl_bits_per_msg": twin["ctrl_bits_per_msg"],
        "wire_bytes_per_op": wire_bytes / completed,
    }


def live_repetition(
    workload: Workload, state: LiveState, seed: int, ops: int, recorder: Any = None
) -> Repetition:
    closed_loop = workload.name == "live_closed"
    state.repetitions += 1
    stream = operations(seed, ops, f"r{state.repetitions}")
    rate = None if closed_loop else BASE_RATE
    run = state.loop.run_until_complete(drive(state, stream, rate, seed, recorder))
    if not run.completed:
        raise RuntimeError(f"{workload.name}: no operation completed")
    oplog = build_oplog(run)
    # A repetition's history takes ~20 ms to check, right after the process
    # sat idle in select(): time a few passes and keep the best.
    check_wall = float("inf")
    for _ in range(CHECK_PASSES):
        t0 = time.perf_counter()
        report = check(oplog)
        check_wall = min(check_wall, time.perf_counter() - t0)
    failed = ops - run.completed
    gate = ""
    if failed:
        gate = f"{failed} operation(s) got no answer"
    elif not report.ok:
        gate = f"not linearizable: {report.violations()[:3]}"
    if state.twin is None:
        state.twin = twin_metrics(seed, min(ops, TWIN_OPS), closed_loop)
    row = live_row(run, check_wall, report.operations_checked, state.twin)
    detail = {"run": run, "report": report, "oplog": oplog, "check_wall": check_wall}
    return Repetition(
        attempted=ops, failed=ops if gate else 0, row=row, gate_failure=gate, detail=detail
    )


#: Four processes on two cores: the single-process yardstick does not track
#: them (README, "What the driver is not given"), so the live workloads report
#: raw wall-clock numbers, only the client-side check at reference speed, and
#: ``BENCHMARK.json`` does not hold later changes to them.
_NORMALISED = ("check_ops_per_s",)

LIVE_WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "live_rates", "live", 1000, 1.2, live_setup, live_repetition, live_discard, _NORMALISED
    ),
    Workload(
        "live_closed", "live", 2000, 0.75, live_setup, live_repetition, live_discard, _NORMALISED
    ),
)
