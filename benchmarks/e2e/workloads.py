"""The five simulated-plane workloads (four run workloads plus ``check_replay``).

A workload is three functions the runner calls: ``setup(seed)`` (timed as
``setup_s``), ``repetition(state, seed)`` returning one row of raw metric
values for a fixed operation count, and ``discard(state)``.  Sizes are
constants tuned on the 2-core reference box so one repetition takes a few
tenths of a second — a run then holds dozens of them, each bracketed by a
reading of the box's speed; ``--smoke`` divides every operation count by
:data:`SMOKE_DIVISOR`.

Every repetition is gated: the run must finish cleanly, every key must be
linearizable, two-bit runs must never carry more than two control bits per
message and consensus runs must satisfy agreement/validity.  A failed gate
counts the whole repetition's operations as failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.consensus import ConsensusObjectProcess, consensus_invariants
from repro.exec.metrics import nearest_rank
from repro.sim.delays import UniformDelay
from repro.store.store import KVStore
from repro.verification import linearizability
from repro.workloads import kv
from repro.workloads.kv import CrashPoint, KVWorkloadSpec
from repro.workloads.scenarios import kv_cas, kv_openloop

SMOKE_DIVISOR = 50

Row = Dict[str, float]

#: Every wall-clock metric; what a single-process workload reports normalised.
WALL_CLOCK = (
    "setup_s",
    "ops_per_s",
    "check_ops_per_s",
    "cpu_ms_per_op",
    "lat_p50_ms",
    "lat_p95_ms",
)


@dataclass
class Repetition:
    """What one repetition hands back to the runner."""

    attempted: int
    failed: int
    #: End-to-end metric values of this repetition.
    row: Row
    #: Why a gate failed ('' when every gate passed).
    gate_failure: str = ""
    #: Objects the traced pass digs per-layer counters out of.
    detail: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    plane: str  # "sim", "check" or "live"
    #: Operations per repetition at full size.
    ops: int
    #: Wall seconds one full-size repetition and the speed reading before it
    #: take on the reference box; the runner turns ``--seconds`` into a
    #: repetition *count* with it, so the same command line always executes
    #: the same operations.
    nominal_rep_seconds: float
    setup: Callable[["Workload", int, int], Any]
    #: ``repetition(workload, state, seed, ops, recorder)``; ``recorder`` is the
    #: span recorder of a traced pass (the live driver tags spans with it).
    repetition: Callable[..., Repetition]
    discard: Callable[[Any], None] = lambda state: None
    #: Wall-clock metrics reported at reference speed (``calibrate.py``): the
    #: ones whose timed work is single-process, CPU-bound Python, which is
    #: what the yardstick tracks.
    normalised: Tuple[str, ...] = ()

    def ops_for(self, smoke: bool) -> int:
        return max(64, self.ops // SMOKE_DIVISOR) if smoke else self.ops


# ----------------------------------------------------------------- the specs


def _two_bit(seed: int, ops: int, read_fraction: float, **extra: Any) -> KVWorkloadSpec:
    return KVWorkloadSpec(
        algorithm="two-bit",
        num_keys=32,
        num_shards=4,
        replication=5,
        read_fraction=read_fraction,
        batch_size=64,
        delay_model=UniformDelay(0.2, 1.0, seed=seed),
        seed=seed,
        num_ops=ops,
        **extra,
    )


#: Failure-free virtual makespan of ``twobit_writes_crash`` per operation
#: (measured: 4,000 ops finish at t = 380 +- 10 over eight seeds).
_WRITES_MAKESPAN_PER_OP = 0.095


def spec_for(name: str, seed: int, ops: int) -> KVWorkloadSpec:
    """The seeded spec of one sim repetition."""
    if name == "twobit_reads":
        return _two_bit(seed, ops, read_fraction=0.9)
    if name == "twobit_writes_crash":
        # One non-writer replica of every shard dies a third of the way in
        # (replica 0 hosts the writers; n = 5 tolerates t = 2).
        crash_at = _WRITES_MAKESPAN_PER_OP * ops / 3.0
        crashes = tuple(
            CrashPoint(at_time=crash_at, shard=shard, replica=1 + shard % 4) for shard in range(4)
        )
        return _two_bit(seed, ops, read_fraction=0.1, crash_points=crashes)
    if name == "abd_openloop":
        return kv_openloop(num_ops=ops, arrival_rate=16.0, seed=seed)
    if name == "mmr_cas":
        return kv_cas(num_ops=ops, seed=seed)
    if name == "check_replay":
        # Four keys, so each key's history is long: the checker's
        # super-linear regime.  Rate 4 keeps the 12 replica FIFOs stable.
        return kv_openloop(num_keys=4, num_ops=ops, arrival_rate=4.0, seed=seed)
    raise KeyError(name)


# ---------------------------------------------------------------- sim plane


def _deploy(spec: KVWorkloadSpec) -> KVStore:
    """Build the deployment a run of ``spec`` executes on, every key placed."""
    store = KVStore(spec.store_config())
    for point in spec.crash_points:
        store.crash_server_at(point.at_time, point.shard, point.replica)
    for key in spec.keys():
        store.register_for(key)
    return store


def _sim_setup(workload: Workload, seed: int, ops: int) -> None:
    _deploy(spec_for(workload.name, seed, ops)).close()


def _retry_stalled(result: Any) -> List[Any]:
    """Re-issue operations that died with their replica; returns the retries.

    An operation in flight on a replica at the instant it crashes never
    returns (the driver fails it as *stalled*).  A client in that position
    times out and asks a live replica, so the benchmark does the same: the
    stalled invocation stays in the history as a pending operation and the
    retry is a new one.  Only an operation that gets no answer even then is
    counted as failed.
    """
    store = result.store
    retries = [store.submit_op(op.kind, op.key, op.value) for op in result.failed_ops()]
    if retries:
        store.drive()
    result.ops.extend(retries)
    return retries


def sim_metrics(result: Any, completed: int, wall: float, cpu: float) -> Row:
    """End-to-end values every history-producing sim run reports."""
    store = result.store
    stats = store.stats
    latencies = store.driver.metrics.latencies()
    p50, p95 = nearest_rank(latencies, 0.50), nearest_rank(latencies, 0.95)
    # Wall-clock time an operation spends in flight inside the simulator:
    # its virtual latency at the run's wall seconds per virtual-time unit.
    ms_per_unit = 1000.0 * wall / result.virtual_makespan
    return {
        "ops_per_s": completed / wall,
        "cpu_ms_per_op": 1000.0 * cpu / completed,
        "vlat_p50": p50,
        "vlat_p95": p95,
        "lat_p50_ms": p50 * ms_per_unit,
        "lat_p95_ms": p95 * ms_per_unit,
        "msgs_per_op": stats.messages_sent / completed,
        "ctrl_bits_per_msg": stats.control_bits_total / stats.messages_sent,
        "wire_bytes_per_op": (stats.control_bits_total + stats.data_bits_total) / 8.0 / completed,
    }


def consensus_processes(store: KVStore) -> Dict[Any, List[ConsensusObjectProcess]]:
    return {
        key: [
            process
            for process in store.register_for(key).processes
            if isinstance(process, ConsensusObjectProcess)
        ]
        for key in store.deployed_keys
    }


def _gate(spec: KVWorkloadSpec, result: Any, report: Any) -> str:
    store = result.store
    if not result.finished_cleanly:
        return "run did not finish cleanly"
    if not report.ok:
        return f"not linearizable: {report.violations()[:3]}"
    if spec.algorithm == "two-bit" and store.stats.max_control_bits != 2:
        return f"two-bit message carried {store.stats.max_control_bits} control bits"
    if spec.algorithm.startswith("mmr"):
        violations = consensus_invariants(consensus_processes(store))
        if violations:
            return f"consensus invariants violated: {violations[:3]}"
    return ""


def _sim_repetition(
    workload: Workload, _state: Any, seed: int, ops: int, _recorder: Any = None
) -> Repetition:
    spec = spec_for(workload.name, seed, ops)
    cpu0, t0 = time.process_time(), time.perf_counter()
    # Through the module, so a traced pass meets the wrapper.
    result = kv.run_kv_workload(spec)
    if spec.crash_points:
        unanswered = [op for op in _retry_stalled(result) if op.failed]
    else:
        unanswered = result.failed_ops()
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    store = result.store
    t0 = time.perf_counter()
    report = store.check_linearizability()
    check_wall = time.perf_counter() - t0
    completed = ops - len(unanswered)
    gate = _gate(spec, result, report)
    row = sim_metrics(result, completed, wall, cpu)
    row["check_ops_per_s"] = report.operations_checked / check_wall
    detail = {"result": result, "report": report, "wall": wall, "check_wall": check_wall}
    return Repetition(
        attempted=ops,
        failed=ops if gate else len(unanswered),
        row=row,
        gate_failure=gate,
        detail=detail,
    )


# --------------------------------------------------------------- check_replay


def _check_setup(workload: Workload, seed: int, ops: int) -> Any:
    spec = spec_for(workload.name, seed, ops)
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = kv.run_kv_workload(spec)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if not result.finished_cleanly or result.failed_ops():
        raise RuntimeError("check_replay: the history-producing run did not finish cleanly")
    return result, sim_metrics(result, ops, wall, cpu)


def _check_repetition(
    workload: Workload, state: Any, _seed: int, ops: int, _recorder: Any = None
) -> Repetition:
    result, produced = state
    store = result.store
    cpu0, t0 = time.process_time(), time.perf_counter()
    histories = store.histories()
    t1 = time.perf_counter()
    report = store.check_linearizability()
    t2 = time.perf_counter()
    cpu = time.process_time() - cpu0
    gate = "" if report.ok else f"not linearizable: {report.violations()[:3]}"
    row = {
        # The cost-model metrics describe the history being replayed.
        name: produced[name]
        for name in ("vlat_p50", "vlat_p95", "msgs_per_op", "ctrl_bits_per_msg", "wire_bytes_per_op")
    }
    row.update(
        ops_per_s=ops / (t2 - t0),
        check_ops_per_s=report.operations_checked / (t2 - t1),
        cpu_ms_per_op=1000.0 * cpu / ops,
    )
    # A caller's wait for one key's verdict, key by key (not part of the
    # rates above): every repetition checks the same histories, so the spread
    # that means something is the one across keys, not across calls.
    spec = store.config.effective_spec()
    per_key = []
    for key, history in sorted(histories.items()):
        t0 = time.perf_counter()
        linearizability.check_histories_per_key({key: history}, spec=spec)
        per_key.append(1000.0 * (time.perf_counter() - t0))
    row.update(lat_p50_ms=nearest_rank(per_key, 0.50), lat_p95_ms=nearest_rank(per_key, 0.95))
    detail = {"result": result, "report": report, "check_wall": t2 - t1}
    return Repetition(
        attempted=ops, failed=ops if gate else 0, row=row, gate_failure=gate, detail=detail
    )


SIM_WORKLOADS: Tuple[Workload, ...] = (
    Workload("twobit_reads", "sim", 1600, 0.27, _sim_setup, _sim_repetition, normalised=WALL_CLOCK),
    Workload(
        "twobit_writes_crash", "sim", 1000, 0.27, _sim_setup, _sim_repetition, normalised=WALL_CLOCK
    ),
    Workload("abd_openloop", "sim", 1600, 0.29, _sim_setup, _sim_repetition, normalised=WALL_CLOCK),
    Workload("mmr_cas", "sim", 300, 0.37, _sim_setup, _sim_repetition, normalised=WALL_CLOCK),
    Workload(
        "check_replay", "check", 6000, 0.21, _check_setup, _check_repetition, normalised=WALL_CLOCK
    ),
)
