"""Per-layer metrics of one traced repetition.

Counts come from the public counters of the objects the repetition built
(``NetworkStats``, ``Simulator.executed_events``, the consensus replicas'
``decided`` maps, drained ``TransportStats``); times come from the spans.
Every declared per-layer metric is reported by every workload — a layer the
workload does not touch reads 0.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.metrics import nearest_rank
from repro.registers.base import OperationKind
from repro.store.store import KVStore, StoreConfig
from repro.transport.codec_binary import make_codec
from repro.transport.framing import HEADER, FrameDecoder
from repro.transport.live import READ_CHUNK
from repro.verification import linearizability

from . import live
from .catalog import PER_LAYER
from .trace import ROOT_LAYER, SpanTable
from .workloads import Repetition, Workload, consensus_processes

_REPLAY_OPS = 1000
_REPLAY_PASSES = 3


def _is_read_message(type_name: str) -> bool:
    """Message types a read sends: queries, replies, PROCEED, and write-backs."""
    return any(part in type_name for part in ("READ", "PROCEED", "WRITE_BACK"))


def _span_seconds(sites: Dict[str, Tuple[int, float]], *names: str) -> float:
    return sum(sites.get(name, (0, 0.0))[1] for name in names)


def _calls(sites: Dict[str, Tuple[int, float]], name: str) -> int:
    return sites.get(name, (0, 0.0))[0]


def _sim_counters(out: Dict[str, float], result: Any, sites: Dict[str, Tuple[int, float]]) -> None:
    store = result.store
    stats = store.stats
    ops = len(result.completed_ops())
    events = store.simulator.executed_events
    out["sim.scheduler.events"] = events
    out["sim.scheduler.events_per_op"] = events / ops
    out["sim.scheduler.us_per_event"] = 1e6 * out["sim.scheduler.self_s"] / events
    out["sim.network.sends"] = stats.messages_sent
    out["sim.network.delivery_events"] = stats.messages_sent - stats.messages_coalesced
    out["sim.network.coalesced_frac"] = stats.messages_coalesced / stats.messages_sent
    out["sim.network.dropped_to_crashed"] = stats.messages_dropped_to_crashed
    out["transport.runtime.deliveries"] = stats.messages_delivered
    out["transport.runtime.guard_scans"] = _calls(sites, "ProcessBase.check_guards")
    out["store.keys_deployed"] = len(store.deployed_keys)
    out["store.submit_s"] = _span_seconds(
        sites, "KVStore.submit_put", "KVStore.submit_get", "KVStore.submit_op"
    )
    out["workloads.kv.gen_s"] = _span_seconds(sites, "iter_kv_operations")
    out["exec.driver.submits"] = _calls(sites, "Driver.submit")
    waits = [
        op.sojourn_latency - op.record.latency
        for op in result.ops
        if op.completed and op.sojourn_latency is not None
    ]
    out["exec.driver.queue_wait_p95"] = nearest_rank(waits, 0.95) if waits else 0.0
    out["exec.oplog.bytes_per_op"] = store.driver.oplog.nbytes() / len(store.driver.oplog)

    metrics = store.driver.metrics
    reads = len(metrics.latencies(OperationKind.READ))
    writes = len(metrics.latencies(OperationKind.WRITE))
    read_msgs = sum(n for name, n in stats.by_type.items() if _is_read_message(name))
    algorithm = result.spec.algorithm
    family = "core" if algorithm == "two-bit" else "registers" if "abd" in algorithm else None
    if family is not None:
        out[f"{family}.msgs_per_read"] = read_msgs / reads if reads else 0.0
        out[f"{family}.msgs_per_write"] = (
            (stats.messages_sent - read_msgs) / writes if writes else 0.0
        )
    if algorithm.startswith("mmr"):
        slots = rounds = skipped = 0
        for processes in consensus_processes(store).values():
            decided: Dict[int, int] = {}
            for process in processes:
                decided.update(process.decided)
                rounds += process.rounds_entered
            slots += len(decided)
            skipped += sum(1 for value in decided.values() if value == 0)
        out["consensus.mmr.slots_per_op"] = slots / ops
        out["consensus.mmr.msgs_per_slot"] = stats.messages_sent / slots
        # Rounds are entered by every replica of a slot; report the mean.
        out["consensus.mmr.rounds_per_slot"] = rounds / store.config.replication / slots
        out["consensus.mmr.skip_slot_frac"] = skipped / slots


def _verification(out: Dict[str, float], histories: Any, spec: Optional[str], report: Any) -> None:
    """Both checker paths on the same history, outside the traced region."""
    t0 = time.perf_counter()
    linearizability.check_histories_per_key(histories, swmr_fast_path=True, spec=spec)
    t1 = time.perf_counter()
    searched = linearizability.check_histories_per_key(histories, swmr_fast_path=False, spec=spec)
    t2 = time.perf_counter()
    out["verification.swmr_path_s"] = t1 - t0
    out["verification.wg_path_s"] = t2 - t1
    out["verification.states_explored"] = searched.states_explored
    out["verification.max_key_ops"] = max(result.operations for result in report.per_key.values())


def _peer_payloads(ops: List[Tuple[OperationKind, str, Any]]) -> List[Dict[str, Any]]:
    """Replica-to-replica frames the same operations cause, from a simulated store."""
    store = KVStore(
        StoreConfig(
            algorithm=live.ALGORITHM,
            replication=live.REPLICAS,
            num_shards=1,
            initial_value=live.INITIAL_VALUE,
        )
    )
    payloads: List[Dict[str, Any]] = []
    key = ops[0][1]
    store.network.add_send_hook(
        lambda src, dst, message: payloads.append(
            {"kind": "msg", "key": key, "src": src, "dst": dst, "msg": message}
        )
    )
    for kind, op_key, value in ops:
        store.submit_op(kind, op_key, value)
    store.drive()
    store.close()
    return payloads


def _codec_replay(out: Dict[str, float], run: live.Drive) -> None:
    """The workload's own frame mix through the binary codec and the frame decoder."""
    ops = run.ops[:_REPLAY_OPS]
    payloads: List[Dict[str, Any]] = [
        {"kind": "invoke", "op_id": index, "op": kind.value, "key": key, "value": value}
        for index, (kind, key, value) in enumerate(ops)
    ]
    payloads += [frame for frame in run.frames[:_REPLAY_OPS] if frame is not None]
    payloads += _peer_payloads(ops)
    codec = make_codec("binary")
    encode_s, decode_s, feed_s = [], [], []
    bodies: List[bytes] = []
    for _ in range(_REPLAY_PASSES):
        t0 = time.perf_counter()
        bodies = [codec.encode(payload) for payload in payloads]
        t1 = time.perf_counter()
        for body in bodies:
            codec.decode(body)
        t2 = time.perf_counter()
        stream = b"".join(HEADER.pack(len(body)) + body for body in bodies)
        decoder = FrameDecoder(raw=True)
        frames = 0
        t3 = time.perf_counter()
        for offset in range(0, len(stream), READ_CHUNK):
            frames += len(decoder.feed(stream[offset : offset + READ_CHUNK]))
        t4 = time.perf_counter()
        if frames != len(bodies):
            raise RuntimeError("frame replay lost frames")
        encode_s.append(t1 - t0)
        decode_s.append(t2 - t1)
        feed_s.append(t4 - t3)
    count = len(payloads)
    out["transport.codec_binary.encode_us_per_frame"] = 1e6 * statistics.median(encode_s) / count
    out["transport.codec_binary.decode_us_per_frame"] = 1e6 * statistics.median(decode_s) / count
    out["transport.codec_binary.bytes_per_frame"] = sum(len(body) for body in bodies) / count
    out["transport.framing.feed_us_per_frame"] = 1e6 * statistics.median(feed_s) / count


def _live_counters(out: Dict[str, float], run: live.Drive, state: live.LiveState) -> None:
    before, after = run.before, run.after
    ops = run.completed
    out["transport.framing.frames_per_flush"] = (after.frames_out - before.frames_out) / max(
        1, after.batches_out - before.batches_out
    )
    out["transport.framing.client_bytes_per_op"] = (after.client_bytes - before.client_bytes) / ops
    out["transport.framing.replica_bytes_per_op"] = (
        after.replica_peer_bytes_out - before.replica_peer_bytes_out
    ) / ops
    out["transport.live.cluster_start_s"] = state.cluster_start_s
    out["transport.live.connect_s"] = state.connect_s
    out["transport.live.stop_s"] = state.stop_s
    out["transport.live.client_cpu_ms_per_op"] = 1000.0 * (after.client_cpu - before.client_cpu) / ops
    out["transport.live.replica_cpu_ms_per_op"] = (
        1000.0 * (after.replica_cpu - before.replica_cpu) / ops
    )
    out["transport.live.inflight_max"] = run.inflight_max
    if run.due is not None:
        late = [1000.0 * (sent - due) for sent, due in zip(run.sent, run.due)]
        out["bench.gen_late_p95_ms"] = nearest_rank(late, 0.95)


def rate_steps(out: Dict[str, float], steps: Dict[float, live.Drive], base: live.Drive) -> None:
    """Latency at each offered rate and the highest rate inside the SLO."""
    best = 0.0
    for rate, run in sorted({live.BASE_RATE: base, **steps}.items()):
        latencies = live.latencies_ms(run)
        p95 = nearest_rank(latencies, 0.95)
        if rate != live.BASE_RATE:
            out[f"bench.lat_p95_ms.r{int(rate)}"] = p95
        on_time = sum(
            1
            for index, frame in enumerate(run.frames)
            if frame is not None and run.done[index] <= run.due[-1] + live.SLO_P95_MS / 1000.0
        )
        if p95 <= live.SLO_P95_MS and on_time >= 0.99 * len(run.ops):
            best = rate
    out["bench.max_rate_in_slo"] = best


def layer_metrics(
    workload: Workload,
    plain_wall: float,
    traced_wall: float,
    plain: Repetition,
    traced: Repetition,
    table: SpanTable,
    state: Any,
) -> Dict[str, float]:
    """Every per-layer metric of :data:`catalog.PER_LAYER` for one workload."""
    out: Dict[str, float] = {metric.name: 0.0 for metric in PER_LAYER}
    layer_self = table.layer_self_seconds()
    sites = table.site_totals()
    root = table.root_seconds()
    for name in out:
        if name.endswith(".self_s"):
            out[name] = layer_self.get(name[: -len(".self_s")], 0.0)
    out["bench.unattributed_frac"] = layer_self.get(ROOT_LAYER, 0.0) / root
    out["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    out["bench.failed_frac"] = traced.failed / traced.attempted
    replies = _calls(sites, "PhaseRegisterProcess.phase_reply")
    out["quorum.engine.phases"] = _calls(sites, "PhaseRegisterProcess.start_phase")
    out["quorum.engine.replies"] = replies
    out["quorum.engine.stale_reply_frac"] = (
        table.header.get("stale_replies", 0) / replies if replies else 0.0
    )
    out["verification.histories_s"] = _span_seconds(sites, "KVStore.histories") or _span_seconds(
        sites, "OpLog.per_key_histories"
    )
    detail = traced.detail
    report = detail["report"]
    out["verification.check_s"] = detail["check_wall"]
    out["verification.check_frac"] = detail["check_wall"] / root
    out["verification.us_per_op"] = 1e6 * out["verification.check_s"] / report.operations_checked
    if workload.plane == "live":
        run = detail["run"]
        oplog = detail["oplog"]
        out["exec.oplog.bytes_per_op"] = oplog.nbytes() / len(oplog)
        _verification(out, oplog.per_key_histories(live.INITIAL_VALUE), None, report)
        _live_counters(out, run, state)
        _codec_replay(out, run)
        latencies = live.latencies_ms(plain.detail["run"])
        out["bench.lat_p99_ms"] = nearest_rank(latencies, 0.99)
        out["bench.lat_p999_ms"] = nearest_rank(latencies, 0.999)
        return out
    result = detail["result"]
    store = result.store
    _verification(out, store.histories(), store.config.effective_spec(), report)
    if workload.plane == "check":
        out["exec.oplog.bytes_per_op"] = store.driver.oplog.nbytes() / len(store.driver.oplog)
        return out
    _sim_counters(out, result, sites)
    # The plain repetition's tail, on the same wall-per-virtual-unit scale as lat_p95_ms.
    plain_result = plain.detail["result"]
    latencies = plain_result.store.driver.metrics.latencies()
    ms_per_unit = 1000.0 * plain.detail["wall"] / plain_result.virtual_makespan
    out["bench.lat_p99_ms"] = nearest_rank(latencies, 0.99) * ms_per_unit
    out["bench.lat_p999_ms"] = nearest_rank(latencies, 0.999) * ms_per_unit
    return out
