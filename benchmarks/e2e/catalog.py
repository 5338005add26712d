"""Every metric the benchmark reports, and what each is expected to move.

``BENCHMARK.json`` at the repository root carries the same names, units,
directions and bounds (its format admits nothing else); the smoke test keeps
the two in step.  The prediction attached to each per-layer metric — which
end-to-end metric it should move, on which workloads — lives here and in the
README table, written down before any optimisation is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SIM_RUN = ("twobit_reads", "twobit_writes_crash", "abd_openloop", "mmr_cas")
TWO_BIT = ("twobit_reads", "twobit_writes_crash")
LIVE = ("live_rates", "live_closed")
ALL = SIM_RUN + ("check_replay",) + LIVE

WORKLOADS: Dict[str, str] = {
    "twobit_reads": "the paper's algorithm in its motivating regime: 90% reads, n=5, broadcast-heavy",
    "twobit_writes_crash": "same store, 90% O(n^2)-message writes, one replica of every shard crashes mid-run",
    "abd_openloop": "ABD under Poisson arrivals just below saturation: queueing, not protocol depth, sets the tail",
    "mmr_cas": "compare-and-swap over MMR consensus: only workload where the consensus slot economy does the work",
    "check_replay": "the linearizability checker alone on long per-key histories; bypasses simulator and transport",
    "live_rates": "live loopback cluster, open loop at 1/6 of capacity: per-frame cost dominates, batching is bypassed",
    "live_closed": "same cluster saturated by a 32-op closed-loop window: write batching and replica CPU set the result",
}

#: The workloads ``BENCHMARK.json`` names: the single-process ones.  The live
#: workloads are run, verified and reported like the others, but the reference
#: box cannot repeat four processes on two shared cores within any bound the
#: format allows (README, "What the driver is not given").
CONTRACT: Tuple[str, ...] = SIM_RUN + ("check_replay",)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: End-to-end metric this layer metric should move, and where.
    moves: str
    on: Tuple[str, ...]


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, "deployment built, cluster booted, or history produced"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25, "completed and verified operations per wall second of the run phase"),
    EndToEnd("check_ops_per_s", "1/s", "higher", 0.25, "operations checked per wall second of the correctness gate"),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25, "CPU of the load process plus every replica process, per operation"),
    EndToEnd("lat_p50_ms", "ms", "lower", 0.25, "wall-clock latency a caller sees, median"),
    EndToEnd("lat_p95_ms", "ms", "lower", 0.25, "wall-clock latency a caller sees, 95th percentile"),
    EndToEnd("vlat_p50", "delays", "lower", 0.10, "operation latency in message delays (the paper's time axis), median"),
    EndToEnd("vlat_p95", "delays", "lower", 0.20, "operation latency in message delays, 95th percentile"),
    EndToEnd("msgs_per_op", "msgs", "lower", 0.06, "protocol messages per operation"),
    EndToEnd("ctrl_bits_per_msg", "bits", "lower", 0.03, "control bits per protocol message; exactly 2 for the paper's algorithm"),
    EndToEnd("wire_bytes_per_op", "bytes", "lower", 0.10, "bytes on the wire per operation"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, "peak resident memory: load process plus largest replica"),
)

PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("sim.scheduler.events", "count", "lower", "ops_per_s", SIM_RUN),
    PerLayer("sim.scheduler.events_per_op", "count", "lower", "ops_per_s", SIM_RUN),
    PerLayer("sim.scheduler.us_per_event", "us", "lower", "ops_per_s", SIM_RUN),
    PerLayer("sim.scheduler.self_s", "s", "lower", "ops_per_s", SIM_RUN),
    PerLayer("sim.network.sends", "count", "lower", "ops_per_s", TWO_BIT),
    PerLayer("sim.network.delivery_events", "count", "lower", "ops_per_s", TWO_BIT),
    PerLayer("sim.network.coalesced_frac", "ratio", "higher", "ops_per_s", TWO_BIT),
    PerLayer("sim.network.dropped_to_crashed", "count", "lower", "msgs_per_op", ("twobit_writes_crash",)),
    PerLayer("sim.network.self_s", "s", "lower", "ops_per_s", TWO_BIT),
    PerLayer("transport.runtime.deliveries", "count", "lower", "ops_per_s", TWO_BIT),
    PerLayer("transport.runtime.guard_scans", "count", "lower", "ops_per_s", TWO_BIT),
    PerLayer("transport.runtime.self_s", "s", "lower", "ops_per_s", TWO_BIT),
    PerLayer("core.self_s", "s", "lower", "ops_per_s", TWO_BIT),
    PerLayer("core.msgs_per_read", "msgs", "lower", "msgs_per_op", TWO_BIT),
    PerLayer("core.msgs_per_write", "msgs", "lower", "msgs_per_op", TWO_BIT),
    PerLayer("registers.self_s", "s", "lower", "ops_per_s", ("abd_openloop",)),
    PerLayer("registers.msgs_per_read", "msgs", "lower", "msgs_per_op", ("abd_openloop",)),
    PerLayer("registers.msgs_per_write", "msgs", "lower", "msgs_per_op", ("abd_openloop",)),
    PerLayer("quorum.engine.phases", "count", "lower", "ops_per_s", ("abd_openloop", "mmr_cas")),
    PerLayer("quorum.engine.replies", "count", "lower", "ops_per_s", ("abd_openloop", "mmr_cas")),
    PerLayer("quorum.engine.stale_reply_frac", "ratio", "lower", "ops_per_s", ("abd_openloop", "mmr_cas")),
    PerLayer("quorum.engine.self_s", "s", "lower", "ops_per_s", ("abd_openloop", "mmr_cas")),
    PerLayer("consensus.mmr.slots_per_op", "count", "lower", "msgs_per_op", ("mmr_cas",)),
    PerLayer("consensus.mmr.msgs_per_slot", "msgs", "lower", "msgs_per_op", ("mmr_cas",)),
    PerLayer("consensus.mmr.rounds_per_slot", "count", "lower", "vlat_p95", ("mmr_cas",)),
    PerLayer("consensus.mmr.skip_slot_frac", "ratio", "lower", "msgs_per_op", ("mmr_cas",)),
    PerLayer("consensus.mmr.self_s", "s", "lower", "ops_per_s", ("mmr_cas",)),
    PerLayer("store.submit_s", "s", "lower", "ops_per_s", SIM_RUN),
    PerLayer("store.keys_deployed", "count", "lower", "setup_s", SIM_RUN),
    PerLayer("store.self_s", "s", "lower", "ops_per_s", SIM_RUN),
    PerLayer("workloads.kv.gen_s", "s", "lower", "ops_per_s", SIM_RUN),
    PerLayer("workloads.kv.self_s", "s", "lower", "ops_per_s", SIM_RUN),
    PerLayer("exec.driver.submits", "count", "lower", "ops_per_s", SIM_RUN),
    PerLayer("exec.driver.self_s", "s", "lower", "ops_per_s", SIM_RUN),
    PerLayer("exec.driver.queue_wait_p95", "delays", "lower", "vlat_p95", ("abd_openloop",)),
    PerLayer("exec.oplog.self_s", "s", "lower", "ops_per_s", ALL),
    PerLayer("exec.oplog.bytes_per_op", "bytes", "lower", "peak_rss_mb", ALL),
    PerLayer("verification.check_s", "s", "lower", "check_ops_per_s", ("check_replay",)),
    PerLayer("verification.histories_s", "s", "lower", "check_ops_per_s", ("check_replay",)),
    PerLayer("verification.us_per_op", "us", "lower", "check_ops_per_s", ("check_replay",)),
    PerLayer("verification.states_explored", "count", "lower", "check_ops_per_s", ("check_replay",)),
    PerLayer("verification.max_key_ops", "count", "lower", "check_ops_per_s", ("check_replay",)),
    PerLayer("verification.swmr_path_s", "s", "lower", "check_ops_per_s", ("check_replay",)),
    PerLayer("verification.wg_path_s", "s", "lower", "check_ops_per_s", ("check_replay",)),
    PerLayer("verification.self_s", "s", "lower", "check_ops_per_s", ("check_replay",)),
    PerLayer("verification.check_frac", "ratio", "lower", "check_ops_per_s", ALL),
    PerLayer("transport.codec_binary.encode_us_per_frame", "us", "lower", "cpu_ms_per_op", LIVE),
    PerLayer("transport.codec_binary.decode_us_per_frame", "us", "lower", "cpu_ms_per_op", LIVE),
    PerLayer("transport.codec_binary.bytes_per_frame", "bytes", "lower", "wire_bytes_per_op", LIVE),
    PerLayer("transport.codec_binary.self_s", "s", "lower", "cpu_ms_per_op", LIVE),
    PerLayer("transport.framing.frames_per_flush", "count", "higher", "ops_per_s", ("live_closed",)),
    PerLayer("transport.framing.feed_us_per_frame", "us", "lower", "cpu_ms_per_op", ("live_closed",)),
    PerLayer("transport.framing.client_bytes_per_op", "bytes", "lower", "wire_bytes_per_op", LIVE),
    PerLayer("transport.framing.replica_bytes_per_op", "bytes", "lower", "wire_bytes_per_op", LIVE),
    PerLayer("transport.framing.self_s", "s", "lower", "cpu_ms_per_op", ("live_closed",)),
    PerLayer("transport.live.cluster_start_s", "s", "lower", "setup_s", LIVE),
    PerLayer("transport.live.connect_s", "s", "lower", "setup_s", LIVE),
    PerLayer("transport.live.stop_s", "s", "lower", "setup_s", LIVE),
    PerLayer("transport.live.client_cpu_ms_per_op", "ms", "lower", "cpu_ms_per_op", LIVE),
    PerLayer("transport.live.replica_cpu_ms_per_op", "ms", "lower", "cpu_ms_per_op", LIVE),
    PerLayer("transport.live.inflight_max", "count", "lower", "lat_p95_ms", LIVE),
    PerLayer("transport.live.self_s", "s", "lower", "cpu_ms_per_op", LIVE),
    PerLayer("bench.gen_late_p95_ms", "ms", "lower", "lat_p95_ms", ("live_rates",)),
    PerLayer("bench.lat_p99_ms", "ms", "lower", "lat_p95_ms", SIM_RUN + LIVE),
    PerLayer("bench.lat_p999_ms", "ms", "lower", "lat_p95_ms", SIM_RUN + LIVE),
    PerLayer("bench.lat_p95_ms.r2500", "ms", "lower", "lat_p95_ms", ("live_rates",)),
    PerLayer("bench.lat_p95_ms.r5000", "ms", "lower", "lat_p95_ms", ("live_rates",)),
    PerLayer("bench.max_rate_in_slo", "1/s", "higher", "lat_p95_ms", ("live_rates",)),
    PerLayer("bench.failed_frac", "ratio", "lower", "ops_per_s", ALL),
    PerLayer("bench.trace_overhead_frac", "ratio", "lower", "ops_per_s", ALL),
    PerLayer("bench.unattributed_frac", "ratio", "lower", "ops_per_s", ALL),
    PerLayer("bench.box_slowdown", "ratio", "lower", "ops_per_s", ALL),
)

UNITS: Dict[str, str] = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}

#: Metrics that repeat exactly for a seed (counts and virtual-time numbers).
EXACT = ("msgs_per_op", "vlat_p50", "vlat_p95", "ctrl_bits_per_msg", "wire_bytes_per_op")
