"""A/B throughput harness for the live-transport fast path.

Runs the same loopback workload twice — once over the PR 8 wire (JSON
codec, one ``write()`` per frame) and once over the fast path (binary
codec, write batching) — and reports steady-state wall throughput for
each arm plus the speedup ratio.  Used by ``repro bench --transport
live`` to emit ``BENCH_live_throughput.json`` and by
``benchmarks/check_bench_regression.py`` to gate it.

Measurement discipline, learned the hard way on a single-core box:

* Each arm runs ``runs`` times and the **median** (by steady
  throughput) is kept — per-run wall numbers scatter ±15% on a shared
  host, and a best-of pick rewards whichever arm draws the luckier
  tail.
* All timing runs happen **before** any linearizability check.  The
  checker builds per-key history objects whose garbage measurably slows
  every *subsequent* run in the process, so interleaving check with
  timing penalizes whichever arm runs later.  Every run is still
  checked — a benchmark number from a broken run is worthless, and a
  failed check raises instead of reporting — just after the clocks
  stop.
* Throughput is the *steady-state* rate (first issue to last
  completion) rather than ops over total wall time, so cluster
  boot/teardown — identical in both arms and irrelevant to the wire —
  is excluded from the ratio.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List, Tuple

from repro.exec.metrics import json_number

#: Op mix for the committed baseline: multi-writer (the paper's MWMR
#: setting), write-heavy so the measured path is the protocol's
#: two-phase writes, batch 256 so enough operations are in flight for
#: write coalescing to have work to do.
FULL_MIX = dict(num_keys=32, num_ops=4000, read_fraction=0.2,
                algorithm="abd-mwmr", batch_size=256, seed=19)
QUICK_MIX = dict(num_keys=16, num_ops=400, read_fraction=0.2,
                 algorithm="abd-mwmr", batch_size=128, seed=19)


def arm_entry(result) -> Dict[str, Any]:
    """Pick the JSON row the baseline artifact records out of ``result.summary()``."""
    summary = result.summary()
    latency = summary["latency"] or {}
    wire = summary["wire"] or {}
    steady = result.metrics.get("wall_throughput") or summary["wall_throughput"]

    def _ms(value):
        return None if value is None else round(value * 1000.0, 3)

    return {
        "codec": wire.get("codec"),
        "write_batching": bool(wire.get("batching")),
        "completed": summary["completed"],
        "failed": summary["failed"],
        "wall_seconds": summary["wall_seconds"],
        "steady_ops_per_s": json_number(steady, 1),
        "messages": summary["messages"],
        "p50_ms": _ms(latency.get("p50")),
        "p99_ms": _ms(latency.get("p99")),
        "frames_per_flush": json_number(wire.get("frames_per_flush")),
        "client_bytes_per_op": json_number(wire.get("client_bytes_per_op"), 1),
    }


def _timed_runs(spec, runs: int) -> List[Tuple[Dict[str, Any], Any]]:
    """Run ``spec`` ``runs`` times; return (entry, result) pairs, unchecked."""
    from repro.workloads.kv import run_kv_workload

    pairs = []
    for _ in range(max(1, runs)):
        gc.collect()
        result = run_kv_workload(spec)
        pairs.append((arm_entry(result), result))
    return pairs


def _checked_median(pairs: List[Tuple[Dict[str, Any], Any]], spec) -> Dict[str, Any]:
    """Verify every run of one arm, then return its median-throughput entry."""
    for _entry, result in pairs:
        verdict = result.verify()
        if not verdict.ok:
            raise RuntimeError(
                f"live bench arm codec={spec.codec} batching={spec.write_batching} "
                f"is not a valid measurement: {'; '.join(verdict.failures[:3])}"
            )
    entries = sorted((entry for entry, _result in pairs),
                     key=lambda entry: entry["steady_ops_per_s"] or 0)
    return entries[len(entries) // 2]


def pair_specs(mix: Dict[str, Any], **changes: Any) -> Tuple[Any, Any]:
    """The (JSON + unbatched, binary + batched) live specs of one op mix."""
    from repro.workloads.scenarios import kv_uniform

    spec = kv_uniform(**mix).with_(**{"transport": "live", **changes})
    return (
        spec.with_(codec="json", write_batching=False),
        spec.with_(codec="binary", write_batching=True),
    )


def run_pair(
    specs: Tuple[Any, Any], runs: int = 3
) -> Tuple[Dict[str, Any], Dict[str, Any], float]:
    """Run the baseline (JSON, unbatched) and fast (binary, batched) arms.

    ``specs`` is a :func:`pair_specs` result.  Returns ``(baseline_entry,
    fastpath_entry, speedup)`` where speedup is the steady-state throughput
    ratio fast / baseline.
    """
    base_spec, fast_spec = specs
    base_runs = _timed_runs(base_spec, runs)
    fast_runs = _timed_runs(fast_spec, runs)
    baseline = _checked_median(base_runs, base_spec)
    fast = _checked_median(fast_runs, fast_spec)
    speedup = (fast["steady_ops_per_s"] or 0.0) / (baseline["steady_ops_per_s"] or 1.0)
    return baseline, fast, round(speedup, 3)
