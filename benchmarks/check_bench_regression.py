"""Benchmark regression guard: recompute virtual-time metrics vs committed baselines.

Wall-clock numbers are useless as CI gates on shared runners, but this
repository's benchmarks are **virtual-time deterministic**: for a fixed spec
the executed event count, virtual makespan and virtual throughput are exact
functions of the code, identical on every machine.  This script re-runs the
deterministic core of each committed ``BENCH_*.json`` baseline at the
baseline's own recorded sizes and fails (exit 1) when any gated metric has
regressed by more than 25%:

* ``BENCH_event_loop.json`` — the fixed-delay ring must not execute more
  events (someone adding spurious substrate events would show up here);
* ``BENCH_store_throughput.json`` — batched and per-op driving must keep
  their virtual makespan / throughput (per-process queueing or scheduling
  regressions show up here);
* ``BENCH_coalescing.json`` — the coalesced event count must stay down and
  logical messages must stay identical (a broken coalescing index would
  silently schedule one event per message again);
* ``BENCH_checker.json`` — the scalable linearizability checker must keep
  verifying the baseline's ≥5000-operation histories (operation counts are
  identities; the memoized-state count must not blow up — a broken greedy
  read rule or memo key would show here long before wall clock does);
* ``BENCH_memory.json`` — the columnar history plane must keep its probe
  identities (operation counts) and its memory wins: the bytes/op reduction
  over the object-graph plane and the worker->parent transfer-byte
  reduction over the legacy pickled-ExecOp payload must not erode, and the
  columnar transfer bytes themselves must not grow (someone widening a
  column or fattening the wire pickle shows up here; peak RSS and wall
  clock stay informational-only in the baseline);
* ``BENCH_parallel.json`` — the shard-parallel engine's probe identities
  (completed ops, message bill, virtual makespan, operations checked) must
  match the committed baseline exactly AND be byte-equal between workers=1
  and workers=2.  Wall-clock columns in the baseline are informational only
  — never gated — because speedup depends on physical cores (``cpus``
  field), while the identities are machine-independent;
* ``BENCH_consensus.json`` — the MMR consensus objects must keep their
  per-slot message complexity: on the probe run the operation counts,
  decided-slot count and checker verdict are exact identities, while the
  logical message bill, total rounds entered and virtual makespan are gated
  in the "lower is better" direction (a broken quorum threshold or a
  chattier round structure shows up here as a message-bill blowup long
  before wall clock does);
* ``BENCH_live_throughput.json`` — the live-transport fast path must keep
  its shape: op counts and the logical message bill are identities (binary
  and JSON wires must bill byte-identical message counts — the codec is an
  encoding, not a protocol change), while steady throughput and the
  binary-vs-JSON speedup are wall-clock and gated at the looser
  ``WALL_TOLERANCE`` (re-run with ``--quick`` to gate the committed quick
  mix instead of the full one).

Drift in the *improving* direction is reported but does not fail the run —
it means the committed baseline is stale and should be regenerated by the
full benchmark runs.

Run: ``PYTHONPATH=src python benchmarks/check_bench_regression.py``
"""

from __future__ import annotations

import json
import pathlib
import sys

if __package__ is None or __package__ == "":  # run as a plain script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import report

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOLERANCE = 0.25
#: Wall-clock metrics (the live-transport rows) get a looser gate: they are
#: real seconds on whatever machine runs the guard, and ±15% per-run scatter
#: on a busy host is normal even with the harness's median-of-N discipline.
WALL_TOLERANCE = 0.5

#: (label, baseline value, measured value, direction) rows; direction is
#: "lower" when smaller is better (events, makespan) and "higher" when larger
#: is better (throughput).
Check = tuple


def _load(name: str) -> dict:
    path = REPO_ROOT / name
    with path.open() as handle:
        return json.load(handle)


def check_event_loop() -> list[Check]:
    from benchmarks.bench_event_loop import run_current

    baseline = _load("BENCH_event_loop.json")
    ring_size, tokens = baseline["ring_size"], baseline["tokens"]
    # The ring executes exactly (message budget + injected tokens) events;
    # reconstruct the budget from the recorded deterministic event count.
    budget = baseline["events"] - tokens
    events, _seconds = run_current(ring_size, tokens, budget)
    return [("event_loop: ring events", baseline["events"], events, "lower")]


def check_store_throughput() -> list[Check]:
    from repro.workloads.kv import run_kv_workload
    from repro.workloads.scenarios import kv_uniform

    baseline = _load("BENCH_store_throughput.json")
    spec = kv_uniform(num_keys=baseline["num_keys"], num_ops=baseline["num_ops"], seed=19)
    checks: list[Check] = []
    for label, batch_size in (("batched", 64), ("per_op", 1)):
        result = run_kv_workload(spec.with_(batch_size=batch_size))
        result.check_atomicity()
        reference = baseline[label]
        checks.append(
            (
                f"store_throughput: {label} virtual makespan",
                reference["virtual_makespan"],
                round(result.virtual_makespan, 3),
                "lower",
            )
        )
        checks.append(
            (
                f"store_throughput: {label} virtual throughput",
                reference["virtual_throughput"],
                round(result.virtual_throughput(), 3),
                "higher",
            )
        )
    return checks


def check_coalescing() -> list[Check]:
    import benchmarks.bench_coalescing as bench_coalescing

    baseline = _load("BENCH_coalescing.json")
    workload = dict(baseline["workload"])
    num_ops = workload.pop("num_ops")
    workload.pop("delay")
    saved = dict(bench_coalescing.BASE_SPEC)
    bench_coalescing.BASE_SPEC.clear()
    bench_coalescing.BASE_SPEC.update(workload)
    try:
        on = bench_coalescing.run_once(True, num_ops)
        off = bench_coalescing.run_once(False, num_ops)
    finally:
        bench_coalescing.BASE_SPEC.clear()
        bench_coalescing.BASE_SPEC.update(saved)
    return [
        ("coalescing: events (on)", baseline["coalesced"]["events"], on["events"], "lower"),
        ("coalescing: events (off)", baseline["uncoalesced"]["events"], off["events"], "lower"),
        ("coalescing: virtual makespan", baseline["virtual_makespan"],
         round(on["virtual_makespan"], 3), "lower"),
        # Identities, not tolerances: on this workload the logical message
        # bill must match the baseline exactly, and the on/off runs must
        # agree with each other — any mismatch means coalescing is losing or
        # inventing messages in the accounting.
        ("coalescing: logical messages (on)", baseline["logical_messages"], on["messages"], "exact"),
        ("coalescing: logical messages (off)", baseline["logical_messages"], off["messages"], "exact"),
    ]


def check_checker() -> list[Check]:
    from benchmarks.bench_checker import check_run

    baseline = _load("BENCH_checker.json")
    checks: list[Check] = []
    for label, reference in baseline["workloads"].items():
        entry = check_run(
            reference["num_keys"],
            reference["num_ops"],
            reference["arrival_rate"],
            reference["seed"],
        )
        checks.append(
            (
                f"checker: {label} ops checked",
                reference["operations_checked"],
                entry["operations_checked"],
                "exact",
            )
        )
        checks.append(
            (
                f"checker: {label} linearizable",
                int(reference["linearizable"]),
                int(entry["linearizable"]),
                "exact",
            )
        )
        checks.append(
            (
                f"checker: {label} states explored",
                reference["states_explored"],
                entry["states_explored"],
                "lower",
            )
        )
    return checks


def check_memory() -> list[Check]:
    from benchmarks.bench_memory import measure_history, measure_transfer

    baseline = _load("BENCH_memory.json")
    probe = baseline["probe"]
    history = measure_history(probe["history"]["num_ops"])
    transfer = measure_transfer(probe["transfer"]["num_ops"])
    return [
        ("memory: probe history ops", probe["history"]["operations"],
         history["operations"], "exact"),
        ("memory: probe transfer ops", probe["transfer"]["operations"],
         transfer["operations"], "exact"),
        # Ratios, not raw object bytes: sys.getsizeof of the object plane
        # shifts a little across Python versions, the relative win does not.
        ("memory: probe history bytes/op reduction", probe["history"]["reduction"],
         history["reduction"], "higher"),
        ("memory: probe transfer reduction", probe["transfer"]["reduction"],
         transfer["reduction"], "higher"),
        ("memory: probe transfer bytes (columnar)", probe["transfer"]["columnar_bytes"],
         transfer["columnar_bytes"], "lower"),
    ]


def check_parallel() -> list[Check]:
    from benchmarks.bench_parallel import timed_run

    baseline = _load("BENCH_parallel.json")
    probe_ops = baseline["probe"]["num_ops"]
    reference = baseline["probe"]["runs"][0]
    serial = timed_run(probe_ops, workers=1)
    parallel = timed_run(probe_ops, workers=2)
    checks: list[Check] = []
    for field in ("completed", "messages", "virtual_makespan", "operations_checked"):
        checks.append(
            (
                f"parallel: probe {field} (workers=1)",
                reference[field],
                serial[field],
                "exact",
            )
        )
        # The engine's whole contract: parallel output is bit-identical to
        # serial.  Gate the parallel run against the *serial measurement*,
        # not just the baseline, so a divergence is caught even if both
        # drifted together.
        checks.append(
            (
                f"parallel: probe {field} (workers=2)",
                serial[field],
                parallel[field],
                "exact",
            )
        )
    return checks


def check_consensus() -> list[Check]:
    from benchmarks.bench_consensus import consensus_run

    baseline = _load("BENCH_consensus.json")
    probe = baseline["probe"]
    entry = consensus_run(probe["scenario"], probe["num_keys"], probe["num_ops"])
    return [
        # Identities: the probe's seed is baked into the scenario, so the
        # operation outcome and the consensus decisions are exact functions
        # of the code.
        ("consensus: probe completed ops", probe["completed"], entry["completed"], "exact"),
        ("consensus: probe failed ops", probe["failed"], entry["failed"], "exact"),
        ("consensus: probe linearizable", int(probe["linearizable"]),
         int(entry["linearizable"]), "exact"),
        ("consensus: probe slots decided", probe["slots_decided"],
         entry["slots_decided"], "exact"),
        # Message complexity: fewer broadcasts per decided slot is an
        # improvement (reported as stale baseline), more than +25% fails.
        ("consensus: probe logical messages", probe["messages"], entry["messages"], "lower"),
        ("consensus: probe rounds entered", probe["rounds_entered"],
         entry["rounds_entered"], "lower"),
        ("consensus: probe virtual makespan", probe["virtual_makespan"],
         entry["virtual_makespan"], "lower"),
    ]


def check_live(quick: bool = False) -> list[Check]:
    from repro.transport.bench import pair_specs, run_pair

    baseline = _load("BENCH_live_throughput.json")
    section = baseline["quick" if quick else "full"]
    mix = dict(section["mix"])
    base, fast, speedup = run_pair(pair_specs(mix), runs=section["runs_per_arm"])
    label = "live (quick)" if quick else "live"
    return [
        # Identities: every issued op completes in both arms, and the two
        # wires bill the same logical message count — the binary codec is an
        # encoding of the same protocol, not a different protocol.
        (f"{label}: baseline ops", mix["num_ops"], base["completed"], "exact"),
        (f"{label}: fastpath ops", mix["num_ops"], fast["completed"], "exact"),
        (f"{label}: baseline failed ops", 0, base["failed"], "exact"),
        (f"{label}: fastpath failed ops", 0, fast["failed"], "exact"),
        (f"{label}: message bill (fast = json)", base["messages"], fast["messages"], "exact"),
        # Wall-clock: gated, but at the looser tolerance.
        (f"{label}: fastpath steady ops/s",
         section["fastpath_binary"]["steady_ops_per_s"],
         fast["steady_ops_per_s"], "higher-wall"),
        (f"{label}: speedup vs json", section["speedup_vs_json"], speedup, "higher-wall"),
    ]


def verdict(baseline: float, measured: float, direction: str) -> tuple[float, bool]:
    """(signed drift toward 'worse', regressed?) for one metric.

    ``direction`` is "lower"/"higher" for tolerance-gated metrics — with a
    ``-wall`` suffix for wall-clock metrics gated at :data:`WALL_TOLERANCE`
    — and "exact" for identities, which fail on any mismatch in either
    direction.
    """
    if baseline == 0:
        return (0.0, measured != 0)
    drift = (measured - baseline) / baseline
    if direction == "exact":
        return drift, measured != baseline
    direction, _, kind = direction.partition("-")
    if direction == "higher":
        drift = -drift
    return drift, drift > (WALL_TOLERANCE if kind == "wall" else TOLERANCE)


def main(quick: bool = False) -> int:
    checks: list[Check] = []
    for probe in (check_event_loop, check_store_throughput, check_coalescing,
                  check_checker, check_memory, check_parallel, check_consensus):
        checks.extend(probe())
    checks.extend(check_live(quick=quick))
    rows = []
    failures = []
    for label, baseline, measured, direction in checks:
        drift, regressed = verdict(baseline, measured, direction)
        status = "FAIL" if regressed else ("stale" if drift < -TOLERANCE else "ok")
        rows.append([label, baseline, measured, f"{drift:+.1%}", status])
        if regressed:
            failures.append(label)
    report(
        f"Benchmark regression guard (virtual-time metrics, tolerance {TOLERANCE:.0%})",
        ["metric", "baseline", "measured", "drift", "verdict"],
        rows,
    )
    if failures:
        print("\nregressed metrics:", file=sys.stderr)
        for label in failures:
            print(f"  - {label}", file=sys.stderr)
        return 1
    return 0


def test_regression_guard_passes_on_committed_baselines():
    """The committed baselines must describe the current code."""
    assert main(quick=True) == 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="gate the live-transport rows on the committed quick mix "
        "(seconds instead of ~half a minute; virtual-time rows are "
        "unaffected — they are exact either way)",
    )
    args = parser.parse_args()
    sys.exit(main(quick=args.quick))
