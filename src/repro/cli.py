"""Command-line interface.

Everything the examples do is also reachable from the command line, which is
convenient for quick experiments and for CI jobs that want the reproduction
report without writing Python:

.. code-block:: console

    python -m repro.cli algorithms                  # list registered algorithms
    python -m repro.cli table1 --n 7 --writes 50    # regenerate Table 1
    python -m repro.cli run --algorithm two-bit --n 5 --writes 10 --reads 10
    python -m repro.cli compare --n 7 --reads 40 --writes 4
    python -m repro.cli bits --writes 200           # control-bit growth curves
    python -m repro.cli store --keys 32 --ops 500 --dist zipfian --shards 4
    python -m repro.cli explore --budget 50         # schedule exploration + shrinking

(With the package installed — ``pip install -e .`` — the same commands are
available as plain ``repro <subcommand>`` via the console-script entry point.)

Every sub-command prints plain text (the same tables the benchmarks print)
and exits non-zero if a correctness check fails, so the CLI can be used as a
smoke test in automation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.bits import control_bits_growth
from repro.analysis.memory import memory_growth
from repro.analysis.report import (
    format_connections,
    format_metrics,
    format_number,
    format_run,
    format_table,
    report_run,
)
from repro.analysis.table1 import build_table1, measure_messages
from repro.registers.registry import available_algorithms
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.failures import random_crash_schedule
from repro.workloads.kv import CrashPoint, run_kv_workload
from repro.workloads.runner import run_workload
from repro.workloads.spec import WorkloadSpec


#: The flags several sub-commands share, declared once: ``dest -> (flag,
#: argparse kwargs)``.  Each command passes its own defaults (``None`` means
#: "the scenario's / mode's own value") to :func:`_add_shared_arguments`.
_SHARED_FLAGS = {
    "n": ("--n", dict(type=int, help="number of processes")),
    "writes": ("--writes", dict(type=int, help="number of writes")),
    "reads": ("--reads", dict(type=int, help="reads per reader")),
    "seed": ("--seed", dict(type=int, help="master seed")),
    "keys": ("--keys", dict(type=int, help="number of distinct keys")),
    "ops": ("--ops", dict(type=int, help="total operations")),
    "read_fraction": (
        "--read-fraction",
        dict(type=float, help="fraction of operations that are reads"),
    ),
    "algorithm": ("--algorithm", dict(help="register algorithm (see `repro algorithms`)")),
    "shards": ("--shards", dict(type=int, help="number of shards")),
    "replication": ("--replication", dict(type=int, help="replicas per shard")),
    "workers": (
        "--workers",
        dict(
            type=int,
            help="worker processes: shard groups on the simulator (output is identical "
            "for any count), client processes on the live transport (same operation "
            "stream and message bill for any count)",
        ),
    ),
    "transport": (
        "--transport",
        dict(
            choices=["sim", "live"],
            help="deterministic virtual-time simulator, or live asyncio sockets "
            "on a loopback replica cluster",
        ),
    ),
    "quick": ("--quick", dict(action="store_true", help="small sizes for CI smoke runs")),
    "out_dir": ("--out-dir", dict(help="directory for emitted artifacts")),
}


def _add_shared_arguments(
    parser: argparse.ArgumentParser, restrict_algorithm: bool = False, **defaults: object
) -> None:
    """Add the :data:`_SHARED_FLAGS` named in ``defaults`` with those defaults."""
    for dest, default in defaults.items():
        flag, kwargs = _SHARED_FLAGS[dest]
        kwargs = dict(kwargs, dest=dest, default=default)
        if default is not False:  # store_true flags document themselves
            kwargs["help"] += f" (default: {'per scenario/mode' if default is None else default})"
        if dest == "algorithm" and restrict_algorithm:
            kwargs["choices"] = available_algorithms()
        parser.add_argument(flag, **kwargs)


def _add_common_workload_arguments(parser: argparse.ArgumentParser) -> None:
    _add_shared_arguments(parser, n=5, writes=10, reads=10, seed=0)
    parser.add_argument(
        "--delay",
        choices=["fixed", "uniform"],
        default="fixed",
        help="message delay model (default: fixed delta=1)",
    )
    parser.add_argument(
        "--crashes",
        type=int,
        default=0,
        help="number of random reader crashes to inject (writer is spared)",
    )


def _delay_model(name: str, seed: int):
    if name == "uniform":
        return UniformDelay(0.1, 2.0, seed=seed)
    return FixedDelay(1.0)


def _spec_from_args(args: argparse.Namespace, algorithm: str) -> WorkloadSpec:
    schedule = None
    if args.crashes:
        schedule = random_crash_schedule(
            args.n, seed=args.seed, max_crashes=args.crashes, horizon=20.0, exclude=(0,)
        )
    return WorkloadSpec(
        n=args.n,
        algorithm=algorithm,
        num_writes=args.writes,
        reads_per_reader=args.reads,
        delay_model=_delay_model(args.delay, args.seed),
        crash_schedule=schedule,
        check_invariants=(algorithm == "two-bit"),
        seed=args.seed,
    )


# ---------------------------------------------------------------- subcommands


def cmd_algorithms(_args: argparse.Namespace) -> int:
    """List the registered register algorithms with their capability flags."""
    from repro.registers.registry import get_algorithm

    rows = []
    for name in available_algorithms():
        algorithm = get_algorithm(name)
        rows.append(
            [
                name,
                "MWMR" if algorithm.supports_multi_writer else "SWMR",
                "bounded" if algorithm.bounded_control_bits else "unbounded",
                algorithm.description,
            ]
        )
    print(
        format_table(
            ["name", "writers", "control bits", "description"],
            rows,
            title="Registered algorithms",
        )
    )
    return 0


def cmd_scenarios(_args: argparse.Namespace) -> int:
    """List the canned workload scenarios (register + store)."""
    from repro.workloads.scenarios import SCENARIOS

    rows = [
        [info.name, info.kind, info.description]
        for info in SCENARIOS.values()
    ]
    print(
        format_table(
            ["name", "kind", "description"],
            rows,
            title="Workload scenarios",
        )
    )
    return 0


def cmd_transports(_args: argparse.Namespace) -> int:
    """List the message-transport backends and their capability flags."""
    from repro.transport import TRANSPORTS

    rows = [
        [
            info.name,
            info.clock,
            "yes" if info.deterministic else "no",
            info.sim_only_features,
            info.description,
        ]
        for info in TRANSPORTS.values()
    ]
    print(
        format_table(
            ["name", "clock", "deterministic", "sim-only features", "description"],
            rows,
            title="Message transports",
        )
    )
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate the paper's Table 1."""
    table = build_table1(n=args.n, writes=args.writes, delta=1.0, seed=args.seed)
    print(table.render())
    return 0


def _mean_latency(result, kind: str, digits: int) -> str:
    """Mean latency of one operation kind, from the run's metrics (``-`` if none ran)."""
    summary = result.metrics["latency"][kind]
    return format_number(summary and summary["mean"], digits)


def cmd_run(args: argparse.Namespace) -> int:
    """Run one register workload; report its statistics and the run verdict."""
    spec = _spec_from_args(args, args.algorithm)
    result = run_workload(spec)
    verdict = result.verify()
    lead = [
        ["max control bits / message", result.store.stats.max_control_bits],
        ["mean write latency", _mean_latency(result, "write", 3)],
        ["mean read latency", _mean_latency(result, "read", 3)],
    ]
    if result.monitor is not None:
        lead.append(["lemma invariants", "ok" if result.monitor.report.ok else "VIOLATED"])
    title = f"{args.algorithm} on n={args.n} ({spec.total_operations()} operations)"
    return report_run(
        format_run(result.summary(verdict), title, lead), verdict.failures, "register run"
    )


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the same workload under every executable algorithm and compare."""
    rows = []
    failures = []
    for algorithm in ("two-bit", "abd", "abd-bounded-emulation"):
        result = run_workload(_spec_from_args(args, algorithm))
        verdict = result.verify()
        failures.extend(f"{algorithm}: {failure}" for failure in verdict.failures)
        rows.append(
            [
                algorithm,
                result.total_messages(),
                result.store.stats.max_control_bits,
                _mean_latency(result, "read", 2),
                "yes" if verdict.report.ok else "NO",
            ]
        )
    table = format_table(
        ["algorithm", "total msgs", "max control bits", "mean read latency", "atomic"],
        rows,
        title=f"Comparison on n={args.n}, {args.writes} writes, {args.reads} reads/reader",
    )
    return report_run(table, failures, "register run")


def cmd_bits(args: argparse.Namespace) -> int:
    """Control-bit and local-memory growth curves (the 'unbounded' rows of Table 1)."""
    counts = (10, max(20, args.writes // 4), args.writes)
    tables = []
    for title, measure, attribute in (
        ("Max control bits per message", control_bits_growth, "max_control_bits"),
        ("Max local memory per process (words)", memory_growth, "max_words"),
    ):
        rows = [
            [algorithm]
            + [
                getattr(point, attribute)
                for point in measure(algorithm, n=args.n, write_counts=counts, seed=args.seed)
            ]
            for algorithm in ("abd", "two-bit")
        ]
        headers = ["algorithm"] + [f"{c} writes" for c in counts]
        tables.append(format_table(headers, rows, title=title))
    print("\n\n".join(tables))
    return 0


def cmd_messages(args: argparse.Namespace) -> int:
    """Exact per-operation message counts (Theorem 2) for one system size."""
    rows = [
        [algorithm] + [round(mean, 1) for mean in measure_messages(algorithm, args.n, 3, args.seed)]
        for algorithm in ("two-bit", "abd")
    ]
    print(
        format_table(
            ["algorithm", "msgs per write", "msgs per read"],
            rows,
            title=f"Per-operation message counts, n={args.n}",
        )
    )
    return 0


# --------------------------------------------------------- keyed commands
#
# store / consensus / chaos are all the same pipeline:
# flags -> spec (a ``_*_spec`` builder; any ValueError it or the spec's own
# validation raises is exit status 2, decided once in :func:`main`) ->
# ``run_kv_workload`` -> ``result.verify()`` ->
# ``format_run(result.summary(verdict))`` -> :func:`report_run` (0 or 1).
# Nothing below knows which backend executed a run.


def _crash_points(args: argparse.Namespace, replication: int) -> tuple:
    """``--crashes N``: one non-writer replica of N distinct shards, seeded."""
    from repro.sim.rng import make_rng

    if args.crashes < 0:
        raise ValueError(f"--crashes must be non-negative, got {args.crashes}")
    if (replication - 1) // 2 < 1:
        raise ValueError(
            f"--crashes requires replication >= 3 (replication {replication} "
            "tolerates no crashes)"
        )
    if args.crashes > args.shards:
        raise ValueError(
            f"--crashes {args.crashes} exceeds the number of shards ({args.shards}); "
            "each crash takes down one non-writer replica of a distinct shard"
        )
    rng = make_rng(args.seed, "store-cli-crashes", args.shards, args.crashes)
    shards = sorted(rng.sample(range(args.shards), args.crashes))
    # Crash early in the run: batched driving finishes a few hundred ops
    # within a handful of virtual-time units, so a wide window would let
    # crashes silently land after the run already completed.
    return tuple(
        CrashPoint(at_time=round(rng.uniform(1.0, 4.0), 3), shard=shard, replica=1)
        for shard in shards
    )


def _geometry_row(spec) -> list:
    return [
        "keys / shards / replication",
        f"{spec.num_keys} / {spec.num_shards} / {spec.replication}",
    ]


def _store_spec(args: argparse.Namespace):
    """``repro store`` flags → :class:`~repro.workloads.kv.KVWorkloadSpec`."""
    from repro.workloads.scenarios import kv_uniform, kv_zipfian

    # `--replicas` is the live-transport wording for `--replication`; both
    # set the per-shard replica count on either backend.
    replication = args.replication if args.replicas is None else args.replicas
    changes: dict = {
        "transport": args.transport,
        "workers": args.workers,
        "slo_p99": args.slo_p99,
    }
    if args.algorithms:
        names = tuple(name.strip() for name in args.algorithms.split(",") if name.strip())
        if not names:
            raise ValueError("--algorithms needs at least one algorithm name")
        # Round-robin the listed algorithms over the shards.
        changes["shard_algorithms"] = tuple(
            names[shard % len(names)] for shard in range(args.shards)
        )
    if args.no_coalesce:
        changes["coalesce"] = False
    if args.arrival != "closed":
        # Open-loop driving: the same key/op stream, arriving at seeded times
        # with mean rate --rate (per virtual-time unit, or per wall second on
        # the live transport) instead of batched submission.
        changes.update(arrival=args.arrival, arrival_rate=args.rate)
    if args.crashes:
        changes["crash_points"] = _crash_points(args, replication)
    builder = kv_zipfian if args.dist == "zipfian" else kv_uniform
    return builder(
        num_keys=args.keys,
        num_ops=args.ops,
        read_fraction=args.read_fraction,
        algorithm=args.algorithm,
        num_shards=args.shards,
        replication=replication,
        batch_size=args.batch,
        seed=args.seed,
    ).with_(**changes)


def cmd_store(args: argparse.Namespace) -> int:
    """Run a keyed workload against the sharded multi-key store (either backend)."""
    spec = args.spec
    result = run_kv_workload(spec)
    verdict = result.verify()
    summary = result.summary(verdict)
    lead = [
        _geometry_row(spec),
        [
            "per-shard algorithms",
            ", ".join(f"s{shard}={name}" for shard, name in enumerate(spec.shard_algorithms))
            if spec.shard_algorithms
            else spec.algorithm,
        ],
    ]
    if spec.workers > 1:
        lead.append(["worker processes", spec.workers])
    if spec.open_loop:
        lead.append(["offered load (ops per time unit / second)", spec.arrival_rate])
    if spec.crash_points:
        lead.append(["server crashes requested", len(spec.crash_points)])
    if spec.slo_p99 is not None:
        lead.append(["p99 SLO (time units / seconds)", spec.slo_p99])
    title = (
        f"store [{spec.transport}]: {spec.algorithm}, {spec.num_ops} ops, {args.dist} keys"
        + (f", {spec.arrival} arrivals @ {spec.arrival_rate}" if spec.open_loop else "")
        + (f", {len(spec.crash_points)} crash(es)" if spec.crash_points else "")
    )
    parts = [format_run(summary, title, lead), format_metrics(result.metrics)]
    if summary["wire"]:
        parts.append(format_connections(summary["wire"]))
    return report_run("\n\n".join(parts), verdict.failures, "store run")


def _consensus_spec(args: argparse.Namespace):
    """``repro consensus`` flags → the chosen scenario's spec, overrides applied."""
    from repro.workloads.scenarios import get_scenario

    overrides = {
        name: value
        for name, value in (("num_keys", args.keys), ("num_ops", args.ops), ("seed", args.seed))
        if value is not None
    }
    changes = {"transport": args.transport, "workers": args.workers}
    if args.algorithm:
        changes["algorithm"] = args.algorithm
    return get_scenario(args.scenario).builder(**overrides).with_(**changes)


def cmd_consensus(args: argparse.Namespace) -> int:
    """Run a consensus-object scenario; gate on the SMR checker + invariants.

    Runs one of the consensus scenarios (``kv_cas``, ``kv_counter``,
    ``consensus_smoke``) on the simulator or the live loopback cluster,
    checks every key's history against the SMR specification, and — when
    the replica processes are reachable (sim, serial) — verifies the
    protocol-level agreement and validity invariants straight off the
    decided slots.  Exit 0 only if everything holds.
    """
    spec = args.spec
    result = run_kv_workload(spec)
    verdict = result.verify()
    lead = [
        ["scenario", args.scenario],
        ["algorithm", spec.algorithm],
        _geometry_row(spec),
    ]
    title = f"consensus: {args.scenario} ({spec.algorithm}, seed {spec.seed})"
    return report_run(
        format_run(result.summary(verdict), title, lead), verdict.failures, "consensus run"
    )


def _chaos_schedules(quick: bool):
    """The named fault schedules the chaos sweep crosses with seeds.

    Each entry is ``(name, builder)`` where ``builder(seed)`` returns a
    fully-seeded :class:`~repro.workloads.kv.KVWorkloadSpec` carrying its
    fault plan.  Quick mode keeps CI smoke runs short (2 schedules).
    """
    from repro.faults import FaultPlan, PartitionSchedule, PartitionWindow, slow_the_writer
    from repro.workloads.scenarios import chaos, consensus_smoke, kv_partitioned, kv_uniform

    num_keys = 8 if quick else 16
    num_ops = 80 if quick else 240
    cons_keys = 4 if quick else 6
    cons_ops = 60 if quick else 120

    def partition_minority(seed: int):
        return kv_partitioned(num_keys=num_keys, num_ops=num_ops, seed=seed)

    def storm(seed: int):
        spec = kv_uniform(num_keys=num_keys, num_ops=num_ops, seed=seed)
        # Replica 0 hosts every key's writer: storm its links in each subnet.
        return spec.with_(
            fault_plan=slow_the_writer(writer_pid=0, factor=6.0, start=2.0, end=25.0)
        )

    def isolated(spec, name: str, pid: int, start: float, heal: float):
        window = PartitionWindow.isolate((pid,), spec.replication, start=start, heal=heal)
        plan = FaultPlan(name=name, link_policies=(PartitionSchedule(windows=(window,)),))
        return spec.with_(fault_plan=plan)

    def partition_writer(seed: int):
        # Cut the writer replica off instead: puts stall until the heal,
        # reads keep completing on the majority side.
        spec = kv_uniform(num_keys=num_keys, num_ops=num_ops, seed=seed)
        return isolated(spec, "partition-writer", 0, start=3.0, heal=14.0)

    def chaos_random(seed: int):
        return chaos(num_keys=num_keys, num_ops=num_ops, seed=seed)

    def consensus_crash(seed: int):
        # Crash one replica mid-run (t = 1 < n/2 for replication 3): MMR
        # consensus must keep deciding on the surviving n - t quorum, and
        # the cell additionally checks the agreement/validity invariants.
        spec = consensus_smoke(num_keys=cons_keys, num_ops=cons_ops, seed=seed)
        rng_shard = seed % spec.num_shards
        return spec.with_(
            crash_points=(
                CrashPoint(at_time=4.0 + seed, shard=rng_shard, replica=2),
            )
        )

    def consensus_partition(seed: int):
        # Isolate one replica behind a healing partition: its slots stall
        # until the heal, the majority side keeps deciding throughout.
        spec = consensus_smoke(num_keys=cons_keys, num_ops=cons_ops, seed=seed)
        return isolated(
            spec, "consensus-partition", seed % spec.replication, start=3.0, heal=16.0
        )

    schedules = [
        ("kv-partitioned", partition_minority),
        ("delay-storm", storm),
        ("consensus-crash", consensus_crash),
    ]
    if not quick:
        schedules.extend(
            [
                ("partition-writer", partition_writer),
                ("chaos", chaos_random),
                ("consensus-partition", consensus_partition),
            ]
        )
    return schedules


def _run_signature(result) -> list:
    """Record-by-record fingerprint of a run (for reproducibility checks)."""
    signature = []
    for op in result.ops:
        record = op.record
        signature.append(
            (
                op.op_id,
                op.kind.value,
                op.key,
                op.value,
                op.failed,
                None
                if record is None
                else (record.invoked_at, record.responded_at, repr(record.result)),
            )
        )
    return signature


def _chaos_cell_payload(payload: tuple) -> dict:
    """Run one chaos-sweep cell; module-level so the process pool can pickle it.

    ``payload`` is ``(schedule_name, seed, quick, want_signature)``.  The cell
    rebuilds its spec from the schedule registry by name (the builders are
    closures, which don't pickle), runs and verifies it, and returns the JSON
    entry for ``chaos_report.json`` plus — when ``want_signature`` — the
    record-by-record signature the parent's reproducibility check compares
    against its own re-run of the same cell.
    """
    name, seed, quick, want_signature = payload
    spec = dict(_chaos_schedules(quick))[name](seed)
    result = run_kv_workload(spec)
    # Consensus cells' verdicts include the protocol-level invariants
    # (per-slot agreement, validity) straight off the replica processes.
    verdict = result.verify()
    summary = result.summary(verdict)
    entry = {
        "schedule": name,
        "seed": seed,
        "fault_timeline": spec.fault_plan.timeline() if spec.fault_plan else [],
        "server_crashes": [
            {"at": point.at_time, "shard": point.shard, "replica": point.replica}
            for point in spec.crash_points
        ],
        **{
            key: summary[key]
            for key in (
                "completed", "failed", "atomic", "keys_checked", "finished_cleanly",
                "virtual_makespan", "virtual_throughput", "messages", "per_sender",
            )
        },
    }
    if summary["consensus_violations"] is not None:
        entry["consensus_violations"] = summary["consensus_violations"]
    return {
        "entry": entry,
        "failures": verdict.failures,
        "signature": _run_signature(result) if want_signature else None,
    }


def _chaos_cells(args: argparse.Namespace) -> list:
    """``repro chaos`` flags → the sweep's ``(schedule, seed)`` cells, in order."""
    if args.seeds is not None and args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    seeds = range(args.seeds if args.seeds is not None else (2 if args.quick else 3))
    return [(name, seed) for name, _ in _chaos_schedules(args.quick) for seed in seeds]


def cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep seeds x fault schedules; verify every run; emit ``chaos_report.json``.

    Every cell gets the full run verdict; the sweep also re-runs its first
    cell and verifies the execution is reproducible record-by-record (with
    ``--workers N`` that re-run happens in the parent process, so the check
    doubles as a cross-process determinism probe).  The payload is strict
    JSON (``allow_nan=False``) so downstream consumers can parse with
    ``parse_constant`` forbidden.
    """
    import json
    import pathlib
    import platform

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    quick = args.quick

    # Cells are independent seeded runs: fan them out over the process pool
    # when --workers asks for it, in the exact order the serial sweep uses so
    # the emitted payload is byte-identical either way.
    cells = args.spec
    payloads = [
        (name, seed, quick, index == 0) for index, (name, seed) in enumerate(cells)
    ]
    if args.workers > 1:
        from repro.parallel import WorkerFailure, run_chunked

        try:
            outcomes = run_chunked(_chaos_cell_payload, payloads, args.workers)
        except WorkerFailure as exc:
            return report_run("", [f"sweep worker failed:\n{exc}"], "chaos sweep")
    else:
        outcomes = [_chaos_cell_payload(payload) for payload in payloads]

    runs = [outcome["entry"] for outcome in outcomes]
    failures = [
        f"{name}/seed={seed}: {outcome['failures'][0]}"
        for (name, seed), outcome in zip(cells, outcomes)
        if outcome["failures"]
    ]
    rows = [
        [
            entry["schedule"],
            entry["seed"],
            entry["completed"],
            entry["failed"],
            round(entry["virtual_makespan"], 1),
            "yes" if entry["atomic"] else "NO",
            "FAIL" if outcome["failures"] else "ok",
        ]
        for entry, outcome in zip(runs, outcomes)
    ]

    # Reproducibility: the same seeded spec must replay record-by-record.
    # The parent re-runs the first cell itself, so under --workers this also
    # certifies that a pool worker's execution matches an in-process one.
    first_name, first_seed = cells[0]
    replay = _chaos_cell_payload((first_name, first_seed, quick, True))
    reproducible = replay["signature"] == outcomes[0]["signature"]
    if not reproducible:
        failures.append(f"{first_name}/seed={first_seed} not reproducible")

    payload = {
        "benchmark": "chaos_fault_schedule_sweep",
        "mode": "quick" if quick else "full",
        "seeds": sorted({seed for _, seed in cells}),
        "schedules": [name for name, _ in _chaos_schedules(quick)],
        "reproducible": reproducible,
        "all_atomic": all(entry["atomic"] for entry in runs),
        "runs": runs,
        "python": platform.python_version(),
    }
    chaos_path = out_dir / "chaos_report.json"
    chaos_path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    table = format_table(
        ["schedule", "seed", "completed", "failed", "makespan", "atomic", "verdict"],
        rows,
        title=f"chaos sweep ({payload['mode']}) -> {chaos_path}",
    )
    return report_run(
        f"{table}\nreproducible (record-by-record): {'yes' if reproducible else 'NO'}",
        failures,
        "chaos sweep",
    )


def cmd_explore(args: argparse.Namespace) -> int:
    """Schedule exploration: search schedules, check every run, shrink violations.

    Two modes: ``repro explore --replay file`` replays a counterexample
    artifact and exits 0 iff the recorded violation reproduces; plain
    ``repro explore`` runs seeded schedule search.  A healthy algorithm
    must come back clean (exit 0, non-zero on any violation); with
    ``--expect-violation`` (mutation-testing the pipeline) the exit code
    flips — 0 only if a violation was found, shrunk and its artifact
    replayed.
    """
    import pathlib

    from repro.explore import (
        ExploreConfig,
        available_mutations,
        install_mutations,
        replay_artifact,
        run_exploration,
        write_artifact,
    )

    if args.replay:
        try:
            result = replay_artifact(args.replay)
        except (OSError, ValueError) as exc:
            print(f"cannot replay {args.replay}: {exc}", file=sys.stderr)
            return 2
        print(f"replaying {args.replay}: {len(result.case.ops)} ops on {result.case.algorithm}")
        print(f"expected failing keys: {result.expected_keys}")
        print(f"observed failing keys: {result.failing_keys}")
        for violation in result.violations:
            print(f"  - {violation}")
        print(f"reproduced: {'yes' if result.reproduced else 'NO'}")
        return 0 if result.reproduced else 1

    known = available_algorithms() + available_mutations()
    if args.algorithm not in known:
        print(
            f"unknown algorithm {args.algorithm!r}; available: {known} "
            "(mutants are installed on demand)",
            file=sys.stderr,
        )
        return 2
    if args.algorithm in available_mutations():
        install_mutations()
    from repro.registers.registry import get_algorithm

    op_mix = None
    if args.op_mix:
        try:
            op_mix = tuple(
                (kind.strip(), float(weight))
                for kind, _, weight in (
                    entry.partition("=") for entry in args.op_mix.split(",") if entry.strip()
                )
            )
        except ValueError as exc:
            print(f"invalid --op-mix {args.op_mix!r}: {exc}", file=sys.stderr)
            return 2
    smr = get_algorithm(args.algorithm).spec == "smr"
    if smr and op_mix is None:
        # Consensus objects: explore the kinds whose results the SMR spec
        # constrains, starting from an empty store so cas chains from "unset".
        op_mix = (("read", 0.40), ("cas", 0.40), ("write", 0.20))
    try:
        config = ExploreConfig(
            strategy=args.strategy,
            budget=8 if args.quick else args.budget,
            seed=args.seed,
            algorithm=args.algorithm,
            num_keys=4 if args.quick else args.keys,
            num_ops=48 if args.quick else args.ops,
            read_fraction=args.read_fraction,
            num_shards=args.shards,
            replication=args.replication,
            op_mix=op_mix,
            initial_value=None if smr else "v0",
            perturb_rate=args.perturb_rate,
            perturb_amplitude=args.perturb_amplitude,
            workers=args.workers,
        )
        report = run_exploration(config)
    except (KeyError, ValueError) as exc:
        print(f"invalid exploration parameters: {exc}", file=sys.stderr)
        return 2

    rows = [
        ["strategy", config.strategy],
        ["schedules explored", report.cases_run],
        ["operations checked", report.operations_checked],
        ["checker states explored", report.states_explored],
        ["violations found", len(report.counterexamples)],
        ["wall seconds", round(report.wall_seconds, 2)],
    ]
    title = f"explore: {args.algorithm}, budget {config.budget}, seed {config.seed}"
    lines = [format_table(["metric", "value"], rows, title=title)]
    out_dir = pathlib.Path(args.out_dir)
    failures = []
    for index, example in enumerate(report.counterexamples, start=1):
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"explore_counterexample_{index}.json"
        write_artifact(example, path)
        lines.append(
            f"\ncounterexample #{index}: {len(example.original_case.ops)} ops shrunk to "
            f"{example.op_count} (perturbation {len(example.original_case.perturbation)} -> "
            f"{len(example.case.perturbation)} entries), keys {example.failing_keys}"
        )
        lines.extend(f"  - {violation}" for violation in example.violations)
        lines.append(f"  artifact: {path} (replayed: {'yes' if example.replayed else 'NO'})")
        if not example.replayed:
            failures.append(f"non-replayable artifact {path}")
    if args.expect_violation and not report.counterexamples:
        failures.append(
            "expected the explorer to find a violation (mutation test), "
            "but every explored schedule was linearizable"
        )
    elif report.counterexamples and not args.expect_violation:
        failures.append(f"{len(report.counterexamples)} non-linearizable execution(s) found")
    return report_run("\n".join(lines), failures, "explore")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for the two-bit atomic-register paper (Mostefaoui & Raynal 2016)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser(
        "algorithms", help="list registered register algorithms and their capabilities"
    )
    sub.set_defaults(handler=cmd_algorithms)

    sub = subparsers.add_parser(
        "scenarios", help="list canned workload scenarios (register + store)"
    )
    sub.set_defaults(handler=cmd_scenarios)

    sub = subparsers.add_parser(
        "transports", help="list message-transport backends (simulator, live sockets)"
    )
    sub.set_defaults(handler=cmd_transports)

    sub = subparsers.add_parser("table1", help="regenerate the paper's Table 1")
    _add_shared_arguments(sub, n=5, writes=30, seed=0)
    sub.set_defaults(handler=cmd_table1)

    sub = subparsers.add_parser("run", help="run one workload and check atomicity")
    _add_shared_arguments(sub, restrict_algorithm=True, algorithm="two-bit")
    _add_common_workload_arguments(sub)
    sub.set_defaults(handler=cmd_run)

    sub = subparsers.add_parser("compare", help="run the same workload under every executable algorithm")
    _add_common_workload_arguments(sub)
    sub.set_defaults(handler=cmd_compare)

    sub = subparsers.add_parser("bits", help="control-bit and memory growth curves")
    _add_shared_arguments(sub, n=5, writes=200, seed=0)
    sub.set_defaults(handler=cmd_bits)

    sub = subparsers.add_parser("messages", help="exact per-operation message counts (Theorem 2)")
    _add_shared_arguments(sub, n=5, seed=0)
    sub.set_defaults(handler=cmd_messages)

    sub = subparsers.add_parser(
        "store", help="run a keyed workload against the sharded multi-key store"
    )
    _add_shared_arguments(
        sub,
        restrict_algorithm=True,
        keys=16,
        ops=400,
        read_fraction=0.9,
        algorithm="abd",
        shards=4,
        replication=3,
        seed=0,
        workers=1,
        transport="sim",
    )
    sub.add_argument(
        "--dist",
        choices=["uniform", "zipfian"],
        default="uniform",
        help="key popularity distribution (default uniform)",
    )
    sub.add_argument(
        "--batch", type=int, default=64, help="operations per drive() batch (default 64)"
    )
    sub.add_argument(
        "--arrival",
        choices=["closed", "poisson", "uniform"],
        default="closed",
        help="traffic model: closed-loop batches (default) or open-loop arrivals",
    )
    sub.add_argument(
        "--rate",
        type=float,
        default=8.0,
        help=(
            "open-loop offered load in ops per virtual-time unit — per second "
            "on the live transport (default 8.0)"
        ),
    )
    sub.add_argument(
        "--crashes",
        type=int,
        default=0,
        help="crash one non-writer replica of this many distinct shards mid-run (sim only)",
    )
    sub.add_argument(
        "--algorithms",
        default="",
        help=(
            "comma-separated register algorithms mapped round-robin onto shards "
            "(mixed-algorithm store; overrides --algorithm; sim only)"
        ),
    )
    sub.add_argument(
        "--no-coalesce",
        action="store_true",
        dest="no_coalesce",
        help="disable same-instant message coalescing (one heap event per message; sim only)",
    )
    sub.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="alias for --replication (replica count per shard / live cluster size)",
    )
    sub.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        dest="slo_p99",
        help=(
            "fail the run when the p99 latency exceeds this — virtual-time units, "
            "seconds on the live transport (default: report only, no gate)"
        ),
    )
    sub.set_defaults(handler=cmd_store, build_spec=_store_spec)

    sub = subparsers.add_parser(
        "chaos",
        help="sweep seeds x fault schedules (partitions, storms) and verify every run",
    )
    _add_shared_arguments(sub, quick=False, out_dir=".", workers=1)
    sub.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="number of seeds per schedule (default: 2 quick, 3 full)",
    )
    sub.set_defaults(handler=cmd_chaos, build_spec=_chaos_cells)

    sub = subparsers.add_parser(
        "consensus",
        help="run a consensus-object scenario and gate on the SMR checker + invariants",
    )
    sub.add_argument(
        "--scenario",
        default="consensus_smoke",
        choices=["consensus_smoke", "kv_cas", "kv_counter"],
        help="which consensus scenario to run (default consensus_smoke)",
    )
    _add_shared_arguments(
        sub, keys=None, ops=None, algorithm="", seed=None, transport="sim", workers=1
    )
    sub.set_defaults(handler=cmd_consensus, build_spec=_consensus_spec)

    sub = subparsers.add_parser(
        "explore",
        help="schedule exploration: search schedules, check every run, shrink violations",
    )
    sub.add_argument(
        "--strategy",
        default="random-walk",
        choices=["random-walk", "crash-sweep", "partition-sweep"],
        help="schedule search strategy (default random-walk)",
    )
    sub.add_argument("--budget", type=int, default=20, help="schedules to explore (default 20)")
    # --algorithm also accepts explorer mutants such as abd-sloppy-write
    # (installed on demand), hence no restriction to the registry here.
    _add_shared_arguments(
        sub,
        seed=0,
        algorithm="abd",
        keys=6,
        ops=80,
        read_fraction=0.75,
        shards=2,
        replication=3,
        quick=False,
        out_dir=".",
        workers=1,
    )
    sub.add_argument(
        "--op-mix",
        default="",
        dest="op_mix",
        help=(
            "weighted operation mix, e.g. 'read=0.5,cas=0.5' (kinds: read, "
            "write, cas, tas, incr).  Defaults to read/write via "
            "--read-fraction; SMR algorithms default to a cas-heavy mix"
        ),
    )
    sub.add_argument(
        "--perturb-rate",
        type=float,
        default=0.5,
        dest="perturb_rate",
        help="fraction of messages perturbed per schedule (default 0.5)",
    )
    sub.add_argument(
        "--perturb-amplitude",
        type=float,
        default=4.0,
        dest="perturb_amplitude",
        help="delay multipliers drawn from [0.05, 1 + amplitude] (default 4.0)",
    )
    sub.add_argument(
        "--expect-violation",
        action="store_true",
        dest="expect_violation",
        help="mutation test: exit 0 only if a violation is found, shrunk and replayed",
    )
    sub.add_argument(
        "--replay",
        default="",
        help="replay a counterexample artifact instead of exploring",
    )
    sub.set_defaults(handler=cmd_explore)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Keyed commands register a ``build_spec`` (flags → spec); building it here
    makes "invalid parameters" one decision: any ``ValueError`` from a flag
    check or from the spec's own validation prints its text and exits 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "build_spec"):
        try:
            args.spec = args.build_spec(args)
        except ValueError as exc:
            print(f"invalid {args.command} parameters: {exc}", file=sys.stderr)
            return 2
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
