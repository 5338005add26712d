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
    python -m repro.cli explore --strategy faults  # fault plans x seeds, every run judged

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
from repro.faults import CrashPoint, random_crash_points
from repro.registers.registry import available_algorithms
from repro.sim.delays import FixedDelay, UniformDelay
from repro.workloads.kv import run_kv_workload
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
        metavar="N",
        help="inject at most N random reader crashes: a seeded count from 0 to N (writer is spared)",
    )


def _delay_model(name: str, seed: int):
    if name == "uniform":
        return UniformDelay(0.1, 2.0, seed=seed)
    return FixedDelay(1.0)


def _spec_from_args(args: argparse.Namespace, algorithm: str) -> WorkloadSpec:
    if args.crashes < 0:
        raise ValueError(f"--crashes must be non-negative, got {args.crashes}")
    crash_points = ()
    if args.crashes:
        crash_points = random_crash_points(
            args.n, seed=args.seed, max_crashes=args.crashes, horizon=20.0, exclude=(0,)
        )
    return WorkloadSpec(
        n=args.n,
        algorithm=algorithm,
        num_writes=args.writes,
        reads_per_reader=args.reads,
        delay_model=_delay_model(args.delay, args.seed),
        crash_points=crash_points,
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
    spec = args.spec
    result = run_workload(spec)
    verdict = result.verify()
    lead = [
        ["mean write latency", _mean_latency(result, "write", 3)],
        ["mean read latency", _mean_latency(result, "read", 3)],
    ]
    if result.monitor is not None:
        lead.append(["lemma invariants", "ok" if result.monitor.report.ok else "VIOLATED"])
    title = f"{args.algorithm} on n={args.n} ({spec.total_operations()} operations)"
    return report_run(
        format_run(result.summary(verdict), title, lead), verdict.failures, "register run"
    )


#: The algorithms ``repro compare`` runs the one workload under.
_COMPARED = ("two-bit", "abd", "abd-bounded-emulation")


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the same workload under every executable algorithm and compare."""
    rows = []
    failures = []
    for algorithm, spec in zip(_COMPARED, args.spec):
        result = run_workload(spec)
        verdict = result.verify()
        failures.extend(f"{algorithm}: {failure}" for failure in verdict.failures)
        rows.append(
            [
                algorithm,
                result.total_messages(),
                result.stats.max_control_bits,
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
# store / consensus are the same pipeline:
# flags -> spec (a ``_*_spec`` builder; any ValueError it or the spec's own
# validation raises is exit status 2, decided once in :func:`main`) ->
# ``run_kv_workload`` -> ``result.verify()`` ->
# ``format_run(result.summary(verdict))`` -> :func:`report_run` (0 or 1).
# Nothing below knows which backend executed a run.


def _crash_points(args: argparse.Namespace) -> tuple:
    """``--crashes N``: one non-writer replica of N distinct shards, seeded
    (the spec checks them against the replication)."""
    from repro.sim.rng import make_rng

    if args.crashes < 0:
        raise ValueError(f"--crashes must be non-negative, got {args.crashes}")
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
        changes["crash_points"] = _crash_points(args)
    builder = kv_zipfian if args.dist == "zipfian" else kv_uniform
    return builder(
        num_keys=args.keys,
        num_ops=args.ops,
        read_fraction=args.read_fraction,
        algorithm=args.algorithm,
        num_shards=args.shards,
        replication=args.replication,
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
    checks every key's history against the SMR specification, and verifies
    the protocol-level agreement and validity invariants off every
    replica's decided slots, on any backend.  Exit 0 only if everything
    holds.
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


def _explore_config(args: argparse.Namespace):
    """``repro explore`` flags → :class:`~repro.explore.ExploreConfig`."""
    from repro.explore import ExploreConfig, available_mutations, mutant_registered
    from repro.registers.registry import get_algorithm

    with mutant_registered(args.algorithm):
        if args.algorithm not in available_algorithms():
            raise ValueError(
                f"unknown algorithm {args.algorithm!r}; available: {available_algorithms()} "
                f"and the mutants {available_mutations()} (installed on demand)"
            )
        smr = get_algorithm(args.algorithm).spec == "smr"
    try:
        op_mix = tuple(
            (kind.strip(), float(weight))
            for kind, _, weight in (
                entry.partition("=") for entry in args.op_mix.split(",") if entry.strip()
            )
        ) or None
    except ValueError as exc:
        raise ValueError(f"--op-mix {args.op_mix!r}: {exc}") from None
    if smr and op_mix is None:
        # Consensus objects: explore the kinds whose results the SMR spec
        # constrains, starting from an empty store so cas chains from "unset".
        op_mix = (("read", 0.40), ("cas", 0.40), ("write", 0.20))
    return ExploreConfig(
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
        workers=args.workers,
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

    from repro.explore import replay_artifact, run_exploration, write_artifact

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

    config = args.spec
    try:
        report = run_exploration(config)
    except ValueError as exc:  # a strategy's own check (crash-sweep's replication)
        print(f"invalid explore parameters: {exc}", file=sys.stderr)
        return 2

    rows = [
        ["strategy", config.strategy],
        ["schedules explored", report.cases_run],
        ["operations checked", report.operations_checked],
        ["checker states explored", report.states_explored],
        ["violations found", len(report.counterexamples)],
        ["first case reproducible", "yes" if report.reproducible else "NO"],
        ["wall seconds", round(report.wall_seconds, 2)],
    ]
    subject = "the plans' own workloads" if config.strategy == "faults" else args.algorithm
    title = f"explore: {subject}, budget {config.budget}, seed {config.seed}"
    lines = [format_table(["metric", "value"], rows, title=title)]
    out_dir = pathlib.Path(args.out_dir)
    failures = [] if report.reproducible else ["the first case did not reproduce record-by-record"]
    for index, example in enumerate(report.counterexamples, start=1):
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"explore_counterexample_{index}.json"
        write_artifact(example, path)
        lines.append(
            f"\ncounterexample #{index}: {len(example.original_case.ops)} ops shrunk to "
            f"{example.op_count} (delivery choices {len(example.original_case.choices)} -> "
            f"{len(example.case.choices)}), keys {example.failing_keys}"
        )
        lines.extend(f"  - {violation}" for violation in example.violations)
        lines.append(f"  artifact: {path} (replayed: {'yes' if example.replayed else 'NO'})")
        if not example.replayed:
            failures.append(f"non-replayable artifact {path}")
    if args.expect_violation and not report.counterexamples:
        failures.append(
            "expected the explorer to find a violation (mutation test), "
            "but every explored schedule passed the run verdict"
        )
    elif report.counterexamples and not args.expect_violation:
        failures.append(f"{len(report.counterexamples)} violating execution(s) found")
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
    sub.set_defaults(handler=cmd_run, build_spec=lambda args: _spec_from_args(args, args.algorithm))

    sub = subparsers.add_parser("compare", help="run the same workload under every executable algorithm")
    _add_common_workload_arguments(sub)
    sub.set_defaults(
        handler=cmd_compare,
        build_spec=lambda args: [_spec_from_args(args, name) for name in _COMPARED],
    )

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
        help="crash one non-writer replica of this many distinct shards mid-run (either transport)",
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
        choices=["random-walk", "crash-sweep", "partition-sweep", "faults"],
        help=(
            "schedule search strategy (default random-walk); `faults` sweeps the "
            "named fault plans x seeds, and its plans carry their own workloads, "
            "so the workload flags do not apply to it"
        ),
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
    sub.set_defaults(handler=cmd_explore, build_spec=_explore_config)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Commands that run a workload register a ``build_spec`` (flags → spec);
    building it here makes "invalid parameters" one decision: any
    ``ValueError`` from a flag check or from the spec's own validation
    prints its text and exits 2.
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
