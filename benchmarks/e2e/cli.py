"""Command line of the benchmark: ``run``, ``compare``, ``report``.

``python -m benchmarks.e2e run`` is the command for people: it runs the
chosen workloads, prints every metric by name with unit, median, quartiles
and sample count, and writes ``<out>/summary.json``.  ``contract_main`` is
the same run behind the one-workload command line ``BENCHMARK.json`` names
(``benchmarks/e2e/run.py``); it ends with the single JSON line the driver
reads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Any, Dict, Optional, Sequence

from . import catalog
from .stats import envelope, load_warning, spread, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Seconds of timed repetitions per workload when ``--seconds`` is not given
#: (``run_seconds`` of BENCHMARK.json).
DEFAULT_SECONDS = 12.0


def _runner():
    """Import the part that needs ``src/repro`` only when a run is asked for."""
    from . import runner

    return runner


def _format(value: float) -> str:
    return f"{value:.6g}"


def _print_result(result: Any) -> None:
    verdict = "ok" if result.correct else "FAILED"
    print(
        f"\n== {result.workload}  seed={result.seed}  ops/rep={result.ops_per_rep}  "
        f"attempted={result.attempted}  failed={result.failed}  "
        f"box slowdown={result.box_slowdown:.2f}  [{verdict}]"
    )
    for failure in result.gate_failures:
        print(f"   gate: {failure}")
    print(
        f"   {'metric':<20}{'unit':<8}{'reported':>13}   over the repetitions:"
        f"{'median':>12}{'q1':>13}{'q3':>13}{'n':>4}{'raw median':>14}"
    )
    for name, metric in result.metrics.items():
        reps = metric["repetitions"]
        # '*' marks a number at reference speed; its raw median stands beside it.
        mark = "*" if metric["normalised"] else " "
        print(
            f"   {name:<20}{metric['unit']:<8}{_format(metric['value']):>13}{mark}{'':>23}"
            f"{_format(reps['median']):>12}{_format(reps['q1']):>13}{_format(reps['q3']):>13}"
            f"{reps['n']:>4}{_format(metric['raw_median']):>14}"
        )
    if result.layers:
        print(f"   {'per-layer metric (traced repetition)':<48}{'unit':<8}{'value':>14}")
        for name, value in result.layers.items():
            print(f"   {name:<48}{catalog.UNITS[name]:<8}{_format(value):>14}")
        print(f"   spans: {result.spans_path}")


def _summary_entry(results: Sequence[Any]) -> Dict[str, Any]:
    """One workload's entry: every metric summarised over the runs made."""
    first = results[0]
    predictions = {metric.name: metric for metric in catalog.PER_LAYER}
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    metrics = {}
    for name, metric in first.metrics.items():
        values = [result.metrics[name]["value"] for result in results]
        metrics[name] = dict(summarize(values), unit=metric["unit"], values=values)
    return {
        "why": catalog.WORKLOADS[first.workload],
        "correct": all(result.correct for result in results),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "gate_failures": [failure for result in results for failure in result.gate_failures],
        "ops_per_repetition": first.ops_per_rep,
        "seeds": [result.seed for result in results],
        "box_slowdown": [result.box_slowdown for result in results],
        "normalised": [name for name, metric in first.metrics.items() if metric["normalised"]],
        "metrics": metrics,
        "repetitions_of_first_run": {
            name: metric["repetitions"] for name, metric in first.metrics.items()
        },
        "layers": {
            name: {
                "value": value,
                "unit": catalog.UNITS[name],
                "moves": predictions[name].moves,
                "on": list(predictions[name].on),
            }
            for name, value in first.layers.items()
        },
        "spans": first.spans_path,
    }


def cmd_run(args: argparse.Namespace) -> int:
    runner = _runner()
    names = args.workload or list(catalog.WORKLOADS)
    env = envelope(ROOT)
    print(
        f"benchmarks.e2e  git={env['git_sha'][:12]}  nproc={env['nproc']}  "
        f"python={env['python']}  load1={env['load_average_1m']:.2f}"
    )
    warning = load_warning(env)
    if warning:
        print(warning)
    summary: Dict[str, Any] = {
        "envelope": env,
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    ok = True
    for name in names:
        results = []
        for run in range(args.runs):
            result = runner.run_workload(
                name,
                args.seed + run,
                args.seconds,
                smoke=args.smoke,
                trace=args.trace and run == 0,
                out_dir=args.out,
                envelope=env,
            )
            _print_result(result)
            results.append(result)
        summary["workloads"][name] = _summary_entry(results)
        ok = ok and summary["workloads"][name]["correct"]
    # No run of this benchmark claims a gain; a claim is a compare of two runs.
    summary["claim"] = None
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "summary.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {path}")
    return 0 if ok else 1


# ------------------------------------------------------------------- compare


def _verdict(metric: catalog.EndToEnd, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    if a["median"] == 0:
        return "ok" if b["median"] == 0 else "worse"
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse_by = change if metric.better == "lower" else -change
    if max(spread(a), spread(b)) > metric.bound:
        # Too noisy to call, unless B's quartiles clear A's entirely.
        better = b["q3"] < a["q1"] if metric.better == "lower" else b["q1"] > a["q3"]
        return "ok" if better else "unresolved"
    return "worse" if worse_by > metric.bound else "ok"


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)
    for label, summary in (("A", a), ("B", b)):
        warning = load_warning(summary.get("envelope", {}))
        if warning:
            print(f"{label}: {warning}")
    print(
        f"{'workload':<22}{'metric':<20}{'A median':>13}{'A q1..q3':>25}"
        f"{'B median':>13}{'B q1..q3':>25}{'bound':>7}  verdict"
    )
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in catalog.END_TO_END:
            ma, mb = entry_a["metrics"].get(metric.name), entry_b["metrics"].get(metric.name)
            if ma is None or mb is None:
                continue
            verdict = _verdict(metric, ma, mb)
            counts[verdict] += 1
            print(
                f"{name:<22}{metric.name:<20}{_format(ma['median']):>13}"
                f"{_format(ma['q1']) + '..' + _format(ma['q3']):>25}"
                f"{_format(mb['median']):>13}"
                f"{_format(mb['q1']) + '..' + _format(mb['q3']):>25}"
                f"{metric.bound:>7.0%}  {verdict}"
            )
        if entry_b["failed"] > entry_a["failed"]:
            counts["worse"] += 1
            print(f"{name:<22}{'failed':<20}{entry_a['failed']:>13}{'':>25}{entry_b['failed']:>13}{'':>25}{'any':>7}  worse")
    print(
        f"\n{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved "
        "(spread wider than the bound)"
    )
    return 1 if counts["worse"] else 0


# -------------------------------------------------------------------- report


def cmd_report(args: argparse.Namespace) -> int:
    from .trace import ROOT_LAYER, read_spans

    for path in args.spans:
        table = read_spans(path)
        header = table.header
        wall = table.root_seconds()
        print(
            f"\n== {header['workload']}  seed={header['seed']}  ops={header['ops']}  "
            f"spans={len(table)}  traced wall={wall:.4f}s  ({path})"
        )
        warning = load_warning(header.get("envelope", {}))
        if warning:
            print(warning)
        layers = table.layer_self_seconds()
        print(f"   {'layer':<26}{'self s':>12}{'share':>9}")
        for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            label = "(unattributed)" if layer == ROOT_LAYER else layer
            print(f"   {label:<26}{seconds:>12.4f}{seconds / wall:>9.1%}")
        print(f"   {'sum':<26}{sum(layers.values()):>12.4f}{sum(layers.values()) / wall:>9.1%}")
        print(f"   bench.unattributed_frac = {layers.get(ROOT_LAYER, 0.0) / wall:.4f}")
    return 0


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, verify them, print and write every metric")
    run.add_argument("--workload", action="append", choices=list(catalog.WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument(
        "--runs", type=int, default=1, help="runs per workload, seeds S, S+1, ... (compare wants >= 5)"
    )
    run.add_argument("--smoke", action="store_true", help="operation counts divided by ~50")
    run.add_argument("--trace", action="store_true", help="add one traced repetition per workload")
    run.add_argument("--out", default="bench-out")
    run.set_defaults(handler=cmd_run)
    compare = commands.add_parser("compare", help="A/B two summary.json files")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=cmd_compare)
    report = commands.add_parser("report", help="per-layer self-time table of spans files")
    report.add_argument("spans", nargs="+")
    report.set_defaults(handler=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def contract_main(argv: Optional[Sequence[str]] = None) -> int:
    """``--workload W --seed n --seconds s --trace 0|1``; last line is the result."""
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        runner = _runner()
    except ImportError as exc:
        print(f"cannot import the program under test (src/repro): {exc}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    # A terminated run unwinds like a failed one, so the replicas are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = runner.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        trace=traced,
        out_dir="bench-out",
        envelope=envelope(ROOT),
        # The ledger needs one traced repetition and its untraced twin, not
        # a full set of timed repetitions.
        repetitions=2 if traced else None,
    )
    _print_result(result)
    sys.stdout.flush()
    print(json.dumps(contract_result(result, traced)))
    return 0 if result.correct else 1


def contract_result(result: Any, traced: bool) -> Dict[str, Any]:
    """The driver's result object: end-to-end metrics, or per-layer when traced."""
    if traced:
        metrics = {
            name: {"value": value, "unit": catalog.UNITS[name]}
            for name, value in result.layers.items()
        }
    else:
        metrics = {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result.metrics.items()
        }
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
