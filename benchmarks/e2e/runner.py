"""One run of one workload: set-up, warm-up, timed repetitions, optional trace.

A run = ``setups`` timed set-ups (the last one is kept) + one discarded
warm-up repetition + R timed repetitions of a fixed operation count, with a
reading of the box's speed (:mod:`calibrate`) before each of them and after
the last.  Repetition *i* uses seed ``1000 * S + i``, so runs with adjacent
``--seed`` values share no inputs.  ``--seconds`` is turned into R with the
workload's nominal repetition time — never into a deadline — so the same
command line always executes the same operations and the exact metrics
repeat.

End-to-end metrics come from the untraced repetitions only (see
:func:`_reported` for how a sample becomes the reported number).  With
tracing on, one more repetition at the first repetition's seed runs under
:func:`trace.tracing`; its spans are written to the output directory and
give the per-layer metrics, and its wall time against its untraced twin
gives ``bench.trace_overhead_frac``.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import live
from .calibrate import Speedometer
from .catalog import END_TO_END, EXACT
from .layers import layer_metrics, rate_steps
from .stats import summarize
from .trace import SpanRecorder, table_from, tracing, write_spans
from .workloads import SIM_WORKLOADS, Repetition, Row, Workload

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in SIM_WORKLOADS + live.LIVE_WORKLOADS
}

#: Set-ups per run.  Building a simulated deployment takes two milliseconds,
#: which a collector pause or a cold cache moves by a quarter, so it is
#: repeated more often.
SETUPS = {"sim": 21, "check": 3, "live": 3}
_WARMUP = 999


def rep_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def repetitions_for(workload: Workload, seconds: float) -> int:
    return max(3, round(seconds / workload.nominal_rep_seconds))


@dataclass
class RunResult:
    workload: str
    seed: int
    ops_per_rep: int
    attempted: int = 0
    failed: int = 0
    gate_failures: List[str] = field(default_factory=list)
    #: End-to-end metrics: name -> {value, unit, normalised, raw_median,
    #: repetitions: {median, q1, q3, n}}.
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Median speed reading of the run over the reference box's quiet one.
    box_slowdown: float = 1.0
    #: Per-layer metrics of the traced repetition (empty without --trace).
    layers: Dict[str, float] = field(default_factory=dict)
    spans_path: Optional[str] = None

    @property
    def correct(self) -> bool:
        return not self.gate_failures and self.failed == 0

    def count(self, rep: Repetition, label: str) -> None:
        self.attempted += rep.attempted
        self.failed += rep.failed
        if rep.gate_failure:
            self.gate_failures.append(f"{label}: {rep.gate_failure}")


def _at_reference_speed(metric: Any, value: float, slowdown: float) -> float:
    """A value read while the box ran ``slowdown`` times slower, as the quiet box reads it."""
    return value * slowdown if metric.unit == "1/s" else value / slowdown


def _reported(metric: Any, sample: List[float], normalised: bool) -> float:
    """One number per run and metric.

    Counts and virtual-time numbers are exact for a seed, and a wall-clock
    number at reference speed has had the box's slow spells divided out: the
    median over the repetitions is reported.  A raw wall-clock number (the
    live plane's) has not, and contention only ever slows a repetition down,
    so the *best* repetition is reported — the statistic of the sample that
    repeats best from run to run (README, "What is reported from the
    repetitions").  The median and quartiles are kept beside it.
    """
    if normalised or metric.name in EXACT:
        return statistics.median(sample)
    return max(sample) if metric.better == "higher" else min(sample)


def _peak_rss_mb(state: Any) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + (state.peak_replica_rss_mb if isinstance(state, live.LiveState) else 0.0)


def _timed(workload: Workload, state: Any, seed: int, ops: int, recorder: Any = None):
    t0 = time.perf_counter()
    rep = workload.repetition(workload, state, seed, ops, recorder)
    return rep, time.perf_counter() - t0


def _traced_pass(
    workload: Workload,
    state: Any,
    result: RunResult,
    ops: int,
    out_dir: str,
    envelope: Dict[str, Any],
):
    """The traced repetition (and, on ``live_rates``, the higher offered rates).

    Returns ``(repetition, its wall seconds, span table, rate steps)``.
    """
    seed = rep_seed(result.seed, 0)
    steps: Dict[float, live.Drive] = {}
    if workload.name == "live_rates":
        # Untraced: only the ledger reads them.
        state.repetitions += 1
        for rate in live.EXTRA_RATES:
            stream = live.operations(seed, 2 * ops, f"r{state.repetitions}x{int(rate)}")
            steps[rate] = state.loop.run_until_complete(live.drive(state, stream, rate, seed))
    recorder = SpanRecorder()
    with tracing(recorder):
        with recorder.span("repetition"):
            traced, traced_wall = _timed(workload, state, seed, ops, recorder)
    table = table_from(
        recorder,
        {
            "workload": workload.name,
            "seed": result.seed,
            "ops": ops,
            "envelope": envelope,
            "stale_replies": sum(recorder.false_returns.values()),
        },
    )
    os.makedirs(out_dir, exist_ok=True)
    result.spans_path = os.path.join(out_dir, f"spans-{workload.name}-{result.seed}.bin")
    write_spans(result.spans_path, table)
    result.count(traced, "traced repetition")
    return traced, traced_wall, table, steps


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool = False,
    trace: bool = False,
    out_dir: str = "bench-out",
    envelope: Optional[Dict[str, Any]] = None,
    repetitions: Optional[int] = None,
) -> RunResult:
    workload = WORKLOADS[name]
    ops = workload.ops_for(smoke)
    if repetitions is None:
        repetitions = 2 if smoke else repetitions_for(workload, seconds)
    setups = 1 if smoke else SETUPS[workload.plane]
    result = RunResult(workload=name, seed=seed, ops_per_rep=ops)

    speed = Speedometer()
    setup_seconds: List[float] = []
    setup_sections: List[int] = []
    rows: List[Row] = []
    row_sections: List[int] = []
    traced_pass = None
    state: Any = None
    built = False  # ``state`` holds a deployment that has not been discarded
    try:
        for index in range(setups):
            if built:
                built = False
                workload.discard(state)
            setup_sections.append(speed.tick())
            t0 = time.perf_counter()
            state = workload.setup(workload, rep_seed(seed, index), ops)
            built = True
            setup_seconds.append(time.perf_counter() - t0)
        speed.tick()  # ends the last set-up; nobody reads the warm-up's section
        workload.repetition(workload, state, rep_seed(seed, _WARMUP), ops)
        first: Optional[Repetition] = None
        first_wall = 0.0
        for index in range(repetitions):
            row_sections.append(speed.tick())
            rep, wall = _timed(workload, state, rep_seed(seed, index), ops)
            result.count(rep, f"repetition {index}")
            rows.append(rep.row)
            if index == 0 and trace:
                first, first_wall = rep, wall  # the traced repetition's untraced twin
            else:
                rep.detail = None  # a finished store would only slow the collector down
        speed.tick()
        if trace:
            traced_pass = _traced_pass(workload, state, result, ops, out_dir, envelope or {})
        peak_rss = _peak_rss_mb(state)
    finally:
        # Every path out stops every process the run started and waits for it.
        try:
            if built:
                workload.discard(state)
        finally:
            if workload.plane == "live":
                live.stop_helper_processes()

    result.box_slowdown = speed.median_slowdown()
    for metric in END_TO_END:
        if metric.name == "setup_s":
            raw, sections = setup_seconds, setup_sections
        elif metric.name == "peak_rss_mb":
            raw, sections = [peak_rss], []
        else:
            raw, sections = [row[metric.name] for row in rows], row_sections
        normalised = metric.name in workload.normalised
        sample = raw
        if normalised:
            sample = [
                _at_reference_speed(metric, value, speed.slowdown(section))
                for value, section in zip(raw, sections)
            ]
        result.metrics[metric.name] = {
            "value": _reported(metric, sample, normalised),
            "unit": metric.unit,
            "normalised": normalised,
            "raw_median": statistics.median(raw),
            "repetitions": summarize(sample),
        }
    if traced_pass is not None:
        # After discard: the ledger reports how long the cluster took to stop.
        traced, traced_wall, table, steps = traced_pass
        result.layers = layer_metrics(
            workload, first_wall, traced_wall, first, traced, table, state
        )
        result.layers["bench.box_slowdown"] = result.box_slowdown
        if steps:
            rate_steps(result.layers, steps, first.detail["run"])
    return result
