"""The schedule explorer: search, check, shrink, serialize, replay.

:func:`run_exploration` drives the loop the subsystem exists for:

1. the configured :class:`~repro.explore.strategies.ScheduleStrategy`
   yields seeded schedules (chosen deliveries, alone or with crash or
   partition sweeps, or the named fault plans) over their keyed workloads;
2. every explored execution gets the run verdict of :func:`run_case`: a
   clean finish, the per-key linearizability checker (Wing–Gong on every
   key — the explorer is the checker's adversarial test harness, so no fast
   paths) and the consensus audit;
3. a violating execution is **shrunk** (:mod:`repro.explore.shrink`) to a
   minimal case, re-verified, and wrapped in a strict-JSON
   **counterexample artifact** that replays standalone
   (``repro explore --replay file`` / :func:`replay_artifact`);
4. before reporting, the explorer replays the artifact through its own
   JSON round-trip and confirms the violation reproduces — a
   non-replayable artifact is itself a failure;
5. the first case is re-run in this process and must reproduce its
   verdict and its operation records exactly — with ``workers > 1`` a
   cross-process determinism probe.

Determinism: same config, same schedules, same violations, same shrunken
artifact, byte for byte.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Union

from repro.explore.case import CaseOutcome, ExploreCase, materialize_schedule, run_case
from repro.explore.config import ExploreConfig
from repro.explore.shrink import shrink_case
from repro.explore.strategies import build_strategy
from repro.parallel.pool import run_chunked

#: Artifact file format marker.
ARTIFACT_FORMAT = "repro-explore-counterexample"
ARTIFACT_VERSION = 1


@dataclass
class Counterexample:
    """A shrunken, replay-verified atomicity violation."""

    case: ExploreCase
    original_case: ExploreCase
    failing_keys: List[Any]
    violations: List[str]
    #: Serialized per-key histories of the shrunken run (diagnostics).
    histories: Dict[str, Any] = field(default_factory=dict)
    replayed: bool = False

    @property
    def op_count(self) -> int:
        """Operations in the shrunken reproducer."""
        return len(self.case.ops)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "case": self.case.to_dict(),
            "original_ops": len(self.original_case.ops),
            "original_choices": len(self.original_case.choices),
            "expected": {
                "failing_keys": [str(key) for key in self.failing_keys],
                "violations": list(self.violations),
            },
            "histories": self.histories,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True, allow_nan=False) + "\n"


@dataclass
class ExploreReport:
    """Outcome of one exploration run."""

    config: ExploreConfig
    cases_run: int = 0
    operations_checked: int = 0
    states_explored: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: The first case, re-run in this process, gave the same verdict and
    #: the same operation records.
    reproducible: bool = True

    @property
    def ok(self) -> bool:
        """True when no violation was found and the first case reproduced
        (what CI asserts on healthy algorithms)."""
        return not self.counterexamples and self.reproducible


def _build_counterexample(
    config: ExploreConfig, original: ExploreCase, shrunken: ExploreCase
) -> Counterexample:
    outcome = run_case(shrunken, check_max_states=config.check_max_states)
    failing = outcome.failing_keys()
    example = Counterexample(
        case=shrunken,
        original_case=original,
        failing_keys=failing,
        violations=outcome.violations(),
        histories={
            str(key): history.to_dict()
            for key, history in outcome.store.histories().items()
            if key in failing
        },
    )
    # Replayability is part of the contract: round-trip the artifact through
    # JSON and confirm the violation reproduces from the parsed form.
    replay = replay_artifact_payload(json.loads(example.to_json()), config.check_max_states)
    example.replayed = replay.reproduced
    return example


def _record_signature(outcome: CaseOutcome) -> List[tuple]:
    """Record-by-record fingerprint of a run's operations."""
    return [
        (op.op_id, op.kind.value, op.key, op.value, op.failed, op.pid)
        + (op.invoked_at, op.responded_at, repr(op.result))
        for op in outcome.store.ops
    ]


def _explore_case_main(payload) -> Dict[str, Any]:
    """Run one explored case and summarize it (module-level for spawn).

    Returns only what the sweep's accounting needs: the verdict, the checker
    counts, the case with its recorded delivery choices embedded —
    replaying those re-runs this exact execution, so materialization,
    shrinking and artifact building work from the summary alone — and, when
    asked, the run's record signature for the reproducibility probe.
    """
    case, chooser, check_max_states, want_signature = payload
    outcome = run_case(case, chooser=chooser, check_max_states=check_max_states)
    return {
        "ok": outcome.ok,
        "violations": outcome.violations(),
        "operations_checked": outcome.report.operations_checked,
        "states_explored": outcome.report.states_explored,
        "case": case if chooser is None else case.with_(choices=tuple(chooser.entries)),
        "signature": _record_signature(outcome) if want_signature else None,
    }


def run_exploration(config: ExploreConfig) -> ExploreReport:
    """Explore ``config.budget`` schedules; shrink and package any violation.

    Every case is summarized by :func:`_explore_case_main` — lazily in
    process at ``workers=1`` (the sweep stops at the last counterexample it
    keeps), on the :mod:`repro.parallel` pool above that.  A violating case
    is then re-run from its recorded choices, materialized, shrunk and
    packaged serially, so every worker count gives the same counts and the
    same counterexamples, byte for byte.  Last, the first case is re-run
    here from its recorded choices: its verdict and record signature must
    match the summary's (``report.reproducible``).
    """
    strategy = build_strategy(config)
    report = ExploreReport(config=config)
    started = time.perf_counter()
    payloads = (
        (case, chooser, config.check_max_states, index == 0)
        for index, (case, chooser) in enumerate(islice(strategy.cases(), config.budget))
    )
    summaries = (
        run_chunked(_explore_case_main, list(payloads), config.workers)
        if config.workers > 1
        else map(_explore_case_main, payloads)
    )
    first = None
    for summary in summaries:
        first = first or summary
        report.cases_run += 1
        report.operations_checked += summary["operations_checked"]
        report.states_explored += summary["states_explored"]
        if summary["ok"]:
            continue
        # Materialize the schedule so the case is position-independent:
        # explicit arrival times, pinned read routing.  Then minimize it.
        outcome = run_case(summary["case"], check_max_states=config.check_max_states)
        concrete = materialize_schedule(summary["case"], outcome)
        shrunken = shrink_case(
            concrete,
            lambda candidate: not run_case(candidate, check_max_states=config.check_max_states).ok,
            focus_keys=[str(key) for key in outcome.failing_keys()],
        )
        report.counterexamples.append(_build_counterexample(config, concrete, shrunken))
        if len(report.counterexamples) >= config.max_counterexamples > 0:
            break
    if first is not None:
        probe = run_case(first["case"], check_max_states=config.check_max_states)
        report.reproducible = (
            probe.violations() == first["violations"]
            and _record_signature(probe) == first["signature"]
        )
    report.wall_seconds = time.perf_counter() - started
    return report


# --------------------------------------------------------------------- replay


@dataclass
class ReplayResult:
    """Outcome of replaying a counterexample artifact."""

    case: ExploreCase
    reproduced: bool
    failing_keys: List[str]
    expected_keys: List[str]
    violations: List[str]


def replay_artifact_payload(
    payload: Dict[str, Any], check_max_states: int = 1_000_000
) -> ReplayResult:
    """Replay a parsed artifact; ``reproduced`` means the same keys fail again."""
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"not a {ARTIFACT_FORMAT} artifact (format={payload.get('format')!r})"
        )
    if payload.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported artifact version {payload.get('version')!r} "
            f"(this build reads version {ARTIFACT_VERSION})"
        )
    case = ExploreCase.from_dict(payload["case"])
    expected_keys = sorted(payload.get("expected", {}).get("failing_keys", []))
    outcome = run_case(case, check_max_states=check_max_states)
    failing = sorted(str(key) for key in outcome.failing_keys())
    return ReplayResult(
        case=case,
        reproduced=bool(failing) and failing == expected_keys,
        failing_keys=failing,
        expected_keys=expected_keys,
        violations=outcome.violations(),
    )


def replay_artifact(
    path: Union[str, "pathlib.Path"], check_max_states: int = 1_000_000
) -> ReplayResult:
    """Load a counterexample artifact from ``path`` and replay it."""
    text = pathlib.Path(path).read_text()
    return replay_artifact_payload(json.loads(text), check_max_states)


def write_artifact(example: Counterexample, path: Union[str, "pathlib.Path"]) -> None:
    """Write a counterexample artifact (strict JSON) to ``path``."""
    pathlib.Path(path).write_text(example.to_json())
