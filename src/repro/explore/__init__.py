"""Schedule exploration: systematic search for atomicity-violating executions.

The paper's claim is atomicity under *every* legal asynchronous crash-prone
execution; seeded workload runs only ever visit the schedules their delay
models happen to produce.  This package searches the schedule space
deliberately and keeps the checker in the loop:

* :class:`~repro.explore.strategies.ScheduleStrategy` — pluggable schedule
  search over one schedule adversary, a seeded delivery chooser
  (:mod:`repro.explore.chooser`) that picks which message in flight each
  delivery slot delivers: alone (``random-walk``), with crash-coordinate
  sweeps (``crash-sweep``) and with healing-partition boundary sweeps
  (``partition-sweep``, reusing :mod:`repro.faults`); ``faults`` sweeps
  named fault plans x seeds instead, each plan with its own workload;
* every explored execution gets the whole run verdict: a clean finish,
  the scalable Wing–Gong linearizability checker
  (:mod:`repro.verification.linearizability`) per key
  (P-compositionality), and the consensus agreement/validity audit;
* a violation is **shrunk** by delta debugging
  (:mod:`repro.explore.shrink`) to a minimal operation script + fault
  plan + crash points + delivery choice set, and serialized as a strict-JSON
  **replayable artifact** (``repro explore --replay file``);
* :mod:`repro.explore.mutations` provides intentionally faulty register
  variants so the find→shrink→replay pipeline is itself mutation-tested.

Entry points: :func:`run_exploration` (and the ``repro explore`` CLI).
"""

from repro.explore.case import CaseOp, ExploreCase, run_case
from repro.explore.chooser import DeliveryChooser, RandomChooser, ReplayChooser
from repro.explore.config import ExploreConfig
from repro.explore.explorer import (
    Counterexample,
    ExploreReport,
    ReplayResult,
    replay_artifact,
    run_exploration,
    write_artifact,
)
from repro.explore.mutations import available_mutations, install_mutations
from repro.explore.shrink import ddmin, shrink_case
from repro.explore.strategies import (
    STRATEGIES,
    ScheduleStrategy,
    available_strategies,
    build_strategy,
)

__all__ = [
    "CaseOp",
    "Counterexample",
    "DeliveryChooser",
    "ExploreCase",
    "ExploreConfig",
    "ExploreReport",
    "RandomChooser",
    "ReplayChooser",
    "ReplayResult",
    "STRATEGIES",
    "ScheduleStrategy",
    "available_mutations",
    "available_strategies",
    "build_strategy",
    "ddmin",
    "install_mutations",
    "replay_artifact",
    "run_case",
    "run_exploration",
    "shrink_case",
    "write_artifact",
]
