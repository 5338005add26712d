"""Pinned explorer outputs: what the quick sweeps find, check and write, per strategy.

For each strategy, ``pinned_explore.json`` holds:

* the sha256 of the counterexample artifact ``repro explore --quick
  --algorithm abd-sloppy-write --expect-violation`` writes (the partition
  sweep's artifact holds a fault plan and delivery choices
  together: slots booked at the times the partition gives);
* ``cases_run``, ``operations_checked`` and ``states_explored`` of the
  healthy quick sweep on ``abd`` and ``two-bit``.

A drift is a change to the schedules the explorer visits.  Regenerate (only
if the case matrix itself changes, never to paper over a drift):

    PYTHONPATH=src python -m tests.explore.test_pinned_explore
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from typing import Any, Dict

import pytest

from repro.cli import main
from repro.explore import ExploreConfig, run_exploration

PINS_PATH = pathlib.Path(__file__).with_name("pinned_explore.json")
STRATEGIES = ("random-walk", "crash-sweep", "partition-sweep")
HEALTHY = ("abd", "two-bit")


def _mutant_artifact_sha256(strategy: str) -> str:
    with tempfile.TemporaryDirectory() as out_dir, redirect_stdout(StringIO()):
        code = main(
            [
                "explore", "--quick", "--algorithm", "abd-sloppy-write",
                "--strategy", strategy, "--expect-violation", "--out-dir", out_dir,
            ]
        )
        assert code == 0, f"{strategy}: the mutant was not found, shrunk and replayed"
        artifact = pathlib.Path(out_dir) / "explore_counterexample_1.json"
        return hashlib.sha256(artifact.read_bytes()).hexdigest()


def _healthy_counts(strategy: str, algorithm: str) -> Dict[str, int]:
    # The configuration `repro explore --quick` runs.
    report = run_exploration(
        ExploreConfig(strategy=strategy, algorithm=algorithm, budget=8, num_keys=4, num_ops=48)
    )
    assert report.ok
    return {
        "cases_run": report.cases_run,
        "operations_checked": report.operations_checked,
        "states_explored": report.states_explored,
    }


def _observe(strategy: str) -> Dict[str, Any]:
    return {
        "abd-sloppy-write_artifact_sha256": _mutant_artifact_sha256(strategy),
        **{f"healthy_{algorithm}": _healthy_counts(strategy, algorithm) for algorithm in HEALTHY},
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_quick_sweep_is_pinned(strategy):
    pinned = json.loads(PINS_PATH.read_text())
    assert _observe(strategy) == pinned[strategy]


def regenerate() -> None:
    data = {strategy: _observe(strategy) for strategy in STRATEGIES}
    PINS_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH} ({len(data)} strategies)")


if __name__ == "__main__":
    regenerate()
