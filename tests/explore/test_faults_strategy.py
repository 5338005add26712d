"""The ``faults`` strategy: named fault plans x seeds, each case judged in full.

``pinned_faults.json`` holds, per (plan, seed) cell, what the retired
``repro chaos`` full sweep (seeds 0-2) measured: completed, failed, atomic,
virtual makespan, messages and ``per_sender``.  The faults strategy must
reproduce every cell.  The file is the equivalence record of that move and
is never regenerated; a drift here is a change to the runs the plans
describe.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.explore import ExploreCase, ExploreConfig, build_strategy, run_case, run_exploration
from repro.explore import explorer
from repro.explore.strategies import FAULT_SCHEDULES

PINS_PATH = pathlib.Path(__file__).with_name("pinned_faults.json")


def faults_cases(budget, seed=0):
    return list(build_strategy(ExploreConfig(strategy="faults", budget=budget, seed=seed)).cases())


def explore_out(capsys, *flags):
    """``repro explore --strategy faults`` stdout, its wall-time row dropped."""
    assert main(["explore", "--strategy", "faults", *flags]) == 0
    out = capsys.readouterr().out
    return "\n".join(line for line in out.splitlines() if not line.startswith("wall seconds"))


class TestPinnedChaosCells:
    def test_budget_18_reproduces_every_pinned_cell(self):
        pinned = {
            f"{cell['schedule']}/seed={cell['seed']}": {
                field: cell[field]
                for field in (
                    "completed", "failed", "atomic", "virtual_makespan", "messages", "per_sender"
                )
            }
            for cell in json.loads(PINS_PATH.read_text())["cells"]
        }
        observed = {}
        for case, chooser in faults_cases(18):
            assert chooser is None, "a faults case runs with no delivery picks"
            outcome = run_case(case)
            store = outcome.store
            assert outcome.ok, outcome.violations()
            observed[case.name] = {
                "completed": len(store.completed_ops()),
                "failed": len(store.failed_ops()),
                "atomic": outcome.report.ok,
                "virtual_makespan": round(store.simulator.now, 3),
                "messages": store.total_messages(),
                "per_sender": {str(pid): sent for pid, sent in store.stats.per_sender.items()},
            }
        assert observed == pinned

    def test_the_budget_18_sweep_is_green(self):
        report = run_exploration(ExploreConfig(strategy="faults", budget=18))
        assert report.ok and report.cases_run == 18


class TestFaultsSweep:
    def test_quick_sweep_is_green(self, capsys, tmp_path):
        out = explore_out(capsys, "--quick", "--out-dir", str(tmp_path))
        assert "strategy                | faults" in out
        assert "schedules explored      | 8" in out
        assert "first case reproducible | yes" in out
        assert not list(tmp_path.glob("explore_counterexample_*.json"))

    def test_cases_are_strict_json_and_round_trip(self):
        def forbid(name):
            raise AssertionError(f"non-finite JSON constant {name!r}")

        for case, _ in faults_cases(len(FAULT_SCHEDULES)):
            text = case.to_json()
            json.loads(text, parse_constant=forbid)
            assert ExploreCase.from_json(text) == case

    def test_the_budget_sets_the_width_seed_major(self, capsys, tmp_path):
        names = [case.name for case, _ in faults_cases(8, seed=5)]
        plans = [name for name, _ in FAULT_SCHEDULES]
        assert names == [f"{plan}/seed=5" for plan in plans] + [
            f"{plan}/seed=6" for plan in plans[:2]
        ]
        out = explore_out(capsys, "--budget", "3", "--out-dir", str(tmp_path))
        assert "schedules explored      | 3" in out

    def test_every_plan_carries_its_faults(self):
        for case, _ in faults_cases(len(FAULT_SCHEDULES)):
            assert case.fault_plan or case.crash_points, case.name

    def test_output_is_identical_across_runs_and_worker_counts(self, capsys, tmp_path):
        flags = ("--budget", "6", "--out-dir", str(tmp_path))
        first = explore_out(capsys, *flags)
        assert explore_out(capsys, *flags) == first
        assert explore_out(capsys, *flags, "--workers", "2") == first


class TestReproducibilityProbe:
    def test_a_drifting_first_case_fails_the_sweep(self, monkeypatch, capsys, tmp_path):
        real = explorer._explore_case_main

        def drifting(payload):
            summary = real(payload)
            if summary["signature"] is not None:
                summary["signature"] = summary["signature"][1:]
            return summary

        monkeypatch.setattr(explorer, "_explore_case_main", drifting)
        report = run_exploration(ExploreConfig(strategy="faults", budget=2))
        assert not report.reproducible and not report.ok
        code = main(["explore", "--strategy", "faults", "--budget", "2", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "did not reproduce record-by-record" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["random-walk", "crash-sweep", "partition-sweep"])
    def test_the_probe_passes_under_delivery_picks(self, strategy):
        config = ExploreConfig(strategy=strategy, budget=2, num_keys=4, num_ops=48)
        assert run_exploration(config).reproducible
