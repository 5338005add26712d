"""Differential coverage for the parallel exploration sweep.

The explorer's parallel mode fans independent seeded cases over the process
pool; its contract is the same bit-identity the store engine has — same
counts, same verdicts, and the same shrunken counterexample artifact, byte
for byte.
"""

import pytest

from repro.explore import ExploreConfig, explorer, run_exploration


def summarize(report):
    return {
        "cases_run": report.cases_run,
        "operations_checked": report.operations_checked,
        "states_explored": report.states_explored,
        "artifacts": [example.to_json() for example in report.counterexamples],
        "replayed": [example.replayed for example in report.counterexamples],
    }


class TestParallelExploration:
    def test_healthy_sweep_matches_serial_counts(self):
        config = ExploreConfig(budget=6, seed=0, num_ops=32, num_keys=4)
        serial = summarize(run_exploration(config))
        parallel = summarize(run_exploration(config.with_(workers=2)))
        assert serial == parallel
        assert serial["artifacts"] == []

    def test_mutant_counterexample_is_byte_identical(self):
        config = ExploreConfig(
            algorithm="abd-sloppy-write", budget=10, seed=0, num_ops=48, num_keys=4
        )
        serial = summarize(run_exploration(config))
        parallel = summarize(run_exploration(config.with_(workers=3)))
        assert len(serial["artifacts"]) == 1, "the mutant must be found"
        assert serial == parallel
        assert parallel["replayed"] == [True]

    def test_the_pool_stops_at_the_first_violating_slice(self, monkeypatch):
        config = ExploreConfig(algorithm="abd-sloppy-write", budget=60)
        serial = summarize(run_exploration(config))
        handed = []

        def counting(fn, items, workers):
            handed.append(len(items))
            return run_chunked(fn, items, workers)

        run_chunked = explorer.run_chunked
        monkeypatch.setattr(explorer, "run_chunked", counting)
        parallel = summarize(run_exploration(config.with_(workers=2)))
        assert serial == parallel and serial["cases_run"] == 5
        # The first slice, four cases per worker, holds case 5: the violation.
        assert handed == [8]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ExploreConfig(workers=0)
