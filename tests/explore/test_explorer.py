"""The find -> shrink -> serialize -> replay pipeline, mutation-tested."""

import json

import pytest

from repro.explore import (
    ExploreConfig,
    available_mutations,
    mutant_registered,
    replay_artifact,
    run_exploration,
    write_artifact,
)
from repro.registers.registry import available_algorithms

#: The canonical mutation-test configuration (also what CI's explore job
#: runs): seeded random-walk search over the sloppy-write mutant.
SLOPPY_CONFIG = ExploreConfig(
    strategy="random-walk", budget=20, seed=0, num_ops=60, algorithm="abd-sloppy-write"
)


class TestHealthyAlgorithmsComeBackClean:
    @pytest.mark.parametrize("strategy", ["random-walk", "crash-sweep", "partition-sweep"])
    def test_abd_is_clean_under_every_strategy(self, strategy):
        report = run_exploration(
            ExploreConfig(strategy=strategy, budget=6, seed=0, num_ops=48, num_keys=4)
        )
        assert report.ok
        assert report.cases_run == 6
        # Crash sweeps fail some operations (their reads stay pending and
        # are not relevant to the checker), so <= rather than ==.
        assert 0 < report.operations_checked <= 6 * 48
        assert report.states_explored > 0, "the Wing-Gong engine must actually run"

    def test_two_bit_register_is_clean(self):
        report = run_exploration(
            ExploreConfig(
                strategy="random-walk", budget=4, seed=1, num_ops=32, num_keys=3,
                algorithm="two-bit",
            )
        )
        assert report.ok


class TestMutationTesting:
    def test_sloppy_write_found_shrunk_and_replayed(self):
        report = run_exploration(SLOPPY_CONFIG)
        assert len(report.counterexamples) == 1
        example = report.counterexamples[0]
        # Acceptance bar: a <= 10-operation replayable counterexample.
        assert example.op_count <= 10
        assert example.op_count < len(example.original_case.ops)
        assert len(example.case.choices) <= len(example.original_case.choices)
        assert example.replayed, "artifact must replay through its own JSON round-trip"
        assert example.failing_keys
        assert example.histories, "artifact carries the violating histories"

    def test_shrunken_counterexample_is_stable_across_runs(self):
        first = run_exploration(SLOPPY_CONFIG)
        second = run_exploration(SLOPPY_CONFIG)
        assert first.counterexamples[0].to_json() == second.counterexamples[0].to_json()

    def test_no_writeback_mutant_found_at_replication_five(self):
        # The missing write-back only bites when a read quorum can consist
        # of lagging replicas, which needs replication >= 5 (with n = 3,
        # every 2-quorum contains a fresh replica).
        # The CI step's geometry, seed and budget (found at schedule 21).
        config = ExploreConfig(
            strategy="random-walk", budget=32, seed=8, num_ops=80, num_keys=1,
            num_shards=1, replication=5, algorithm="abd-no-writeback", read_fraction=0.85,
        )
        report = run_exploration(config)
        assert len(report.counterexamples) == 1
        example = report.counterexamples[0]
        assert example.replayed
        assert example.op_count < len(example.original_case.ops)

    def test_the_line9_mutant_is_a_wing_gong_violation_where_two_bit_is_clean(self):
        # Figure 1's line 9 is the two-bit read's write-back: without it a
        # read returns a value fewer than n - t processes hold.  Like the
        # missing ABD write-back it needs lagging quorums (n = 5).  Seed 7
        # finds it within the budget; most seeds do not, so none other is
        # pinned here.
        config = ExploreConfig(
            algorithm="two-bit-no-line9-wait", seed=7, budget=100, num_keys=1,
            num_shards=1, replication=5, num_ops=80, read_fraction=0.85,
        )
        report = run_exploration(config)
        assert len(report.counterexamples) == 1
        example = report.counterexamples[0]
        assert example.replayed
        assert any("wing-gong" in violation for violation in example.violations)
        assert run_exploration(config.with_(algorithm="two-bit")).ok

    def test_the_bare_forward_mutant_is_a_wing_gong_violation_where_two_bit_is_clean(self):
        # A forward is bare only to the processes that hold its value; sent
        # bare to all, a value learned from a forward is recorded as None.
        # The CI step's geometry and seed (found at the first schedule).
        config = ExploreConfig(algorithm="two-bit-bare-forward", seed=0, budget=20)
        report = run_exploration(config)
        assert len(report.counterexamples) == 1
        example = report.counterexamples[0]
        assert example.replayed
        assert any("wing-gong" in violation for violation in example.violations)
        assert run_exploration(config.with_(algorithm="two-bit")).ok

    def test_mutants_stay_out_of_the_default_registry(self):
        from repro.registers.registry import get_algorithm

        for name in available_mutations():
            assert name not in available_algorithms()
            with mutant_registered(name):
                with mutant_registered(name):  # nested: the outer block owns it
                    assert "FAULTY" in get_algorithm(name).description, (
                        f"mutant {name} registered without its FAULTY marker"
                    )
                assert name in available_algorithms()
            assert name not in available_algorithms()


class TestArtifacts:
    def test_artifact_file_round_trip(self, tmp_path):
        report = run_exploration(SLOPPY_CONFIG)
        example = report.counterexamples[0]
        path = tmp_path / "counterexample.json"
        write_artifact(example, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-explore-counterexample"
        result = replay_artifact(path)
        assert result.reproduced
        assert result.failing_keys == sorted(str(k) for k in example.failing_keys)

    def test_replay_rejects_foreign_payloads(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="artifact"):
            replay_artifact(path)

    def test_scenario_registry_reaches_the_subsystem(self):
        import repro
        from repro.workloads.scenarios import get_scenario

        info = get_scenario("explore_smoke")
        assert info.kind == "explore"
        config = info.builder(budget=2, num_ops=16)
        report = repro.run_exploration(config)
        assert report.ok and report.cases_run == 2
