"""Integration tests for the ``repro consensus`` subcommand."""

from repro.cli import main


class TestConsensusCli:
    def test_smoke_scenario_is_green(self, capsys):
        code = main(["consensus"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "consensus: consensus_smoke (mmr-cas" in out
        assert "per-key SMR-linearizable      | yes" in out
        assert "agreement/validity invariants | hold" in out

    def test_counter_scenario_with_overrides(self, capsys):
        code = main(["consensus", "--scenario", "kv_counter", "--keys", "4", "--ops", "80"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "(mmr-counter" in out
        assert "operations completed          | 80" in out

    def test_algorithm_override_runs_the_named_algorithm(self, capsys):
        code = main(["consensus", "--ops", "60", "--algorithm", "mmr-tas"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "consensus: consensus_smoke (mmr-tas" in out
        assert "agreement/validity invariants | hold" in out

    def test_workers_2_run_audits_invariants_in_the_workers(self, capsys):
        code = main(["consensus", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "per-key SMR-linearizable      | yes" in out
        # Each shard-group worker audits its own replicas and ships the result.
        assert "agreement/validity invariants | hold" in out

    def test_live_run_renders_through_the_same_table(self, capsys):
        code = main(["consensus", "--transport", "live", "--ops", "40"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "asyncio loopback, 3 replica processes" in out
        assert "per-key SMR-linearizable      | yes" in out
        # The replicas report their decided slots with their stats.
        assert "agreement/validity invariants | hold" in out
        assert "wall seconds" in out and "virtual makespan" not in out

    def test_output_is_deterministic(self, capsys):
        assert main(["consensus", "--ops", "60"]) == 0
        first = capsys.readouterr().out
        assert main(["consensus", "--ops", "60"]) == 0
        assert first == capsys.readouterr().out
