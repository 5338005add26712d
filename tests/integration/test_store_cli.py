"""Integration tests for the ``repro store`` CLI subcommand and the keyed commands' exit contract."""

import pytest

from repro.cli import main


class TestStoreCli:
    def test_default_run_succeeds(self, capsys):
        assert main(["store", "--ops", "80", "--keys", "8"]) == 0
        out = capsys.readouterr().out
        assert "per-key atomic" in out
        assert "yes" in out

    def test_zipfian_with_crashes(self, capsys):
        code = main(
            [
                "store",
                "--ops",
                "120",
                "--keys",
                "12",
                "--dist",
                "zipfian",
                "--crashes",
                "2",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 crash(es)" in out

    def test_every_algorithm_backend(self):
        for algorithm in ("two-bit", "abd", "abd-mwmr"):
            assert main(["store", "--ops", "40", "--algorithm", algorithm]) == 0

    def test_crashes_rejected_without_budget(self, capsys):
        assert main(["store", "--ops", "10", "--replication", "2", "--crashes", "1"]) == 2
        assert "replication" in capsys.readouterr().err

    def test_more_crashes_than_shards_rejected(self, capsys):
        assert main(["store", "--ops", "10", "--shards", "2", "--crashes", "3"]) == 2
        assert "shards" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        main(["store", "--ops", "60", "--seed", "5"])
        first = capsys.readouterr().out
        main(["store", "--ops", "60", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["store", "--algorithm", "bogus"])


class TestOpenLoopCli:
    def test_poisson_arrivals(self, capsys):
        code = main(
            ["store", "--ops", "80", "--keys", "8", "--arrival", "poisson", "--rate", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "poisson arrivals @ 6.0" in out
        assert "offered load" in out
        assert "p99" in out  # metrics table rides along

    def test_uniform_arrivals_deterministic(self, capsys):
        argv = ["store", "--ops", "60", "--arrival", "uniform", "--rate", "4", "--seed", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_nonpositive_rate_rejected(self, capsys):
        assert main(["store", "--ops", "10", "--arrival", "poisson", "--rate", "0"]) == 2
        assert "arrival_rate" in capsys.readouterr().err


class TestLiveTransportCli:
    def test_live_store_run_reports_wall_clock_metrics(self, capsys):
        code = main(
            ["store", "--transport", "live", "--replicas", "3",
             "--ops", "40", "--keys", "4", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "store [live]" in out
        assert "asyncio loopback, 3 replica processes" in out
        assert "ops per wall second" in out
        assert "wall-clock seconds" in out
        assert "per-key linearizable" in out and "yes" in out

    def test_live_workers_are_client_processes_and_the_p99_gate_is_exit_1(self, capsys):
        code = main(
            ["store", "--transport", "live", "--workers", "2", "--ops", "60", "--keys", "4",
             "--arrival", "poisson", "--rate", "300", "--slo-p99", "1e-9"]
        )
        captured = capsys.readouterr()
        assert code == 1  # every key linearizable; only the (absurd) SLO is missed
        assert "store run failures:" in captured.err and "misses the" in captured.err
        assert "worker processes" in captured.out and "worker->parent transfer" in captured.out
        assert "client 0" in captured.out and "client 1" in captured.out
        assert "per-key linearizable" in captured.out and "yes" in captured.out

    def test_replicas_flag_aliases_replication_on_sim_backend(self, capsys):
        assert main(["store", "--ops", "40", "--keys", "4", "--replicas", "5"]) == 0
        out = capsys.readouterr().out
        assert "/ 5" in out  # keys / shards / replication row

    def test_sim_only_flags_rejected_on_live(self, capsys):
        for flag in (["--crashes", "1"], ["--no-coalesce"], ["--algorithms", "abd,two-bit"]):
            code = main(["store", "--transport", "live", "--ops", "10"] + flag)
            assert code == 2
            assert "simulated-only" in capsys.readouterr().err


LIVE = ["--transport", "live"]

#: argv -> a fragment of the ValueError the *spec* (or the flag's own check)
#: raises.  Every keyed command funnels these through one exit-2 path.
INVALID_PARAMETERS = [
    (["store", *LIVE, "--crashes", "1"], "crash_points: simulated-only"),
    (["store", *LIVE, "--no-coalesce"], "coalesce=False: simulated-only"),
    (["store", *LIVE, "--algorithms", "abd,two-bit"], "shard_algorithms: simulated-only"),
    (["store", *LIVE, "--workers", "0"], "workers must be >= 1"),
    (["store", *LIVE, "--replicas", "1"], "replication must be >= 2"),
    (["store", *LIVE, "--arrival", "poisson", "--rate", "0"], "positive arrival_rate"),
    (["store", "--slo-p99", "0"], "slo_p99 must be positive"),
    (["store", "--crashes", "-1"], "--crashes must be non-negative, got -1"),
    (["store", "--replication", "1"], "replication must be >= 2"),
    (["store", "--workers", "0"], "workers must be >= 1"),
    (["consensus", "--algorithm", "raft"], "unknown algorithm 'raft'"),
    (["consensus", "--keys", "0"], "at least one key"),
    (["chaos", "--quick", "--seeds", "0"], "--seeds must be at least 1, got 0"),
]


class TestExitCodeContract:
    """0 verified / 1 verdict failed / 2 invalid parameters — decided in one place."""

    @pytest.mark.parametrize("argv,fragment", INVALID_PARAMETERS, ids=lambda v: " ".join(v))
    def test_invalid_parameters_exit_2_with_the_specs_own_text(self, argv, fragment, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before anything ran
        assert captured.err.startswith(f"invalid {argv[0]} parameters: ")
        assert fragment in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            # The performance benchmark is ``python -m benchmarks.e2e``.
            ["bench", "--quick"],
            # ``store --transport live --workers N --arrival poisson [--slo-p99 S]``.
            ["loadgen", "--clients", "2"],
            # One wire codec: nothing to select.
            ["store", "--codec", "json"],
        ],
        ids=" ".join,
    )
    def test_removed_commands_and_flags_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{argv[0]}'" in err or "unrecognized arguments: --codec" in err

    def test_the_message_is_the_spec_errors_text_verbatim(self, capsys):
        from repro.workloads.scenarios import kv_uniform

        with pytest.raises(ValueError) as raised:
            kv_uniform().with_(transport="live", coalesce=False)
        assert main(["store", *LIVE, "--no-coalesce"]) == 2
        assert capsys.readouterr().err == f"invalid store parameters: {raised.value}\n"

    def test_failed_verdict_exits_1_through_the_shared_tail(self, capsys, monkeypatch):
        """A run that verifies false is exit 1, its failures on stderr."""
        from repro.workloads import kv

        real_verify = kv.KVWorkloadResult.verify

        def failing_verify(result):
            verdict = real_verify(result)
            verdict.failures.append("['k0001'] injected by the test")
            return verdict

        monkeypatch.setattr(kv.KVWorkloadResult, "verify", failing_verify)
        for argv, what in (
            (["store", "--ops", "20", "--keys", "4"], "store run"),
            (["consensus", "--ops", "20"], "consensus run"),
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert f"{what} failures:" in captured.err and "k0001" in captured.err
            assert "operations completed" in captured.out  # the table still prints


class TestMixedAndCoalescingCli:
    def test_algorithms_flag_maps_round_robin_onto_shards(self, capsys):
        code = main(
            ["store", "--ops", "60", "--keys", "8", "--shards", "4",
             "--algorithms", "two-bit,abd"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "s0=two-bit, s1=abd, s2=two-bit, s3=abd" in out

    def test_unknown_mixed_algorithm_rejected(self, capsys):
        assert main(["store", "--ops", "10", "--algorithms", "abd,paxos"]) == 2
        assert "paxos" in capsys.readouterr().err

    def test_blank_algorithms_list_rejected(self, capsys):
        assert main(["store", "--ops", "10", "--algorithms", " , "]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_no_coalesce_flag_reported_and_equivalent(self, capsys):
        assert main(["store", "--ops", "60", "--keys", "8", "--no-coalesce"]) == 0
        off = capsys.readouterr().out
        assert "message coalescing" in off and "| off" in off
        assert main(["store", "--ops", "60", "--keys", "8"]) == 0
        on = capsys.readouterr().out
        assert "message coalescing" in on and "on (" in on

    def test_coalescing_report_counts_with_fixed_delay_workload(self, capsys):
        # The default store scenarios sample continuous delays (no same-instant
        # collisions); the mixed flag run still reports the counter row.
        assert main(["store", "--ops", "40", "--keys", "4", "--algorithms", "two-bit"]) == 0
        out = capsys.readouterr().out
        assert "message coalescing" in out
