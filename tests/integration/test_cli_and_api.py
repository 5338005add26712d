"""Integration tests for the CLI and the top-level API facade."""

import pathlib
import re

import pytest

import repro
from repro.api import create_register
from repro.cli import build_parser, main
from repro.sim.delays import FixedDelay
from repro.sim.failures import CrashSchedule


class TestTopLevelApi:
    def test_package_exports(self):
        assert callable(repro.create_register)
        assert callable(repro.run_workload)
        assert callable(repro.build_table1)
        assert "two-bit" in repro.available_algorithms()
        assert repro.__version__

    def test_create_register_defaults_to_two_bit(self):
        cluster = create_register(n=3, initial_value=0)
        assert cluster.algorithm == "two-bit"
        assert cluster.n == 3
        assert cluster.reader(1).read() == 0

    @pytest.mark.parametrize("algorithm", ["two-bit", "abd", "abd-mwmr", "abd-bounded-emulation"])
    def test_create_register_every_algorithm(self, algorithm):
        cluster = create_register(n=3, algorithm=algorithm, initial_value="v0")
        cluster.writer.write("v1")
        assert cluster.reader(1).read() == "v1"

    def test_readers_helper_excludes_writer(self):
        cluster = create_register(n=4, writer_pid=2)
        assert [handle.pid for handle in cluster.readers()] == [0, 1, 3]
        assert cluster.writer.pid == 2

    def test_crash_budget_enforced(self):
        cluster = create_register(n=5)
        cluster.crash(1)
        cluster.crash(2)
        with pytest.raises(ValueError, match="minority"):
            cluster.crash(3)
        # Crashing an already-crashed process is fine (no extra budget).
        cluster.crash(1)

    def test_crash_schedule_at_build_time(self):
        cluster = create_register(
            n=5, crash_schedule=CrashSchedule.at_times({4: 0.0}), delay_model=FixedDelay(1.0)
        )
        cluster.writer.write("v1")
        assert cluster.processes[4].crashed

    def test_settle_and_messages_sent(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        assert cluster.messages_sent() == 3 * 2
        cluster.simulator.require_quiescent()

    def test_invalid_crash_schedule_rejected(self):
        with pytest.raises(ValueError):
            create_register(n=3, crash_schedule=CrashSchedule.at_times({0: 0.0, 1: 0.0}))


class TestCli:
    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_algorithms_command(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "two-bit" in out
        assert "abd-mwmr" in out

    def test_table1_command(self, capsys):
        assert main(["table1", "--n", "3", "--writes", "10"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "measured" in out
        assert "2 Delta" in out

    def test_run_command_two_bit(self, capsys):
        assert main(["run", "--algorithm", "two-bit", "--n", "3", "--writes", "4", "--reads", "4"]) == 0
        out = capsys.readouterr().out
        assert "atomic" in out
        assert "lemma invariants" in out
        assert re.search(r"max control bits / message +\| 2 ", out)
        # The register run reports through the keyed pipeline's table.
        assert re.search(r"per-key atomic +\| yes \(1 keys\)", out)
        assert re.search(r"operations submitted +\| 12 ", out)

    def test_run_command_with_crashes_and_random_delays(self, capsys):
        exit_code = main(
            [
                "run",
                "--algorithm",
                "abd",
                "--n",
                "5",
                "--writes",
                "5",
                "--reads",
                "5",
                "--delay",
                "uniform",
                "--crashes",
                "1",
                "--seed",
                "3",
            ]
        )
        assert exit_code == 0
        assert "atomic" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["compare", "--n", "3", "--writes", "3", "--reads", "3"]) == 0
        out = capsys.readouterr().out
        assert "two-bit" in out and "abd" in out and "abd-bounded-emulation" in out

    def test_bits_command(self, capsys):
        assert main(["bits", "--n", "3", "--writes", "40"]) == 0
        out = capsys.readouterr().out
        assert "Max control bits" in out
        assert "Max local memory" in out

    def test_messages_command(self, capsys):
        assert main(["messages", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "msgs per write" in out
        assert "20" in out  # two-bit: n(n-1) = 20
        assert "8" in out  # abd: 2(n-1) = 8


PINNED = pathlib.Path(__file__).with_name("pinned_cli")


class TestPaperTablesArePinned:
    """Table 1 and the Theorem 2 counts, byte for byte.

    The pins were written by the commit *before* ``run_workload`` became the
    keyed pipeline with one key (21b9641), so they gate that re-plumbing —
    and any later one — on ``cmp``-equal paper numbers.
    """

    @pytest.mark.parametrize(
        "argv, pin",
        [
            (["table1", "--n", "5"], "table1_n5.txt"),
            (["messages", "--n", "5"], "messages_n5.txt"),
            (["bits", "--n", "5", "--writes", "40"], "bits_n5_writes40.txt"),
        ],
    )
    def test_output_is_byte_identical_to_the_pin(self, argv, pin, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == (PINNED / pin).read_text()


class TestRegisterRunVerdict:
    """``run`` / ``compare`` exit through the shared verdict, like ``store``."""

    RUN = ["run", "--n", "3", "--writes", "3", "--reads", "3"]
    COMPARE = ["compare", "--n", "3", "--writes", "3", "--reads", "3"]

    def test_a_failing_verify_is_exit_1(self, capsys, monkeypatch):
        from repro.workloads import kv

        real_verify = kv.KVWorkloadResult.verify

        def failing_verify(result):
            verdict = real_verify(result)
            verdict.failures.append("['register'] injected by the test")
            return verdict

        monkeypatch.setattr(kv.KVWorkloadResult, "verify", failing_verify)
        for argv, table_text in ((self.RUN, "operations completed"), (self.COMPARE, "total msgs")):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "register run failures:" in captured.err and "injected" in captured.err
            assert table_text in captured.out  # the table still prints

    def test_an_unfinished_run_is_exit_1(self, capsys, monkeypatch):
        from repro import cli

        real_spec = cli._spec_from_args
        # A virtual-time budget that expires mid-run: operations left pending.
        monkeypatch.setattr(
            cli, "_spec_from_args", lambda *args: real_spec(*args).with_(max_virtual_time=3.0)
        )
        for argv in (self.RUN, self.COMPARE):
            assert main(argv) == 1
            assert "did not finish cleanly" in capsys.readouterr().err


class TestExamples:
    """The example scripts are part of the public surface; they must keep running."""

    @pytest.mark.parametrize(
        "module_name",
        ["quickstart", "read_dominated_store", "crash_tolerance_demo", "regenerate_table1"],
    )
    def test_example_runs_to_completion(self, module_name, capsys, monkeypatch):
        import importlib.util
        import pathlib
        import sys

        path = pathlib.Path(__file__).resolve().parents[2] / "examples" / f"{module_name}.py"
        spec = importlib.util.spec_from_file_location(f"examples.{module_name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "argv", [str(path)])
        spec.loader.exec_module(module)
        module.main()
        out = capsys.readouterr().out
        assert out.strip(), f"example {module_name} produced no output"


class TestAlgorithmAndScenarioListing:
    def test_algorithms_command_prints_capability_flags(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "writers" in out and "control bits" in out
        assert "SWMR" in out and "MWMR" in out
        assert "bounded" in out and "unbounded" in out

    def test_scenarios_command_lists_register_and_store_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "kv_mixed" in out
        assert "read_dominated" in out
        assert "register" in out and "store" in out

    def test_transports_command_lists_both_backends(self, capsys):
        assert main(["transports"]) == 0
        out = capsys.readouterr().out
        assert "sim" in out and "live" in out
        assert "deterministic" in out
        assert "virtual time units" in out and "wall-clock seconds" in out
        # The sim-only feature set is part of the contract the table documents.
        assert "coalescing" in out and "perturbation" in out

    def test_transport_registry_round_trips(self):
        from repro.transport import available_transports, get_transport_info

        names = available_transports()
        assert names == ["sim", "live"]
        assert get_transport_info("sim").deterministic
        assert not get_transport_info("live").deterministic
        with pytest.raises(KeyError, match="choose from"):
            get_transport_info("carrier-pigeon")

    def test_scenario_registry_round_trips(self):
        from repro.workloads.scenarios import available_scenarios, get_scenario

        names = available_scenarios()
        assert "kv_mixed" in names and "quickstart" in names
        info = get_scenario("kv_mixed")
        assert info.kind == "store"
        assert callable(info.builder)
        with pytest.raises(KeyError, match="available"):
            get_scenario("nonexistent")
