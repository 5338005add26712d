"""Integration tests for the ``repro explore`` CLI."""

import json

import pytest

from repro.cli import main
from repro.explore.case import CaseOp, ExploreCase
from repro.explore.explorer import ARTIFACT_FORMAT


class TestExploreCli:
    def test_quick_healthy_run_is_green(self, capsys, tmp_path):
        code = main(["explore", "--quick", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "explore: abd" in out
        assert "violations found" in out
        assert not list(tmp_path.glob("explore_counterexample_*.json"))

    def test_mutant_run_finds_shrinks_and_writes_artifact(self, capsys, tmp_path):
        code = main(
            [
                "explore", "--quick", "--algorithm", "abd-sloppy-write",
                "--expect-violation", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "counterexample #1" in out
        assert "replayed: yes" in out
        artifacts = sorted(tmp_path.glob("explore_counterexample_*.json"))
        assert len(artifacts) == 1
        payload = json.loads(artifacts[0].read_text())
        assert payload["format"] == "repro-explore-counterexample"
        assert payload["expected"]["failing_keys"]
        assert payload["case"]["algorithm"] == "abd-sloppy-write"

    def test_mutant_violation_without_expect_flag_fails(self, capsys, tmp_path):
        code = main(
            ["explore", "--quick", "--algorithm", "abd-sloppy-write", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "non-linearizable execution(s) found" in capsys.readouterr().err

    def test_expect_violation_on_healthy_algorithm_fails(self, capsys, tmp_path):
        code = main(
            ["explore", "--quick", "--expect-violation", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "expected the explorer to find a violation" in capsys.readouterr().err

    def test_replay_round_trip(self, capsys, tmp_path):
        assert (
            main(
                [
                    "explore", "--quick", "--algorithm", "abd-sloppy-write",
                    "--expect-violation", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        artifact = next(tmp_path.glob("explore_counterexample_*.json"))
        code = main(["explore", "--replay", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "reproduced: yes" in out

    def test_replay_missing_file_is_a_usage_error(self, capsys):
        assert main(["explore", "--replay", "/nonexistent/file.json"]) == 2
        assert "cannot replay" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "break_case, field",
        [
            (lambda case: case.pop("name"), "'name'"),
            (lambda case: case["ops"].append({"kind": "cas", "key": "k0"}), "'value'"),
        ],
        ids=["no-case-name", "cas-without-value"],
    )
    def test_replay_malformed_artifact_is_a_usage_error(self, capsys, tmp_path, break_case, field):
        case = ExploreCase(
            name="t", algorithm="abd", num_shards=1, replication=3, batch_size=1,
            delay={"kind": "fixed", "delta": 1.0}, ops=(CaseOp(kind="read", key="k0"),),
        ).to_dict()
        break_case(case)
        artifact = tmp_path / "broken.json"
        artifact.write_text(json.dumps({"format": ARTIFACT_FORMAT, "version": 1, "case": case}))
        assert main(["explore", "--replay", str(artifact)]) == 2
        err = capsys.readouterr().err
        assert "cannot replay" in err and field in err

    def test_unknown_algorithm_is_a_usage_error(self, capsys):
        assert main(["explore", "--algorithm", "paxos"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_invalid_parameters_are_usage_errors(self, capsys):
        assert main(["explore", "--budget", "0"]) == 2
        assert "invalid exploration parameters" in capsys.readouterr().err

    def test_deterministic_artifacts_across_runs(self, capsys, tmp_path):
        for directory in ("a", "b"):
            assert (
                main(
                    [
                        "explore", "--quick", "--algorithm", "abd-sloppy-write",
                        "--expect-violation", "--out-dir", str(tmp_path / directory),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        first = (tmp_path / "a" / "explore_counterexample_1.json").read_text()
        second = (tmp_path / "b" / "explore_counterexample_1.json").read_text()
        assert first == second
