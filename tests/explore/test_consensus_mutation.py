"""Mutation-testing the explorer with the faulty consensus variant.

A harness that gates consensus must be shown to *catch* a broken consensus.
``mmr-cas-skip-aux`` decides without the AUX quorum, so replicas whose EST
messages arrive in different orders decide different values for the same
slot; the explorer must find the resulting non-linearizable history, shrink
it with delta debugging, write a replayable artifact, and reproduce the
violation from that artifact — while the healthy algorithm under the same
search comes back clean.
"""

import json

from repro.cli import main
from repro.explore import available_mutations


class TestConsensusMutation:
    def test_skip_aux_mutant_is_registered(self):
        assert "mmr-cas-skip-aux" in available_mutations()

    def test_explorer_finds_shrinks_and_replays_an_agreement_violation(
        self, capsys, tmp_path
    ):
        code = main(
            [
                "explore",
                "--algorithm",
                "mmr-cas-skip-aux",
                "--expect-violation",
                # Divergence needs a slot holding both a 0 and a 1 estimate,
                # i.e. a hole-fill racing its owner's command: rare since
                # gaps stopped being proposed eagerly (schedule 92 here).
                "--budget",
                "150",
                "--out-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "counterexample #1" in out
        assert "(replayed: yes)" in out

        artifact = tmp_path / "explore_counterexample_1.json"
        payload = json.loads(artifact.read_text())
        case = payload["case"]
        assert case["algorithm"] == "mmr-cas-skip-aux"
        # Shrunk: delta debugging must have removed operations from the
        # 80-op base script.
        assert 0 < len(case["ops"]) < payload["original_ops"]
        assert any(op["kind"] == "cas" for op in case["ops"])

        # The artifact replays standalone (fresh process path re-installs
        # the mutant on demand).
        replay_code = main(["explore", "--replay", str(artifact)])
        replay_out = capsys.readouterr().out
        assert replay_code == 0, replay_out
        assert "reproduced: yes" in replay_out

    def test_healthy_consensus_survives_the_same_search(self, capsys, tmp_path):
        code = main(
            [
                "explore",
                "--algorithm",
                "mmr-cas",
                "--budget",
                "6",
                "--out-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "violations found" in out
        assert not list(tmp_path.glob("explore_counterexample_*.json"))
