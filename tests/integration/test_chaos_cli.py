"""Integration tests for the ``repro chaos`` sweep."""

import json

from repro.cli import main


def strict_loads(path):
    def forbid(name):
        raise AssertionError(f"non-finite JSON constant {name!r} in {path.name}")

    return json.loads(path.read_text(), parse_constant=forbid)


class TestChaosCli:
    def test_quick_sweep_is_green_and_strict_json(self, capsys, tmp_path):
        code = main(["chaos", "--quick", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos sweep (quick)" in out
        assert "reproducible (record-by-record): yes" in out

        payload = strict_loads(tmp_path / "chaos_report.json")
        assert payload["mode"] == "quick"
        assert payload["reproducible"] is True
        assert payload["all_atomic"] is True
        # quick mode: 2 seeds x 3 schedules
        assert payload["schedules"] == ["kv-partitioned", "delay-storm", "consensus-crash"]
        assert len(payload["runs"]) == 6
        for run in payload["runs"]:
            assert run["atomic"] and run["finished_cleanly"]
            assert run["fault_timeline"] or run["server_crashes"], (
                "every run carries its fault annotation"
            )
            assert run["per_sender"], "per-sender attribution present"
            vt = run["virtual_throughput"]
            assert vt is None or isinstance(vt, (int, float))
        consensus_runs = [r for r in payload["runs"] if r["schedule"] == "consensus-crash"]
        assert consensus_runs, "quick sweep exercises the consensus cells"
        for run in consensus_runs:
            assert run["consensus_violations"] == [], "agreement/validity must hold"

    def test_nonpositive_seeds_rejected(self, capsys, tmp_path):
        assert main(["chaos", "--seeds", "0", "--out-dir", str(tmp_path)]) == 2
        assert "--seeds must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "chaos_report.json").exists()

    def test_seeds_flag_controls_sweep_width(self, capsys, tmp_path):
        code = main(["chaos", "--quick", "--seeds", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        payload = strict_loads(tmp_path / "chaos_report.json")
        assert payload["seeds"] == [0]
        assert len(payload["runs"]) == 3

    def test_sweep_output_is_deterministic(self, capsys, tmp_path):
        assert main(["chaos", "--quick", "--seeds", "1", "--out-dir", str(tmp_path / "a")]) == 0
        first = capsys.readouterr().out
        assert main(["chaos", "--quick", "--seeds", "1", "--out-dir", str(tmp_path / "b")]) == 0
        assert first.replace(str(tmp_path / "a"), "X") == capsys.readouterr().out.replace(
            str(tmp_path / "b"), "X"
        )
        a = (tmp_path / "a" / "chaos_report.json").read_text()
        b = (tmp_path / "b" / "chaos_report.json").read_text()
        assert a == b
