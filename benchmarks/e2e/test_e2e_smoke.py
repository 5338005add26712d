"""Smoke test of the benchmark itself (collected by the tier-1 run).

Every workload runs under ``--smoke`` with a traced repetition and must
report exactly the metric names ``BENCHMARK.json`` declares; the metrics
that are counts or virtual-time numbers must repeat exactly for a seed and
move with it; ``compare`` and ``report`` must read what ``run`` wrote.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import calibrate, catalog, cli, runner, trace
from benchmarks.e2e.runner import WORKLOADS, run_workload
from benchmarks.e2e.workloads import WALL_CLOCK

ROOT = cli.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    MANIFEST = json.load(_handle)

END_TO_END = [metric["name"] for metric in MANIFEST["end_to_end"]]
PER_LAYER = [metric["name"] for metric in MANIFEST["per_layer"]]
#: Per-layer counters that must repeat exactly for a seed.
EXACT_LAYERS = ("sim.scheduler.events", "verification.states_explored")


def smoke(name: str, seed: int, out_dir: str):
    return run_workload(name, seed, seconds=1.0, smoke=True, trace=True, out_dir=out_dir)


def exact_values(result):
    values = {name: result.metrics[name]["value"] for name in catalog.EXACT}
    values.update({name: result.layers[name] for name in EXACT_LAYERS})
    return values


def test_manifest_matches_the_catalog():
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["run_seconds"] == cli.DEFAULT_SECONDS
    assert list(catalog.WORKLOADS) == list(WORKLOADS)
    assert [w["name"] for w in MANIFEST["workloads"]] == list(catalog.CONTRACT)
    assert all(WORKLOADS[name].normalised == WALL_CLOCK for name in catalog.CONTRACT)
    for declared, metric in zip(MANIFEST["end_to_end"], catalog.END_TO_END):
        assert declared == {
            "name": metric.name,
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
        }
    for declared, metric in zip(MANIFEST["per_layer"], catalog.PER_LAYER):
        assert declared == {"name": metric.name, "unit": metric.unit, "better": metric.better}
    assert len(MANIFEST["end_to_end"]) == len(catalog.END_TO_END)
    assert len(MANIFEST["per_layer"]) == len(catalog.PER_LAYER) <= 128
    names = END_TO_END + PER_LAYER + list(catalog.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in END_TO_END
    for metric in catalog.PER_LAYER:
        assert metric.moves in END_TO_END and set(metric.on) <= set(catalog.WORKLOADS)


def test_wall_clock_numbers_are_put_at_reference_speed():
    speed = calibrate.Speedometer()
    ref = calibrate.REFERENCE_SECONDS
    # Sections 0..3 between five readings; the box slows to half speed at the end.
    speed.readings = [ref, ref, ref, 2 * ref, 2 * ref]
    assert speed.slowdown(0) == 1.0  # median of readings 0..2
    assert speed.slowdown(2) == pytest.approx(1.5)  # median of readings 1..4
    assert speed.slowdown(3) == 2.0
    with pytest.raises(IndexError):
        speed.slowdown(4)
    by_name = {metric.name: metric for metric in catalog.END_TO_END}
    assert runner._at_reference_speed(by_name["ops_per_s"], 500.0, 2.0) == 1000.0
    assert runner._at_reference_speed(by_name["lat_p50_ms"], 8.0, 2.0) == 4.0
    assert calibrate.calibrate() > 0
    # The yardstick does not track four processes on two cores: only the client-side check.
    for name in catalog.LIVE:
        assert WORKLOADS[name].normalised == ("check_ops_per_s",)


@pytest.mark.parametrize(
    "name", [name for name, workload in WORKLOADS.items() if workload.plane != "live"]
)
def test_simulated_workload_smoke(name, tmp_path):
    first = smoke(name, 3, str(tmp_path))
    again = smoke(name, 3, str(tmp_path))
    other = smoke(name, 4, str(tmp_path))
    for result in (first, again, other):
        assert result.correct and result.failed == 0 and result.attempted > 0
        assert list(result.metrics) == END_TO_END
        assert list(result.layers) == PER_LAYER
        assert all(metric["value"] > 0 for metric in result.metrics.values())
        assert [name for name, metric in result.metrics.items() if metric["normalised"]] == list(
            WALL_CLOCK
        )
    assert exact_values(first) == exact_values(again)
    moved = [key for key, value in exact_values(first).items() if value != exact_values(other)[key]]
    if WORKLOADS[name].plane == "sim":
        # Two-bit control bits are 2.0 whatever the seed, and a 64-operation
        # history can cost the search the same states twice; the rest moves.
        assert set(moved) >= set(exact_values(first)) - {
            "ctrl_bits_per_msg",
            "verification.states_explored",
        }
        # 0.2% at full size; a 64-operation repetition lasts ~10 ms, so leave
        # room for one scheduling hiccup between two spans.
        assert first.layers["bench.unattributed_frac"] <= 0.25, first.layers
    else:
        assert moved
    if name.startswith("twobit"):
        assert first.metrics["ctrl_bits_per_msg"]["value"] == 2.0
    if name == "twobit_writes_crash":
        assert first.layers["sim.network.dropped_to_crashed"] > 0

    # report reads the spans file back and its layers sum to the traced wall.
    table = trace.read_spans(first.spans_path)
    assert sum(table.layer_self_seconds().values()) == pytest.approx(table.root_seconds())
    assert cli.main(["report", first.spans_path]) == 0


def test_live_workloads_smoke(tmp_path):
    closed = smoke("live_closed", 3, str(tmp_path))
    again = smoke("live_closed", 3, str(tmp_path))
    rates = smoke("live_rates", 4, str(tmp_path))
    for result in (closed, again, rates):
        assert result.correct and result.failed == 0
        assert list(result.metrics) == END_TO_END
        assert list(result.layers) == PER_LAYER
        assert all(metric["value"] > 0 for metric in result.metrics.values())
    # The simulated twin and the replicas' message bill repeat; wall numbers do not.
    for name in ("msgs_per_op", "vlat_p50", "vlat_p95", "ctrl_bits_per_msg"):
        assert closed.metrics[name]["value"] == again.metrics[name]["value"]
    assert closed.metrics["vlat_p95"]["value"] != rates.metrics["vlat_p95"]["value"]
    assert closed.layers["transport.live.inflight_max"] == 32
    assert rates.layers["bench.gen_late_p95_ms"] < 50.0
    assert rates.layers["transport.codec_binary.bytes_per_frame"] > 0


def _summary(ops_per_s, quartiles=None):
    q1, q3 = quartiles or (ops_per_s, ops_per_s)
    metrics = {
        metric.name: {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 5, "unit": metric.unit}
        for metric in catalog.END_TO_END
    }
    metrics["ops_per_s"].update(median=ops_per_s, q1=q1, q3=q3)
    return {
        "envelope": {"nproc": 2, "load_average_1m": 0.1},
        "workloads": {"twobit_reads": {"metrics": metrics, "failed": 0}},
        "claim": None,
    }


def test_compare_verdicts(tmp_path, capsys):
    def compare(a, b):
        paths = []
        for label, summary in (("a", a), ("b", b)):
            paths.append(str(tmp_path / f"{label}.json"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                json.dump(summary, handle)
        code = cli.main(["compare"] + paths)
        return code, capsys.readouterr().out

    code, out = compare(_summary(1000.0), _summary(990.0))
    assert code == 0 and "worse" not in out.split("verdict")[1].split("\n\n")[0]
    code, out = compare(_summary(1000.0), _summary(600.0))
    assert code == 1 and "  worse" in out
    code, out = compare(_summary(1000.0, (700.0, 1300.0)), _summary(600.0))
    assert code == 0 and "  unresolved" in out


def test_run_writes_a_summary_that_claims_nothing(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["run", "--workload", "mmr_cas", "--smoke", "--seed", "5", "--out", out]) == 0
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
        text = handle.read()
    summary = json.loads(text)
    assert text.rstrip().endswith('"claim": null\n}')
    entry = summary["workloads"]["mmr_cas"]
    assert entry["failed_frac"] == 0 and list(entry["metrics"]) == END_TO_END
    assert {"git_sha", "nproc", "python", "load_average_1m"} <= set(summary["envelope"])


def test_contract_result_line_has_exactly_the_contract_keys(tmp_path):
    result = smoke("abd_openloop", 6, str(tmp_path))
    for traced, names in ((False, END_TO_END), (True, PER_LAYER)):
        line = cli.contract_result(result, traced)
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert list(line["metrics"]) == names
        assert all(set(value) == {"value", "unit"} for value in line["metrics"].values())


def test_contract_command_fails_without_the_program(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "e2e"),
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable] + MANIFEST["command"][1:] + ["--workload", "mmr_cas", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
