"""Tests for the runtime invariant monitor (Lemmas 2-4, Property P2)."""

import pytest

from repro.core.invariants import GlobalInvariantMonitor, InvariantViolation, attach_monitor
from repro.api import create_register
from repro.sim.delays import UniformDelay


def build_monitored_cluster(n=4, seed=0):
    cluster = create_register(
        n=n,
        initial_value="v0",
        delay_model=UniformDelay(0.2, 2.0, seed=seed),
        check_invariants=True,
    )
    return cluster


class TestCleanRuns:
    def test_monitor_reports_no_violations_on_a_correct_run(self):
        cluster = build_monitored_cluster()
        for index in range(1, 8):
            cluster.writer.write(f"v{index}")
            cluster.reader((index % 3) + 1).read()
        cluster.settle()
        assert cluster.monitor is not None
        report = cluster.monitor.report
        assert report.ok
        assert report.checks_performed > 0
        assert report.max_history_length == 8
        assert report.max_sync_gap <= 1

    def test_monitor_attaches_via_helper(self):
        cluster = create_register(n=3, initial_value="v0")
        monitor = attach_monitor(cluster.simulator, cluster.processes, writer_pid=0)
        cluster.writer.write("v1")
        cluster.settle()
        assert monitor.report.ok

    def test_monitor_tolerates_crashed_processes(self):
        cluster = build_monitored_cluster(n=5)
        cluster.writer.write("v1")
        cluster.processes[4].crash()
        cluster.writer.write("v2")
        cluster.settle()
        assert cluster.monitor.report.ok


class TestViolationDetection:
    """Corrupt the state on purpose and make sure each lemma check trips."""

    def _quiet_monitor(self, cluster):
        monitor = GlobalInvariantMonitor(
            list(cluster.processes), writer_pid=0, raise_on_violation=False
        )
        return monitor

    def test_lemma_2_violation_detected(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        monitor = self._quiet_monitor(cluster)
        # p1 claims p2 knows more than p2 itself does.
        cluster.processes[1].state.w_sync[2] = 99
        # also keep Lemma 3 satisfied at p1 so we specifically hit Lemma 2
        cluster.processes[1].state.w_sync[1] = 99
        monitor.check_now()
        assert any("Lemma 2" in violation for violation in monitor.report.violations)

    def test_lemma_3_violation_detected(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        monitor = self._quiet_monitor(cluster)
        # p1 believes p0 is ahead of p1 itself — contradicts Lemma 3.
        cluster.processes[1].state.w_sync[0] = cluster.processes[1].state.w_sync[1] + 1
        monitor.check_now()
        assert any("Lemma 3" in violation for violation in monitor.report.violations)

    def test_lemma_4_violation_detected(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        monitor = self._quiet_monitor(cluster)
        cluster.processes[2].state.history[1] = "corrupted"
        monitor.check_now()
        assert any("Lemma 4" in violation for violation in monitor.report.violations)

    def test_property_p2_violation_detected(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        monitor = self._quiet_monitor(cluster)
        state = cluster.processes[1].state
        state.w_sync[2] = state.w_sync[1] + 5  # also breaks Lemma 3/2; P2 must be among them
        monitor.check_now()
        assert any("Property P2" in violation or "Lemma" in violation for violation in monitor.report.violations)

    def test_monotonicity_violation_detected(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        monitor = self._quiet_monitor(cluster)
        monitor.check_now()  # records the baseline snapshot
        cluster.processes[0].state.w_sync[1] = 0 if cluster.processes[0].state.w_sync[1] else 0
        cluster.processes[0].state.w_sync[1] -= 1
        monitor.check_now()
        assert any("monotonicity" in violation for violation in monitor.report.violations)

    def test_raise_on_violation_mode(self):
        cluster = create_register(n=3, initial_value="v0")
        cluster.writer.write("v1")
        cluster.settle()
        monitor = GlobalInvariantMonitor(list(cluster.processes), writer_pid=0)
        cluster.processes[2].state.history[1] = "corrupted"
        with pytest.raises(InvariantViolation):
            monitor.check_now()
