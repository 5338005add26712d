"""A crashing worker must fail the run fast, loudly, and without hanging.

``REPRO_PARALLEL_POISON`` (any non-empty value) makes every pool worker
raise at startup; spawn children inherit the environment, so setting it via
``monkeypatch`` injects a crash into the real failure path — no internal
patching, the exact code a production OOM-kill or bug would take.
"""

import time

import pytest

from repro.parallel import POISON_ENV, WorkerFailure, run_chunked
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_uniform


def _square(value):
    """Module-level so spawn workers can unpickle it by qualified name."""
    return value * value


def _die_or_dawdle(value):
    """Item 1's worker vanishes without a word; item 0's is merely slow."""
    import os

    if value == 1:
        os._exit(3)
    time.sleep(30.0)
    return value


class TestPoisonedStoreRun:
    def test_run_fails_fast_with_surfaced_traceback(self, monkeypatch):
        monkeypatch.setenv(POISON_ENV, "injected-by-test")
        started = time.monotonic()
        result = run_kv_workload(kv_uniform(num_keys=8, num_ops=64, seed=0).with_(workers=2))
        elapsed = time.monotonic() - started
        assert result.finished_cleanly is False
        assert result.worker_failure is not None
        assert "poisoned worker" in result.worker_failure
        assert "injected-by-test" in result.worker_failure
        assert "worker traceback" in result.worker_failure, "traceback must be surfaced"
        assert "RuntimeError" in result.worker_failure
        # Fail fast: the barrier must notice the dead worker, not hang until
        # a CI timeout.  Generous bound — spawn startup dominates.
        assert elapsed < 60.0

    def test_failed_run_returns_a_degraded_but_usable_result(self, monkeypatch):
        monkeypatch.setenv(POISON_ENV, "1")
        result = run_kv_workload(kv_uniform(num_keys=8, num_ops=64, seed=0).with_(workers=2))
        assert result.ops == []
        assert result.completed_ops() == []
        assert result.total_messages() == 0
        assert result.virtual_makespan == 0.0
        assert result.check_atomicity(raise_on_violation=False).keys_checked == 0

    def test_unpoisoned_parallel_run_is_clean(self):
        # Guard against the poison env leaking between tests.
        result = run_kv_workload(kv_uniform(num_keys=8, num_ops=64, seed=0).with_(workers=2))
        assert result.worker_failure is None
        assert result.finished_cleanly


class TestPoisonedPool:
    def test_run_chunked_raises_worker_failure(self, monkeypatch):
        monkeypatch.setenv(POISON_ENV, "boom")
        with pytest.raises(WorkerFailure) as excinfo:
            run_chunked(_square, list(range(8)), 2)
        assert "poisoned worker" in str(excinfo.value)
        assert excinfo.value.traceback_text, "worker traceback must be attached"

    def test_serial_fallback_ignores_poison(self, monkeypatch):
        # workers=1 never spawns, so the poison hook (a *worker* crash
        # simulator) must not fire in-process.
        monkeypatch.setenv(POISON_ENV, "boom")
        assert run_chunked(_square, [1, 2, 3], 1) == [1, 4, 9]

    def test_round_trip_preserves_input_order(self):
        assert run_chunked(_square, list(range(7)), 3) == [v * v for v in range(7)]

    def test_a_dead_worker_does_not_wait_behind_a_slower_one(self):
        """Results used to be read in pool order: worker 1's death was noticed
        only once worker 0 had finished (here: 30 s later)."""
        started = time.monotonic()
        with pytest.raises(WorkerFailure, match="repro-pool-1.*exitcode=3"):
            run_chunked(_die_or_dawdle, [0, 1], 2)
        assert time.monotonic() - started < 10.0
