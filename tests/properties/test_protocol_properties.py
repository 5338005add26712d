"""Property-based tests of the protocols themselves.

Random system sizes, delay distributions, operation mixes and crash schedules
are generated by hypothesis; every resulting history must be atomic and, for
the two-bit algorithm, every run must also satisfy the paper's lemma
invariants and converge at quiescence.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.delays import FixedDelay, UniformDelay
from repro.faults import random_crash_points
from repro.verification.invariants import check_two_bit_convergence
from repro.workloads import REGISTER_KEY, WorkloadSpec, run_workload

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def failure_free_specs(draw, algorithm: str) -> WorkloadSpec:
    n = draw(st.integers(min_value=2, max_value=7))
    num_writes = draw(st.integers(min_value=0, max_value=8))
    reads_per_reader = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    use_random_delays = draw(st.booleans())
    delay_model = (
        UniformDelay(0.1, draw(st.floats(min_value=0.5, max_value=4.0)), seed=seed)
        if use_random_delays
        else FixedDelay(1.0)
    )
    return WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=num_writes,
        reads_per_reader=reads_per_reader,
        delay_model=delay_model,
        check_invariants=(algorithm == "two-bit"),
        seed=seed,
    )


@given(spec=failure_free_specs("two-bit"))
@settings(**COMMON_SETTINGS)
def test_two_bit_random_failure_free_runs_are_atomic_and_converge(spec: WorkloadSpec):
    result = run_workload(spec)
    assert result.finished_cleanly
    assert result.check_atomicity(raise_on_violation=False).ok, result.history(REGISTER_KEY).describe()
    assert result.monitor is not None and result.monitor.report.ok
    check_two_bit_convergence(result.store.register_for(REGISTER_KEY).processes, writer_pid=0)


@given(spec=failure_free_specs("abd"))
@settings(**COMMON_SETTINGS)
def test_abd_random_failure_free_runs_are_atomic(spec: WorkloadSpec):
    result = run_workload(spec)
    assert result.finished_cleanly
    assert result.check_atomicity(raise_on_violation=False).ok, result.history(REGISTER_KEY).describe()


@st.composite
def crashy_specs(draw) -> WorkloadSpec:
    n = draw(st.integers(min_value=3, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    crash_seed = draw(st.integers(min_value=0, max_value=10_000))
    # Keep the writer alive so the write stream terminates; reader crashes are
    # free game.  Liveness with a crashed writer is covered by integration tests.
    crash_points = random_crash_points(n, seed=crash_seed, horizon=25.0, exclude=(0,))
    return WorkloadSpec(
        n=n,
        algorithm=draw(st.sampled_from(["two-bit", "abd"])),
        num_writes=draw(st.integers(min_value=1, max_value=6)),
        reads_per_reader=draw(st.integers(min_value=1, max_value=5)),
        delay_model=UniformDelay(0.1, 2.0, seed=seed),
        crash_points=crash_points,
        check_invariants=False,
        seed=seed,
        max_virtual_time=3_000.0,
    )


@given(spec=crashy_specs())
@settings(**COMMON_SETTINGS)
def test_random_crash_points_never_break_atomicity(spec: WorkloadSpec):
    result = run_workload(spec)
    assert result.check_atomicity(raise_on_violation=False).ok, result.history(REGISTER_KEY).describe()
    # Operations invoked by processes that never crash must all terminate.
    crashed = {point.replica for point in spec.crash_points}
    for record in result.store.driver.records:
        if record.pid not in crashed:
            assert record.completed


@given(
    n=st.integers(min_value=2, max_value=7),
    num_writes=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(**COMMON_SETTINGS)
def test_theorem_2_exact_message_counts_hold_for_random_parameters(n, num_writes, seed):
    """Theorem 2's exact counts hold for every n and write count, not just the
    sizes the unit tests pick."""
    spec = WorkloadSpec(
        n=n,
        algorithm="two-bit",
        num_writes=num_writes,
        reads_per_reader=1,
        isolated_operations=True,
        delay_model=FixedDelay(1.0),
        seed=seed,
    )
    result = run_workload(spec)
    from repro.registers.base import OperationKind

    for cost in (cost for cost in result.isolated_costs if cost.kind is OperationKind.WRITE):
        assert cost.messages == n * (n - 1)
    for cost in (cost for cost in result.isolated_costs if cost.kind is OperationKind.READ):
        assert cost.messages == 2 * (n - 1)


@given(
    n=st.integers(min_value=2, max_value=6),
    num_writes=st.integers(min_value=1, max_value=12),
    high=st.floats(min_value=0.5, max_value=5.0),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(**COMMON_SETTINGS)
def test_two_bit_control_information_is_always_two_bits(n, num_writes, high, seed):
    """No run, whatever its size or delay distribution, ever puts more than
    two control bits on the wire — the headline claim."""
    spec = WorkloadSpec(
        n=n,
        algorithm="two-bit",
        num_writes=num_writes,
        reads_per_reader=2,
        delay_model=UniformDelay(0.1, high, seed=seed),
        seed=seed,
    )
    result = run_workload(spec)
    assert result.store.stats.max_control_bits == 2
    assert set(result.store.stats.by_type) <= {"WRITE0", "WRITE1", "READ", "PROCEED"}
