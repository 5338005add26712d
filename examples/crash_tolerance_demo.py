#!/usr/bin/env python3
"""Crash-tolerance demo: a minority of processes die mid-run, atomicity holds.

The model ``CAMP_{n,t}[t < n/2]`` tolerates up to ``t = (n-1)//2`` crashes.
This example runs a contended workload on a 7-process cluster while three
processes crash at different points (one of them mid-broadcast, triggered by
a message-count adversary rather than a wall-clock time), then:

* checks the surviving history against the three atomicity claims of
  Lemma 10 (via the fast checker);
* checks the two-bit algorithm's internal invariants (Lemmas 2-4, P2);
* shows which operations never completed (exactly those of crashed processes).

Run it with::

    python examples/crash_tolerance_demo.py
"""

from __future__ import annotations

from repro.faults import CrashPoint
from repro.sim.delays import UniformDelay
from repro.verification.register_checker import check_swmr_atomicity
from repro.workloads import REGISTER_KEY, WorkloadSpec, run_workload


def main() -> None:
    n = 7
    # A register is shard 0 of a one-shard store; its pids are the replicas.
    crash_points = (
        CrashPoint(shard=0, replica=5, at_time=6.0),  # a reader dies early
        CrashPoint(shard=0, replica=6, at_time=18.0),  # another reader dies later
        CrashPoint(shard=0, replica=4, after_messages_sent=12),  # dies at its 12th send
    )
    spec = WorkloadSpec(  # validates the points: at most t = 3 of n = 7
        n=n,
        algorithm="two-bit",
        num_writes=12,
        reads_per_reader=10,
        delay_model=UniformDelay(0.2, 2.0, seed=11),
        crash_points=crash_points,
        check_invariants=True,
        seed=11,
    )
    crashed = sorted(point.replica for point in crash_points)
    print(f"running {spec.total_operations()} operations on n={n} with crashes at {crashed} ...")
    result = run_workload(spec)

    completed = result.completed_ops()
    pending = result.history(REGISTER_KEY).pending()
    print(f"operations completed : {len(completed)}")
    print(f"operations cut short : {len(pending)} (all by crashed processes)")
    for op in pending:
        print(f"    pending: {op.describe()}")

    verdict = result.verify()  # clean finish + linearizable + lemma monitor
    print(f"\nrun verdict          : {'PASS' if verdict.ok else 'FAIL'}")
    # The paper's Lemma 10 claims, as a diagnostic view of the same history.
    report = check_swmr_atomicity(result.history(REGISTER_KEY), raise_on_violation=False)
    print(f"  reads checked      : {report.reads_checked}")
    print(f"  writes checked     : {report.writes_checked}")
    print(f"  max read staleness : {report.max_read_lag} write(s) behind the newest started write")

    assert result.monitor is not None
    print(f"lemma invariants     : {'PASS' if result.monitor.report.ok else 'FAIL'}")
    print(f"  checks performed   : {result.monitor.report.checks_performed}")
    print(f"  max |w_sync_i[j] - w_sync_j[i]| observed: {result.monitor.report.max_sync_gap} (P2 bound: 1)")

    survivors = [p for p in result.store.register_for(REGISTER_KEY).processes if not p.crashed]
    print(f"\nsurviving processes  : {[p.pid for p in survivors]}")
    histories = {p.pid: len(p.known_history()) - 1 for p in survivors}
    print(f"values known at the end (per survivor): {histories}")
    print("every survivor holds a prefix of the writer's history (Lemma 4), "
          "and all operations by correct processes terminated (Lemmas 8-9).")


if __name__ == "__main__":
    main()
