"""Named adversarial strategies: canned fault plans worth running.

These mirror the adversary constructions used in the lower-bound and
latency-under-adversity literature (Aspnes' *Notes on Theory of Distributed
Systems*, arXiv:2001.04235; the *pod* latency analysis, arXiv:2501.14931):
the adversary controls delays (and a crash budget) but must keep the
execution legal — here, every strategy returns a :class:`~repro.faults.plan.FaultPlan`
whose policies preserve reliability by construction.

All randomness is seeded through :func:`~repro.sim.rng.make_rng`, so a
strategy invoked with the same arguments yields the same plan, and the same
plan on the same workload yields the same run record-by-record.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import CrashPoint, FaultPlan
from repro.faults.storms import DelayStorm, asymmetric_link
from repro.sim.rng import make_rng


def slow_the_writer(
    writer_pid: int = 0,
    factor: float = 6.0,
    start: float = 0.0,
    end: float = 40.0,
) -> FaultPlan:
    """Storm every link touching the writer: its broadcasts and its acks crawl.

    Reads on other processes proceed at full speed, so this maximises the
    window in which readers race a slow write — the adversary's best shot at
    a new/old inversion.
    """
    return FaultPlan(
        name="slow-the-writer",
        link_policies=(
            DelayStorm(start=start, end=end, factor=factor, sources=(writer_pid,)),
            DelayStorm(start=start, end=end, factor=factor, dests=(writer_pid,)),
        ),
    )


def majority_minority_split(
    n: int,
    start: float,
    heal: float,
    minority: Optional[Sequence[int]] = None,
) -> FaultPlan:
    """Split the system into a majority and a minority side until ``heal``.

    The majority side keeps forming quorums (operations there terminate at
    normal speed); operations invoked on the minority side stall until the
    heal, then complete — the sharpest test that termination only needs a
    *reachable* majority, never the full membership.  ``minority`` defaults
    to the top ``(n - 1) // 2`` pids, keeping pid 0 (the usual writer) on
    the majority side.
    """
    if minority is None:
        minority = tuple(range(n - (n - 1) // 2, n))
    cut = tuple(sorted(set(minority)))
    if not 0 < len(cut) <= (n - 1) // 2:
        raise ValueError(
            f"minority side must have between 1 and {(n - 1) // 2} of {n} processes, "
            f"got {len(cut)}"
        )
    window = PartitionWindow.isolate(cut, n, start=start, heal=heal)
    return FaultPlan(
        name="majority-minority-split",
        link_policies=(PartitionSchedule(windows=(window,)),),
    )


def random_fault_plan(
    n: int,
    seed: int,
    horizon: float = 40.0,
) -> FaultPlan:
    """A seeded chaos plan: a healing partition, maybe a storm.

    Pid 0 always stays on the majority side (a workload's writer must keep
    terminating); everything else — which minority is cut, when, for how
    long, which link storms — is drawn from the seed, so a chaos sweep over
    seeds explores a reproducible family of adversaries.
    """
    if n < 3:
        raise ValueError(f"chaos plans need n >= 3 processes, got {n}")
    rng = make_rng(seed, "fault-plan", n, horizon)
    max_minority = (n - 1) // 2
    minority_size = rng.randint(1, max_minority)
    minority = tuple(sorted(rng.sample(range(1, n), minority_size)))
    start = round(rng.uniform(0.0, horizon * 0.3), 3)
    heal = round(start + rng.uniform(horizon * 0.2, horizon * 0.6), 3)
    policies: list = [
        PartitionSchedule(
            windows=(PartitionWindow.isolate(minority, n, start=start, heal=heal),)
        )
    ]
    if rng.random() < 0.7:
        src = rng.randrange(n)
        dst = rng.choice([pid for pid in range(n) if pid != src])
        storm_start = round(rng.uniform(0.0, horizon * 0.5), 3)
        storm_end = round(storm_start + rng.uniform(horizon * 0.2, horizon * 0.5), 3)
        factor = round(rng.uniform(2.0, 6.0), 2)
        policies.append(asymmetric_link(src, dst, factor, start=storm_start, end=storm_end))
    return FaultPlan(name=f"chaos-{seed}", link_policies=tuple(policies))


def random_crash_points(
    n: int,
    seed: int,
    max_crashes: Optional[int] = None,
    horizon: float = 50.0,
    exclude: Sequence[int] = (),
) -> Tuple[CrashPoint, ...]:
    """Seeded timed crashes of up to a minority of an ``n``-process register.

    ``max_crashes`` caps the count (default and ceiling ``(n - 1) // 2``);
    times are drawn uniformly from ``[0, horizon]``; pids in ``exclude``
    never crash (e.g. the writer, when the run needs its writes to
    terminate).  The writer, if drawn, carries ``allow_writer``.
    """
    rng = make_rng(seed, "crash-schedule", n, horizon, tuple(exclude))
    limit = (n - 1) // 2 if max_crashes is None else min(max_crashes, (n - 1) // 2)
    candidates = [pid for pid in range(n) if pid not in set(exclude)]
    rng.shuffle(candidates)
    count = rng.randint(0, min(limit, len(candidates)))
    chosen = sorted(candidates[:count])
    return tuple(
        CrashPoint(
            shard=0, replica=pid, allow_writer=pid == 0, at_time=round(rng.uniform(0.0, horizon), 3)
        )
        for pid in chosen
    )
