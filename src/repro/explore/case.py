"""Explore cases: one fully-described, replayable store execution.

An :class:`ExploreCase` is the unit the schedule explorer runs, shrinks and
serializes: an explicit operation script (not a generator seed — shrinking
removes individual operations), the store geometry, the delay model, the
fault schedule (crash points and/or one healing partition window, reusing
:mod:`repro.faults`) and the per-message perturbation choices.  Everything
is plain data, round-trips through strict JSON, and :func:`run_case`
executes it deterministically: same case, same execution, same verdict —
which is what makes counterexample artifacts replayable
(``repro explore --replay file``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.explore.mutations import MUTATIONS, install_mutations
from repro.explore.perturb import PerturbationEntry, ReplayPerturbation
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.faults.plan import FaultPlan
from repro.registers.base import OperationKind
from repro.registers.registry import available_algorithms
from repro.sim.delays import DelayModel, FixedDelay, UniformDelay
from repro.store.store import KVStore, StoreConfig
from repro.verification.linearizability import PartitionedCheckReport
from repro.workloads.kv import CrashPoint, deploy_store

#: Artifact/case schema version (bumped on incompatible changes).
CASE_FORMAT_VERSION = 1


#: Case op kinds and how their ``value`` field serializes.  Registers use
#: read/write; the consensus-backed store objects add cas (value is the
#: ``(expected, new)`` pair — a JSON array on the wire), tas (no value) and
#: incr (integer addend).
CASE_OP_KINDS = ("read", "write", "cas", "tas", "incr")
_VALUED_KINDS = ("write", "cas", "incr")


@dataclass(frozen=True)
class CaseOp:
    """One scripted store operation.

    ``at`` (arrival time) and ``replica`` (routing pin) are ``None`` while a
    strategy explores — arrivals derive from the case's ``arrival_gap`` and
    non-write operations round-robin like production traffic.  The explorer
    *materializes* both from the violating execution before shrinking (see
    ``materialize_schedule``), so removing one operation no longer shifts
    every later operation's arrival time or routing — the property that lets
    delta debugging converge to a minimal reproducer.
    """

    kind: str  # one of CASE_OP_KINDS
    key: str
    #: ``write`` -> str, ``cas`` -> (expected, new) tuple, ``incr`` -> int,
    #: ``read``/``tas`` -> None.
    value: Any = None
    at: Optional[float] = None
    replica: Optional[int] = None

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind, "key": self.key}
        if self.kind in _VALUED_KINDS:
            # A cas value is a tuple; JSON renders it as an array and
            # from_dict restores the tuple (the SMR spec unpacks positionally).
            payload["value"] = list(self.value) if self.kind == "cas" else self.value
        if self.at is not None:
            payload["at"] = self.at
        if self.replica is not None:
            payload["replica"] = self.replica
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CaseOp":
        kind = payload["kind"]
        if kind not in CASE_OP_KINDS:
            raise ValueError(f"unknown case op kind {kind!r}")
        value = payload.get("value") if kind in _VALUED_KINDS else None
        if kind == "cas":
            expected, new = value
            value = (expected, new)
        elif kind == "incr":
            value = int(value)
        return cls(
            kind=kind,
            key=payload["key"],
            value=value,
            at=payload.get("at"),
            replica=payload.get("replica"),
        )


def delay_model_from_dict(payload: Dict[str, Any]) -> DelayModel:
    """Build a delay model from its serialized form (fixed or uniform)."""
    kind = payload.get("kind")
    if kind == "fixed":
        return FixedDelay(payload.get("delta", 1.0))
    if kind == "uniform":
        return UniformDelay(
            payload.get("low", 0.2), payload.get("high", 1.0), seed=payload.get("seed", 0)
        )
    raise ValueError(f"unknown delay model kind {kind!r} (expected 'fixed' or 'uniform')")


@dataclass(frozen=True)
class ExploreCase:
    """One schedule to run: geometry + script + faults + perturbation."""

    name: str
    algorithm: str
    num_shards: int
    replication: int
    batch_size: int
    delay: Dict[str, Any]
    ops: Tuple[CaseOp, ...]
    #: ``0`` drives ops closed-loop in batches of ``batch_size``; a positive
    #: gap staggers arrivals open-loop (operation ``i`` arrives at ``i*gap``),
    #: which overlaps operations across replicas *and* creates real-time
    #: ordering between them — the regime where atomicity bugs hide.
    arrival_gap: float = 0.0
    perturbation: Tuple[PerturbationEntry, ...] = ()
    #: Crash points: ``{"at": t, "shard": s, "replica": r}`` (non-writer replicas).
    crash_points: Tuple[Dict[str, Any], ...] = ()
    #: At most one healing partition window: ``{"replicas": [...], "start": t, "heal": t}``.
    partition: Optional[Dict[str, Any]] = None
    #: ``None`` means the store starts empty (consensus-object cases: the
    #: first cas of a key then expects "unset").
    initial_value: Optional[str] = "v0"

    def with_(self, **changes: object) -> "ExploreCase":
        """Copy with fields replaced (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": CASE_FORMAT_VERSION,
            "name": self.name,
            "algorithm": self.algorithm,
            "num_shards": self.num_shards,
            "replication": self.replication,
            "batch_size": self.batch_size,
            "arrival_gap": self.arrival_gap,
            "delay": dict(self.delay),
            "initial_value": self.initial_value,
            "ops": [op.to_dict() for op in self.ops],
            "perturbation": [list(entry) for entry in self.perturbation],
            "crash_points": [dict(point) for point in self.crash_points],
            "partition": dict(self.partition) if self.partition is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExploreCase":
        version = payload.get("version", CASE_FORMAT_VERSION)
        if version != CASE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported explore-case version {version} (this build reads "
                f"version {CASE_FORMAT_VERSION})"
            )
        return cls(
            name=payload["name"],
            algorithm=payload["algorithm"],
            num_shards=payload["num_shards"],
            replication=payload["replication"],
            batch_size=payload["batch_size"],
            arrival_gap=payload.get("arrival_gap", 0.0),
            delay=dict(payload["delay"]),
            initial_value=payload.get("initial_value", "v0"),
            ops=tuple(CaseOp.from_dict(entry) for entry in payload["ops"]),
            perturbation=tuple(
                (str(scope), int(s), int(d), int(k), float(m))
                for scope, s, d, k, m in payload["perturbation"]
            ),
            crash_points=tuple(dict(point) for point in payload.get("crash_points", ())),
            partition=(
                dict(payload["partition"]) if payload.get("partition") is not None else None
            ),
        )

    def to_json(self) -> str:
        """Strict-JSON rendering (stable key order; fails on non-finite numbers)."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ExploreCase":
        return cls.from_dict(json.loads(text))


@dataclass
class CaseOutcome:
    """Everything one case execution produced."""

    case: ExploreCase
    store: KVStore
    report: PartitionedCheckReport
    completed: int
    failed: int
    finished_cleanly: bool

    @property
    def ok(self) -> bool:
        """True when every key's history is linearizable."""
        return self.report.ok

    def failing_keys(self) -> list:
        return self.report.failing_keys()


def _fault_plan_for(case: ExploreCase) -> Optional[FaultPlan]:
    if case.partition is None:
        return None
    window = PartitionWindow.isolate(
        tuple(int(replica) for replica in case.partition["replicas"]),
        case.replication,
        start=float(case.partition["start"]),
        heal=float(case.partition["heal"]),
    )
    return FaultPlan(
        name="explore-partition", link_policies=(PartitionSchedule(windows=(window,)),)
    )


def run_case(
    case: ExploreCase,
    perturbation: Optional[Any] = None,
    check_max_states: Optional[int] = 1_000_000,
) -> CaseOutcome:
    """Execute ``case`` against a fresh store and check every key's history.

    ``perturbation`` overrides the case's recorded entries (the explorer
    passes a :class:`~repro.explore.perturb.RecordingPerturbation` on first
    runs; replays and shrink probes build a
    :class:`~repro.explore.perturb.ReplayPerturbation` from the case).  The
    checker is the Wing–Gong engine on every key (``swmr_fast_path=False``)
    so explored executions exercise the search core the explorer exists to
    drive.
    """
    if case.algorithm in MUTATIONS and case.algorithm not in available_algorithms():
        install_mutations()  # replaying a mutant artifact is self-contained
    store = deploy_store(
        StoreConfig(
            algorithm=case.algorithm,
            num_shards=case.num_shards,
            replication=case.replication,
            delay_model=delay_model_from_dict(case.delay),
            initial_value=case.initial_value,
        ),
        _fault_plan_for(case),
        [
            CrashPoint(float(point["at"]), int(point["shard"]), int(point["replica"]))
            for point in case.crash_points
        ],
    )
    if perturbation is None and case.perturbation:
        perturbation = ReplayPerturbation(list(case.perturbation))
    if perturbation is not None:
        store.install_perturbation(perturbation)

    finished = True
    staggered = case.arrival_gap > 0 or any(op.at is not None for op in case.ops)
    if staggered:
        from repro.exec.clients import OpenLoopClient
        from repro.exec.target import OpRequest

        arrivals = [
            (
                op.at if op.at is not None else index * case.arrival_gap,
                OpRequest(
                    kind=OperationKind(op.kind),
                    key=op.key,
                    # Writes always route to the writer replica; every other
                    # kind honours a pinned replica from materialization.
                    replica=op.replica if op.kind != "write" else None,
                ),
                op.value,
            )
            for index, op in enumerate(case.ops)
        ]
        if any(later[0] < earlier[0] for earlier, later in zip(arrivals, arrivals[1:])):
            raise ValueError("case ops must arrive in non-decreasing time order")
        client = OpenLoopClient(store.driver, store.target, arrivals)
        client.start()
        last_arrival = arrivals[-1][0] if arrivals else 0.0
        client.drive(limit=last_arrival + store.config.max_virtual_time)
        finished = client.all_submitted and all(op.done for op in client.ops)
    else:
        for begin in range(0, len(case.ops), case.batch_size):
            for scripted in case.ops[begin : begin + case.batch_size]:
                if scripted.kind == "write":
                    store.submit_put(scripted.key, scripted.value)
                elif scripted.kind == "read":
                    store.submit_get(scripted.key, replica=scripted.replica)
                else:
                    store.submit_op(
                        OperationKind(scripted.kind),
                        scripted.key,
                        scripted.value,
                        replica=scripted.replica,
                    )
            finished = store.drive() and finished
    report = store.check_linearizability(
        swmr_fast_path=False, max_states=check_max_states
    )
    completed = len(store.completed_ops())
    failed = len(store.failed_ops())
    return CaseOutcome(
        case=case,
        store=store,
        report=report,
        completed=completed,
        failed=failed,
        finished_cleanly=finished,
    )


def materialize_schedule(case: ExploreCase, outcome: CaseOutcome) -> ExploreCase:
    """Pin arrival times and read routing observed in ``outcome`` into the case.

    Replaces every op's implicit ``index * arrival_gap`` arrival with the
    explicit time and pins each read to the replica the round-robin router
    actually chose, producing a case that re-executes identically but whose
    operations no longer depend on their position in the script — the
    precondition for delta debugging to remove operations without shifting
    everything behind them.
    """
    driven = outcome.store.ops
    if len(driven) != len(case.ops):
        raise ValueError(
            f"outcome has {len(driven)} driven ops for a {len(case.ops)}-op case"
        )
    staggered = case.arrival_gap > 0 or any(op.at is not None for op in case.ops)
    pinned = []
    for index, (scripted, executed) in enumerate(zip(case.ops, driven)):
        at = scripted.at
        if at is None and staggered:
            # The exact float the run used — rounding would shift arrivals
            # by ulps and could lose the violation before shrinking starts.
            at = index * case.arrival_gap
        replica = scripted.replica
        # Writes always route to the writer; every round-robined kind (reads
        # and the consensus-object operations) gets its replica pinned.
        if scripted.kind != "write" and replica is None and executed.record is not None:
            replica = executed.record.pid
        pinned.append(replace(scripted, at=at, replica=replica))
    return case.with_(ops=tuple(pinned))
