"""Explore cases: one fully-described, replayable store execution.

An :class:`ExploreCase` is the unit the schedule explorer runs, shrinks and
serializes: an explicit operation script (not a generator seed — shrinking
removes individual operations), the store geometry, the delay model, the
fault schedule (crash points and a whole :class:`~repro.faults.FaultPlan`)
and the delivery choices (:mod:`repro.explore.chooser`).  Everything is
plain data, round-trips through strict JSON, and :func:`run_case` executes it
deterministically: same case, same execution, same verdict — which is what
makes counterexample artifacts replayable (``repro explore --replay file``).
The verdict is the one a workload run gets: a clean finish, every key
linearizable, and the consensus audit of agreement and validity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.target import OpRequest
from repro.consensus.mmr import replica_invariants
from repro.explore.chooser import ChoiceEntry, DeliveryChooser, ReplayChooser
from repro.explore.mutations import MUTATIONS, install_mutations
from repro.faults.plan import CrashPoint, FaultPlan, validate_crash_points
from repro.registers.base import OperationKind
from repro.registers.registry import available_algorithms
from repro.sim.delays import DelayModel, FixedDelay, UniformDelay
from repro.store.store import KVStore, StoreConfig
from repro.verification.linearizability import PartitionedCheckReport
from repro.workloads.kv import deploy_store, drive_script

#: Artifact/case schema version (bumped on incompatible changes).
CASE_FORMAT_VERSION = 3


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
        try:
            kind, key = payload["kind"], payload["key"]
            if kind not in CASE_OP_KINDS:
                raise ValueError(f"unknown case op kind {kind!r}")
            value = payload["value"] if kind in _VALUED_KINDS else None
            if kind == "cas":
                expected, new = value
                value = (expected, new)
            elif kind == "incr":
                value = int(value)
        except KeyError as missing:
            raise ValueError(f"case op {payload} has no {missing} field") from None
        except TypeError:
            raise ValueError(f"case op {payload} has an invalid 'value' field") from None
        return cls(
            kind=kind,
            key=key,
            value=value,
            at=payload.get("at"),
            replica=payload.get("replica"),
        )


def delay_model_from_dict(payload: Dict[str, Any]) -> DelayModel:
    """Build a delay model from its serialized form (fixed or uniform).

    Numbers are coerced (``float`` bounds, ``int`` seed): a seed is derived
    from their ``repr``, so ``0`` and ``0.0`` must be one schedule.
    """
    kind = payload.get("kind")
    if kind == "fixed":
        return FixedDelay(float(payload.get("delta", 1.0)))
    if kind == "uniform":
        low, high = float(payload.get("low", 0.2)), float(payload.get("high", 1.0))
        return UniformDelay(low, high, seed=int(payload.get("seed", 0)))
    raise ValueError(f"unknown delay model kind {kind!r} (expected 'fixed' or 'uniform')")


def delay_model_to_dict(model: DelayModel) -> Dict[str, Any]:
    """The serialized form of a fixed or uniform delay model (:func:`delay_model_from_dict`)."""
    if isinstance(model, FixedDelay):
        return {"kind": "fixed", "delta": model.delta}
    if isinstance(model, UniformDelay) and model._seed is not None:
        return {"kind": "uniform", "low": model.low, "high": model.high, "seed": model._seed}
    raise ValueError(f"{model!r} has no case form (fixed, or uniform with a seed)")


@dataclass(frozen=True)
class ExploreCase:
    """One schedule to run: geometry + script + faults + delivery choices."""

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
    choices: Tuple[ChoiceEntry, ...] = ()
    #: Crash points as :class:`~repro.faults.CrashPoint` keyword dicts:
    #: ``shard``, ``replica`` and ``at_time`` or ``after_messages_sent``.
    crash_points: Tuple[Dict[str, Any], ...] = ()
    #: The link policies, as :meth:`~repro.faults.FaultPlan.to_dict` gives them.
    fault_plan: Optional[Dict[str, Any]] = None
    #: ``None`` means the store starts empty (consensus-object cases: the
    #: first cas of a key then expects "unset").
    initial_value: Optional[str] = "v0"

    def with_(self, **changes: object) -> "ExploreCase":
        """Copy with fields replaced (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    @property
    def open_loop(self) -> bool:
        """True when the ops arrive at times (a gap, or explicit ``at`` values)."""
        return self.arrival_gap > 0 or any(op.at is not None for op in self.ops)

    def script(self) -> List[Tuple[float, OpRequest, Any]]:
        """The ops as a drive script: ``op.at``, else ``index * arrival_gap``."""
        return [
            (
                op.at if op.at is not None else index * self.arrival_gap,
                OpRequest(kind=OperationKind(op.kind), key=op.key, replica=op.replica),
                op.value,
            )
            for index, op in enumerate(self.ops)
        ]

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
            "choices": [list(entry) for entry in self.choices],
            "crash_points": [dict(point) for point in self.crash_points],
            "fault_plan": self.fault_plan,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExploreCase":
        version = payload.get("version", CASE_FORMAT_VERSION)
        if version != CASE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported explore-case version {version} (this build reads version "
                f"{CASE_FORMAT_VERSION}; version 2 held one partition window, not a fault "
                "plan; version 1 held delay perturbations, not choices)"
            )
        try:
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
                choices=tuple(
                    (str(scope), int(slot), int(s), int(d), int(k))
                    for scope, slot, s, d, k in payload["choices"]
                ),
                crash_points=tuple(dict(point) for point in payload.get("crash_points", ())),
                fault_plan=payload.get("fault_plan"),
            )
        except KeyError as missing:
            raise ValueError(f"case has no {missing} field") from None

    def to_json(self) -> str:
        """Strict-JSON rendering (stable key order; fails on non-finite numbers)."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ExploreCase":
        return cls.from_dict(json.loads(text))


@dataclass
class CaseOutcome:
    """Everything one case execution produced, and its verdict."""

    store: KVStore
    report: PartitionedCheckReport
    finished_cleanly: bool
    #: The consensus audit (:func:`~repro.consensus.mmr.replica_invariants`):
    #: ``None`` when the case deployed no consensus-backed key.
    invariants: Optional[List[str]]

    @property
    def ok(self) -> bool:
        """True when the run finished cleanly, every key is linearizable and
        the consensus invariants hold."""
        return self.finished_cleanly and self.report.ok and not self.invariants

    def violations(self) -> List[str]:
        """Everything wrong with the run, flat, as ``RunVerdict.failures`` lists it."""
        unclean = [] if self.finished_cleanly else ["run did not finish: operations left pending"]
        return unclean + self.report.violations() + list(self.invariants or ())

    def failing_keys(self) -> list:
        """The keys the verdict blames: a non-linearizable history, an
        invariant violation naming the key, or (unclean finish) an operation
        left pending."""
        keys = list(self.report.failing_keys())
        blamed = {
            key
            for key in self.store.deployed_keys
            if any(f"at key {key!r} " in violation for violation in self.invariants or ())
        }
        if not self.finished_cleanly:
            blamed.update(op.key for op in self.store.ops if not op.done)
        return keys + sorted(blamed.difference(keys))


def run_case(
    case: ExploreCase,
    chooser: Optional[DeliveryChooser] = None,
    check_max_states: Optional[int] = 1_000_000,
) -> CaseOutcome:
    """Execute ``case`` against a fresh store and judge the run.

    The case's crash points are checked against its geometry before anything
    runs; its script then goes through the one drive loop every simulated run
    uses (:func:`~repro.workloads.kv.drive_script`), so a case carries the
    same clean-finish rule as a workload run.  Every case runs under a
    delivery chooser: ``chooser`` where given (the explorer passes a
    :class:`~repro.explore.chooser.RandomChooser` on first runs), else a
    :class:`~repro.explore.chooser.ReplayChooser` of the case's choices
    (replays and shrink probes).  The checker is the Wing–Gong engine on
    every key (``swmr_fast_path=False``) so explored executions exercise the
    search core the explorer exists to drive; the consensus audit runs on
    the replicas as the run ends.
    """
    if case.algorithm in MUTATIONS and case.algorithm not in available_algorithms():
        install_mutations()  # replaying a mutant artifact is self-contained
    try:
        crash_points = [CrashPoint(**point) for point in case.crash_points]
    except TypeError as exc:
        raise ValueError(f"invalid crash point in case {case.name!r}: {exc}") from None
    validate_crash_points(crash_points, case.num_shards, case.replication)
    store = deploy_store(
        StoreConfig(
            algorithm=case.algorithm,
            num_shards=case.num_shards,
            replication=case.replication,
            delay_model=delay_model_from_dict(case.delay),
            initial_value=case.initial_value,
        ),
        FaultPlan.from_dict(case.fault_plan) if case.fault_plan is not None else None,
        crash_points,
    )
    # Before the first key deploys: every subnet takes its scoped view.
    store.network.chooser = ReplayChooser(list(case.choices)) if chooser is None else chooser
    # A list: the open-loop client checks its arrival order before any event.
    script = case.script()
    _ops, _drives, finished = drive_script(
        store, script, case.open_loop, case.batch_size, script[-1][0] if script else 0.0
    )
    report = store.check_linearizability(swmr_fast_path=False, max_states=check_max_states)
    return CaseOutcome(
        store=store, report=report, finished_cleanly=finished, invariants=replica_invariants(store)
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
    open_loop = case.open_loop
    pinned = []
    for (at, _request, _value), scripted, executed in zip(case.script(), case.ops, driven):
        # The exact float the run used (the script run_case drove) — rounding
        # would shift arrivals by ulps and could lose the violation before
        # shrinking starts.
        at = at if open_loop else None
        replica = scripted.replica
        # Writes always route to the writer; every round-robined kind (reads
        # and the consensus-object operations) gets its replica pinned.
        if scripted.kind != "write" and replica is None and executed.pid != -1:
            replica = executed.pid
        pinned.append(replace(scripted, at=at, replica=replica))
    return case.with_(ops=tuple(pinned))
