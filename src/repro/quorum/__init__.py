"""Shared quorum phase engine for message-passing register protocols.

Every register algorithm in this repository is, at its core, a *quorum
protocol*: broadcast a phase message to all peers, collect replies until at
least ``n - t`` processes (the sender included) have answered, aggregate the
replies, proceed to the next phase.  Before this package existed each of
``registers/abd.py``, ``registers/abd_mwmr.py`` and ``registers/bounded.py``
hand-rolled that loop — per-phase reply sets, pending-tag bookkeeping to
reject stale replies, quorum guards — three times over.

``repro.quorum`` extracts the pattern once:

* :class:`~repro.quorum.tracker.QuorumTracker` — the ``n - t`` threshold
  arithmetic (canonical home; re-exported from ``repro.registers.base`` for
  backwards compatibility).
* :class:`~repro.quorum.aggregators.ReplyAggregator` and friends — pluggable
  per-phase reply reductions (ack counting, max-by-key selection).
* :class:`~repro.quorum.engine.QuorumCollector` — one in-flight phase: its
  tag (the stale-reply guard), its aggregator, and its threshold.
* :class:`~repro.quorum.engine.PhaseRegisterProcess` — the broadcast/collect
  engine itself: ``start_phase`` sends one message to every peer (a single
  multi-destination ``send``), seeds the sender's own reply, and registers
  the quorum guard; ``phase_reply`` applies the stale-phase guard and feeds
  the aggregator.

The engine is deliberately *history-preserving*: ``start_phase`` performs
exactly the sends (same order) and registers exactly the guard that the
hand-rolled loops did, so porting an algorithm onto the engine leaves every
closed-loop history byte-identical (pinned by
``tests/workloads/golden_histories.json``) and every per-operation message
count unchanged (Theorem 2, checked by ``repro messages``).
"""

from repro.quorum.aggregators import AckCounter, MaxReply, ReplyAggregator
from repro.quorum.tracker import QuorumTracker

__all__ = [
    "AckCounter",
    "MaxReply",
    "NO_SELF_REPLY",
    "PhaseRegisterProcess",
    "QuorumCollector",
    "QuorumTracker",
    "ReplyAggregator",
]

#: Engine names resolved lazily (PEP 562): ``repro.quorum.engine`` builds on
#: ``repro.registers.base``, which itself imports :mod:`repro.quorum.tracker`
#: — importing the engine eagerly here would close that cycle while
#: ``registers.base`` is still half-initialised.
_ENGINE_EXPORTS = frozenset(
    {"NO_SELF_REPLY", "PhaseRegisterProcess", "QuorumCollector"}
)


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.quorum import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
