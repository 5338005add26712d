"""Correctness checking: histories, atomicity, linearizability, convergence.

The paper proves its algorithm correct; this reproduction *checks* every run
instead.  Three layers:

* :mod:`repro.verification.history` — the one :class:`History` of
  invocation / response intervals every run ends in: stored as columns,
  handing out :class:`Operation` rows on demand;
* :mod:`repro.verification.register_checker` — a fast checker specialised to
  single-writer registers with distinct written values; it verifies exactly
  the three claims of Lemma 10 (no read from the future, no overwritten read,
  no new/old inversion) plus the real-time ordering constraints they rely on;
* :mod:`repro.verification.linearizability` — a general (exponential-time)
  linearizability checker for read/write registers used on small histories to
  cross-validate the fast checker in property-based tests, and to check MWMR
  histories where the fast checker does not apply;
* :mod:`repro.verification.invariants` — cross-algorithm quiescence checks
  (e.g. "after the run drains, every correct replica converged to the last
  written value").
"""

from repro.verification.history import History, Operation, OpKind
from repro.verification.linearizability import (
    CheckResult,
    LinearizabilityBudgetExceeded,
    PartitionedCheckReport,
    brute_force_is_linearizable,
    check_histories_per_key,
    check_linearizability,
    find_linearization,
    is_linearizable,
    verify_witness,
)
from repro.verification.register_checker import AtomicityViolation, check_swmr_atomicity

__all__ = [
    "AtomicityViolation",
    "CheckResult",
    "History",
    "LinearizabilityBudgetExceeded",
    "OpKind",
    "Operation",
    "PartitionedCheckReport",
    "brute_force_is_linearizable",
    "check_histories_per_key",
    "check_linearizability",
    "check_swmr_atomicity",
    "find_linearization",
    "is_linearizable",
    "verify_witness",
]
