"""Hand-crafted non-linearizable histories: the checker must reject them all.

Each shape is written three times, in the value/cost-model idiom of each
register family the harness runs — the paper's two-bit algorithm (small
integer values), plain ABD (per-key ``"k=vN"`` strings, single writer) and
MWMR ABD (writer-tagged values, two writers) — so a regression in any
checker path (claims fast path, Wing–Gong engine, per-key partitioning)
trips at least one of them.
"""

import pytest

from repro.verification.history import make_history
from repro.verification.linearizability import (
    brute_force_is_linearizable,
    check_histories_per_key,
    check_linearizability,
    find_linearization,
)
from repro.verification.register_checker import check_swmr_atomicity

#: (family, initial value, first written value, second written value).
COST_MODELS = [
    ("two-bit", 0, 1, 2),
    ("abd", "v0", "k0001=v1", "k0001=v2"),
]


def _swmr_shapes(initial, v1):
    return {
        # Claim 2: a write completed before the read started, yet the read
        # returns the older value — the sloppy-quorum failure mode.
        "stale-read": [(0, "write", v1, 0.0, 1.0), (1, "read", initial, 2.0, 3.0)],
        # Claim 3: two sequential reads straddling a slow write observe the
        # new value then the old one — the new/old inversion a missing
        # write-back (or a split-brain partition) produces.
        "split-brain": [
            (0, "write", v1, 0.0, 10.0),
            (1, "read", v1, 1.0, 2.0),
            (2, "read", initial, 3.0, 4.0),
        ],
        # Claim 1: a read returns a value whose write had not started yet.
        "future-read": [(1, "read", v1, 0.0, 1.0), (0, "write", v1, 5.0, 6.0)],
    }


def negative_corpus():
    """Every rejected history, as ``name -> (history, single-writer?)``."""
    corpus = {}
    for family, initial, v1, _v2 in COST_MODELS:
        for shape, entries in _swmr_shapes(initial, v1).items():
            corpus[f"{shape}/{family}"] = (make_history(entries, initial_value=initial), True)
    corpus["stale-read/mwmr"] = (
        make_history(
            [
                (0, "write", "w0v1", 0.0, 1.0),
                (1, "write", "w1v1", 2.0, 3.0),
                (2, "read", "w0v1", 4.0, 5.0),
            ],
            initial_value="v0",
        ),
        False,
    )
    corpus["split-brain/mwmr"] = (
        make_history(
            [
                (0, "write", "w0v1", 0.0, 10.0),
                (1, "write", "w1v1", 0.0, 10.0),
                (2, "read", "w0v1", 11.0, 12.0),
                (3, "read", "v0", 13.0, 14.0),
            ],
            initial_value="v0",
        ),
        False,
    )
    return corpus


def assert_rejected(history, swmr=True):
    """Every engine must agree the history is not linearizable."""
    result = check_linearizability(history)
    assert not result.linearizable
    assert result.witness is None
    assert find_linearization(history) is None
    assert not brute_force_is_linearizable(history)
    if swmr:
        claims = check_swmr_atomicity(history, raise_on_violation=False)
        assert not claims.ok
    report = check_histories_per_key({"k": history}, swmr_fast_path=swmr)
    assert not report.ok and report.failing_keys() == ["k"]


class TestStaleReadAfterAckedWrite:
    @pytest.mark.parametrize("family,_initial,_v1,_v2", COST_MODELS)
    def test_swmr_families(self, family, _initial, _v1, _v2):
        assert_rejected(*negative_corpus()[f"stale-read/{family}"])

    def test_mwmr_family(self):
        assert_rejected(*negative_corpus()["stale-read/mwmr"])


class TestSplitBrainDoubleRead:
    @pytest.mark.parametrize("family,_initial,_v1,_v2", COST_MODELS)
    def test_swmr_families(self, family, _initial, _v1, _v2):
        assert_rejected(*negative_corpus()[f"split-brain/{family}"])

    def test_mwmr_family(self):
        assert_rejected(*negative_corpus()["split-brain/mwmr"])


class TestReadFromTheFuture:
    @pytest.mark.parametrize("family,_initial,_v1,_v2", COST_MODELS)
    def test_swmr_families(self, family, _initial, _v1, _v2):
        assert_rejected(*negative_corpus()[f"future-read/{family}"])


class TestWriterReadsItsOwnNextWrite:
    """The writer's read responds at the instant its next write is invoked and
    returns that write's value.  Real time alone (Claim 1, strict) lets it
    through; the writer's program order does not.  Kept out of
    ``negative_corpus()``, which feeds the pinned checker outputs."""

    HISTORY = [
        (0, "write", "a", 0.0, 1.0),
        (0, "read", "b", 1.0, 2.0),
        (0, "write", "b", 2.0, 3.0),
    ]

    def test_rejected_on_both_verdict_paths(self):
        history = make_history(self.HISTORY, initial_value="v0")
        assert_rejected(history)
        assert not check_histories_per_key({"k": history}, swmr_fast_path=False).ok
        claims = check_swmr_atomicity(history, raise_on_violation=False)
        assert len(claims.violations) == 1
        assert claims.violations[0].startswith("program order (writer)")

    def test_a_strictly_earlier_read_is_reported_once_as_claim_1(self):
        entries = [self.HISTORY[0], (0, "read", "b", 1.0, 1.5), self.HISTORY[2]]
        claims = check_swmr_atomicity(
            make_history(entries, initial_value="v0"), raise_on_violation=False
        )
        assert len(claims.violations) == 1
        assert claims.violations[0].startswith("Claim 1")

    def test_another_process_may_read_at_that_instant(self):
        """Same times, but the read is p1's: it overlaps nothing and orders
        after nothing, so returning the write invoked as it responds is fine."""
        entries = [self.HISTORY[0], (1, "read", "b", 1.0, 2.0), self.HISTORY[2]]
        history = make_history(entries, initial_value="v0")
        assert check_swmr_atomicity(history, raise_on_violation=False).ok
        assert check_linearizability(history).linearizable


class TestDiagnosticsAreDeterministic:
    def test_claims_diagnostics_stable_across_runs(self):
        history = make_history(
            [
                (0, "write", "k=v1", 0.0, 1.0),
                (1, "read", "v0", 2.0, 3.0),
            ],
            initial_value="v0",
        )
        first = check_histories_per_key({"k": history}).violations()
        second = check_histories_per_key({"k": history}).violations()
        assert first == second and first
