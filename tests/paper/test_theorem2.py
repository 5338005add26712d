"""Theorem 2: the exact message counts and the four message types.

"The algorithm described in Figure 1 uses only four types of messages, and
those carry no additional control information.  Moreover, a read operation
requires O(n) messages, and a write operation requires O(n^2) messages."

The proof is exact: a read sends n-1 READ messages, each answered by one
PROCEED, 2(n-1) in all; a write sends n-1 WRITE messages from the writer,
and every other process forwards the value once to each of the others, n(n-1)
in all (at most, once crashes stop some forwards).  Measured on isolated
operations, so every message is billed to the operation that caused it.
"""

from repro.analysis.metrics import messages_per_operation
from repro.registers.base import OperationKind

from tests.paper.conftest import SYSTEM_SIZES, isolated_run


def test_a_write_sends_n_times_n_minus_1_messages():
    paper = {n: {n * (n - 1)} for n in SYSTEM_SIZES}
    measured = {
        n: set(messages_per_operation(isolated_run("two-bit", n, writes=3), OperationKind.WRITE))
        for n in SYSTEM_SIZES
    }
    assert measured == paper


def test_a_read_sends_2_n_minus_1_messages():
    paper = {n: {2 * (n - 1)} for n in SYSTEM_SIZES}
    measured = {
        n: set(messages_per_operation(isolated_run("two-bit", n, writes=3), OperationKind.READ))
        for n in SYSTEM_SIZES
    }
    assert measured == paper


def test_four_message_types_in_the_proportions_of_the_proof():
    """WRITE0, WRITE1 (the parity bit), READ and PROCEED and nothing else:
    (n-1) READs and (n-1) PROCEEDs per read, n(n-1) WRITEs per write, the
    parities alternating (n=5, 6 writes, 3 reads by each of the 4 readers)."""
    n, writes, reads = 5, 6, 3 * (5 - 1)
    by_type = isolated_run("two-bit", n, writes=writes, reads=3).store.stats.by_type
    paper = {
        "READ": reads * (n - 1),
        "PROCEED": reads * (n - 1),
        "WRITE0": writes * n * (n - 1) // 2,
        "WRITE1": writes * n * (n - 1) // 2,
    }
    assert dict(by_type) == paper
