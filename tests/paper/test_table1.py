"""Table 1 of the paper, line by line: the paper's value beside the measured one.

=====  ======================  ==========  ============  ========  ========
line   what                    ABD         ABD bounded   Attiya    two-bit
=====  ======================  ==========  ============  ========  ========
1      messages per write      2(n-1)      O(n^2)        O(n)      n(n-1)
2      messages per read       4(n-1)      O(n^2)        O(n)      2(n-1)
3      control bits / message  unbounded   O(n^5)        O(n^3)    2
4      local memory            unbounded   O(n^6)        O(n^5)    unbounded
5      write time              2 Δ         12 Δ          14 Δ      2 Δ
6      read time               4 Δ         12 Δ          18 Δ      4 Δ
=====  ======================  ==========  ============  ========  ========

The paper's cells are ``TABLE1_MODELS``.  Lines 1-2 and 5-6 are measured on
isolated operations with every delay Δ = 1, line 3 and line 4 on write
streams of increasing length.  ABD is the executable baseline; the modulo-M
emulation stands in for the bounded columns on line 3.  ``repro table1``
prints the assembled table.
"""

import math
from statistics import fmean

import pytest

from repro.analysis.bits import control_bits_growth, measure_control_bits
from repro.analysis.memory import measure_local_memory, memory_growth
from repro.analysis.metrics import latencies_in_delta, messages_per_operation
from repro.analysis.table1 import build_table1
from repro.registers.base import OperationKind
from repro.registers.bounded import DEFAULT_MODULUS
from repro.registers.costmodels import TABLE1_MODELS
from repro.sim.delays import FixedDelay
from repro.workloads import WorkloadSpec, run_workload

from tests.paper.conftest import SYSTEM_SIZES, isolated_run

PAPER = {model.name: model for model in TABLE1_MODELS}
ALGORITHMS = ["abd", "two-bit"]
WRITE_COUNTS = [10, 50, 200]
READ, WRITE = OperationKind.READ, OperationKind.WRITE


def mean_messages(result, kind) -> float:
    return fmean(messages_per_operation(result, kind))


# Lines 1-2: messages per operation -------------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_line1_messages_per_write(algorithm):
    """Paper: ABD 2(n-1), two-bit n(n-1), exactly, at every n."""
    paper = {n: PAPER[algorithm].write_messages.value(n) for n in SYSTEM_SIZES}
    measured = {n: mean_messages(isolated_run(algorithm, n, writes=4), WRITE) for n in SYSTEM_SIZES}
    assert measured == pytest.approx(paper)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_line2_messages_per_read(algorithm):
    """Paper: ABD 4(n-1), two-bit 2(n-1), exactly, at every n."""
    paper = {n: PAPER[algorithm].read_messages.value(n) for n in SYSTEM_SIZES}
    measured = {n: mean_messages(isolated_run(algorithm, n, writes=4), READ) for n in SYSTEM_SIZES}
    assert measured == pytest.approx(paper)


def test_lines1_2_two_bit_reads_are_cheaper_and_its_writes_dearer_than_abd():
    """Paper: the two-bit register halves ABD's read bill and pays n/2 times
    ABD's write bill, at every n."""
    for n in SYSTEM_SIZES:
        two_bit, abd = isolated_run("two-bit", n, writes=4), isolated_run("abd", n, writes=4)
        assert mean_messages(two_bit, READ) < mean_messages(abd, READ)
        assert mean_messages(two_bit, WRITE) > mean_messages(abd, WRITE)


# Line 3: control bits per message --------------------------------------------


def test_line3_two_bit_sends_two_control_bits_at_any_stream_length():
    """Paper: exactly 2 (the type and the parity bit), however many values
    are written; the streams ``repro bits`` runs included."""
    streams = [
        measure_control_bits("two-bit", n=5, writes=writes, seed=0)
        for writes in sorted([*WRITE_COUNTS, 30])
    ]
    streams += control_bits_growth("two-bit", n=5, write_counts=(10, 100), seed=0)
    paper = [(2, 2.0)] * len(streams)
    measured = [(m.max_control_bits, m.total_control_bits / m.total_messages) for m in streams]
    assert measured == paper


@pytest.mark.parametrize("n", SYSTEM_SIZES)
def test_line3_two_bit_sends_two_control_bits_at_any_n(n):
    """Paper: 2, whatever the system size."""
    measured = measure_control_bits("two-bit", n=n, writes=20, seed=0).max_control_bits
    assert measured == 2


def test_line3_abd_control_bits_grow_with_the_write_count():
    """Paper: unbounded.  ABD's sequence number widens with every doubling of
    the write count."""
    measured = [
        measure_control_bits("abd", n=5, writes=writes, seed=0).max_control_bits
        for writes in WRITE_COUNTS
    ]
    at_least = [3 + math.floor(math.log2(writes)) for writes in WRITE_COUNTS]
    assert all(bits >= floor for bits, floor in zip(measured, at_least)), (measured, at_least)
    assert measured == sorted(measured)
    short, long = control_bits_growth("abd", n=5, write_counts=(10, 100), seed=0)
    assert short.max_control_bits < long.max_control_bits


def test_line3_the_bounded_emulation_stays_under_its_bound():
    """Paper: bounded (O(n^5) for ABD bounded).  The modulo-M stand-in keeps
    a fixed bound at any stream length."""
    bound = 3 + 2 * max(1, (DEFAULT_MODULUS - 1).bit_length())
    measured = [
        measure_control_bits("abd-bounded-emulation", n=5, writes=writes, seed=0).max_control_bits
        for writes in WRITE_COUNTS
    ]
    assert max(measured) <= bound, (measured, bound)


# Line 4: local memory ------------------------------------------------------------


def test_line4_two_bit_memory_grows_with_the_history():
    """Paper: unbounded.  A process keeps every written value (plus the
    initial one) and two arrays of n sequence numbers: ``writes + 1 + 2n``
    words, one more per write."""
    paper = {writes: writes + 1 + 2 * 5 for writes in WRITE_COUNTS}
    measured = {
        writes: measure_local_memory("two-bit", n=5, writes=writes, seed=0).max_words
        for writes in WRITE_COUNTS
    }
    assert measured == paper
    short, long = memory_growth("two-bit", n=5, write_counts=(10, 60), seed=0)
    assert long.max_words - short.max_words == 50


def test_line4_abd_memory_stays_flat():
    """Paper: O(1) words (only their bit-width is unbounded): the same word
    count at every write count."""
    measured = [
        measure_local_memory("abd", n=5, writes=writes, seed=0).max_words for writes in WRITE_COUNTS
    ]
    measured += [m.max_words for m in memory_growth("abd", n=5, write_counts=(10, 60), seed=0)]
    assert len(set(measured)) == 1, measured


@pytest.mark.parametrize("n", [3, 5, 7])
def test_line4_two_bit_memory_is_linear_in_n(n):
    """Paper: the n-dependent part is the two sequence-number arrays, 2n words."""
    measured = measure_local_memory("two-bit", n=n, writes=20, seed=0).max_words
    assert measured == 20 + 1 + 2 * n


# Lines 5-6: time in Δ -------------------------------------------------------------


def contended_run(algorithm: str):
    """Twelve writes racing twelve reads per reader, every delay Δ = 1."""
    return run_workload(
        WorkloadSpec(
            n=5,
            algorithm=algorithm,
            num_writes=12,
            reads_per_reader=12,
            delay_model=FixedDelay(1.0),
            seed=0,
        )
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_line5_write_time(algorithm):
    """Paper: 2 Δ for ABD and the two-bit algorithm, a tight bound."""
    paper = PAPER[algorithm].write_time_delta.value(5)
    measured = latencies_in_delta(isolated_run(algorithm, 5, writes=5), WRITE, 1.0)
    assert measured == pytest.approx([paper] * len(measured))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_line6_read_time(algorithm):
    """Paper: at most 4 Δ.  ABD always takes its two round trips; a quiescent
    two-bit read takes one (2 Δ), and only a read racing a write needs more."""
    paper = PAPER[algorithm].read_time_delta.value(5)
    quiescent = latencies_in_delta(isolated_run(algorithm, 5, writes=5), READ, 1.0)
    contended = latencies_in_delta(contended_run(algorithm), READ, 1.0)
    assert max(quiescent + contended) <= paper + 1e-9
    if algorithm == "abd":
        assert quiescent == pytest.approx([4.0] * len(quiescent))
    else:
        assert quiescent == pytest.approx([2.0] * len(quiescent))
        assert max(contended) > 2.0


def test_lines5_6_time_is_independent_of_n():
    """Paper: 2 Δ and 4 Δ, with no extra round as n grows."""
    for n in SYSTEM_SIZES:
        result = isolated_run("two-bit", n, writes=3)
        writes = latencies_in_delta(result, WRITE, 1.0)
        reads = latencies_in_delta(result, READ, 1.0)
        assert writes == pytest.approx([2.0] * len(writes))
        assert max(reads) <= 4.0 + 1e-9


# The assembled table -------------------------------------------------------------


def test_the_regenerated_table_matches_the_paper():
    """``build_table1`` (what ``repro table1`` prints): the exact cells equal
    the paper's, the bounds and shapes hold."""
    table = build_table1(n=5, writes=20, delta=1.0, seed=0, samples=4)
    n = table.n
    paper = {
        ("write_messages", "two-bit"): n * (n - 1),
        ("write_messages", "abd"): 2 * (n - 1),
        ("read_messages", "two-bit"): 2 * (n - 1),
        ("read_messages", "abd"): 4 * (n - 1),
        ("message_size_bits", "two-bit"): 2,
        ("write_time_delta", "two-bit"): 2.0,
        ("write_time_delta", "abd"): 2.0,
        ("read_time_delta", "abd"): 4.0,
    }
    measured = {cell: table.measured(*cell) for cell in paper}
    assert measured == pytest.approx(paper)
    assert table.measured("read_time_delta", "two-bit") <= 4.0 + 1e-9
    assert table.measured("message_size_bits", "abd") > 2
    # The two-bit algorithm stores the full history; ABD does not.
    assert table.measured("local_memory", "two-bit") > table.measured("local_memory", "abd")
