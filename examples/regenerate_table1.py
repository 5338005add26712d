#!/usr/bin/env python3
"""Regenerate the paper's Table 1 (the whole evaluation) from measurements.

For the two executable columns (ABD with unbounded sequence numbers and the
proposed two-bit algorithm) every cell is *measured* on the simulator; the
bounded-control-information columns reproduce the analytic values the paper
quotes from the literature (DESIGN.md §5 names those substitutions).

Run it with::

    python examples/regenerate_table1.py            # default n=5
    python examples/regenerate_table1.py 7 50       # n=7, 50-write streams
"""

from __future__ import annotations

import sys

from repro.analysis.bits import control_bits_growth
from repro.analysis.memory import memory_growth
from repro.analysis.report import format_table
from repro.analysis.table1 import build_table1


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    writes = int(sys.argv[2]) if len(sys.argv) > 2 else 30

    print(f"measuring with n={n}, write streams of {writes} values ... (a few seconds)\n")
    table = build_table1(n=n, writes=writes, delta=1.0, seed=0)
    print(table.render())

    # The "unbounded vs constant" rows deserve a growth curve, not a single cell.
    print("\nGrowth of the maximum control information per message (bits):")
    counts = (10, 50, 200)
    rows = []
    for algorithm in ("abd", "two-bit"):
        growth = control_bits_growth(algorithm, n=n, write_counts=counts, seed=0)
        rows.append([algorithm] + [m.max_control_bits for m in growth])
    print(format_table(["algorithm"] + [f"{c} writes" for c in counts], rows))

    print("\nGrowth of per-process local memory (words):")
    rows = []
    for algorithm in ("abd", "two-bit"):
        growth = memory_growth(algorithm, n=n, write_counts=counts, seed=0)
        rows.append([algorithm] + [m.max_words for m in growth])
    print(format_table(["algorithm"] + [f"{c} writes" for c in counts], rows))

    print(
        "\nReading the table: the two-bit column trades O(n^2) write messages and "
        "unbounded local memory for constant-size messages (2 control bits) and "
        "ABD-level time complexity (2 delta writes, <= 4 delta reads)."
    )


if __name__ == "__main__":
    main()
