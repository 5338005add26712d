"""Measurement and reporting: regenerating the paper's Table 1.

* :mod:`repro.analysis.metrics` — small statistics helpers (means,
  percentiles, per-operation aggregation) used across benchmarks;
* :mod:`repro.analysis.bits` — measuring the control-information size of
  messages on the wire for a running algorithm;
* :mod:`repro.analysis.memory` — measuring per-process local-memory growth;
* :mod:`repro.analysis.table1` — the Table-1 harness: one function per row
  plus :func:`build_table1` assembling the whole table (paper value next to
  measured value);
* :mod:`repro.analysis.report` — plain-text table rendering.
"""

from repro.analysis.metrics import summarize
from repro.analysis.table1 import Table1, Table1Cell, Table1Row, build_table1
from repro.analysis.report import format_table

__all__ = [
    "Table1",
    "Table1Cell",
    "Table1Row",
    "build_table1",
    "format_table",
    "summarize",
]
