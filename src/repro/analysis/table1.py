"""The Table-1 harness: regenerate the paper's evaluation table.

Table 1 of the paper compares four algorithms (ABD with unbounded sequence
numbers, ABD with bounded sequence numbers, Attiya's algorithm, and the
proposed two-bit algorithm) along six axes.  This module measures every axis
for the algorithms this repository executes (``two-bit`` and ``abd``) and
fills in the paper's quoted analytic values for all four columns, so the
output is the paper's table with a "measured" annotation next to each
executable cell.

Measurement methodology (matches the paper's assumptions):

* **message counts** — isolated operations (one at a time, drained to
  quiescence) so every message is attributable to exactly one operation;
  the reported number is the mean over the sampled operations;
* **message size** — the maximum number of control bits observed on the wire
  over a long write stream (data payload excluded for every algorithm);
* **local memory** — per-process word counts after a write stream;
* **time** — operation latency under ``FixedDelay(delta)`` in a failure-free
  run, reported in ``delta`` units (local computation is instantaneous in the
  simulator, exactly as the paper assumes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.bits import measure_control_bits
from repro.analysis.memory import measure_local_memory
from repro.analysis.metrics import latencies_in_delta, messages_per_operation, summarize
from repro.analysis.report import format_number, format_table
from repro.registers.base import OperationKind
from repro.registers.costmodels import TABLE1_METRICS, TABLE1_MODELS, model_by_name
from repro.sim.delays import FixedDelay
from repro.workloads.runner import run_workload
from repro.workloads.spec import WorkloadSpec

#: The algorithms that are executable in this repository, keyed by the
#: cost-model name they correspond to in Table 1.
EXECUTABLE_ALGORITHMS = {"abd": "abd", "two-bit": "two-bit"}


@dataclass(frozen=True)
class Table1Cell:
    """One cell: the paper's formula plus (optionally) our measured value."""

    paper: str
    measured: Optional[float] = None
    measured_detail: str = ""

    def render(self) -> str:
        if self.measured is None:
            return self.paper
        return f"{self.paper} [measured: {format_number(self.measured)}]"


@dataclass
class Table1Row:
    """One row of Table 1 (a metric across the four algorithms)."""

    metric: str
    label: str
    cells: dict[str, Table1Cell] = field(default_factory=dict)


@dataclass
class Table1:
    """The full regenerated table."""

    n: int
    writes: int
    delta: float
    rows: list[Table1Row] = field(default_factory=list)

    def row(self, metric: str) -> Table1Row:
        """Look up a row by metric name."""
        for row in self.rows:
            if row.metric == metric:
                return row
        raise KeyError(f"no row for metric {metric!r}")

    def measured(self, metric: str, algorithm: str) -> Optional[float]:
        """The measured value of one cell (None for non-executable columns)."""
        return self.row(metric).cells[algorithm].measured

    def render(self) -> str:
        """Render the table as text, in the paper's layout (metrics as rows)."""
        headers = ["line", "What is measured"] + [model.display_name for model in TABLE1_MODELS]
        body = []
        for index, row in enumerate(self.rows, start=1):
            body.append(
                [index, row.label] + [row.cells[model.name].render() for model in TABLE1_MODELS]
            )
        title = (
            f"Table 1 — SWMR atomic register algorithms in CAMP(n,t)[t<n/2] "
            f"(measured with n={self.n}, {self.writes} writes, delta={self.delta})"
        )
        return format_table(headers, body, title=title)


def measure_messages(algorithm: str, n: int, samples: int, seed: int) -> tuple[float, float]:
    """Mean messages per write and per read, measured on isolated operations."""
    spec = WorkloadSpec(
        n=n,
        algorithm=algorithm,
        num_writes=samples,
        reads_per_reader=max(1, samples // max(1, n - 1)),
        delay_model=FixedDelay(1.0),
        isolated_operations=True,
        seed=seed,
    )
    result = run_workload(spec)
    writes = messages_per_operation(result, OperationKind.WRITE)
    reads = messages_per_operation(result, OperationKind.READ)
    mean_writes = summarize(writes).mean if writes else float("nan")
    mean_reads = summarize(reads).mean if reads else float("nan")
    return mean_writes, mean_reads


def _measure_latencies(algorithm: str, n: int, delta: float, samples: int, seed: int) -> tuple[float, float]:
    """Write/read latency in delta units.

    Table 1's time rows are *worst-case bounds* in a failure-free run with
    transfer delays bounded by ``delta``:

    * the write bound is measured as the mean latency of isolated writes
      (writes always take exactly one round trip, so mean == max == 2 delta);
    * the read bound is measured as the **maximum** read latency observed
      while reads race with an ongoing write stream — a read that arrives at
      a process which already knows a value the reader has not yet received
      must wait for the dissemination to reach the reader (this is the 4
      delta corner; quiescent reads finish in 2 delta).
    """
    isolated = run_workload(
        WorkloadSpec(
            n=n,
            algorithm=algorithm,
            num_writes=samples,
            reads_per_reader=1,
            delay_model=FixedDelay(delta),
            isolated_operations=True,
            seed=seed,
        )
    )
    write_lat = latencies_in_delta(isolated, OperationKind.WRITE, delta)
    mean_write = summarize(write_lat).mean if write_lat else float("nan")

    contended = run_workload(
        WorkloadSpec(
            n=n,
            algorithm=algorithm,
            num_writes=max(samples, 10),
            reads_per_reader=max(samples, 10),
            delay_model=FixedDelay(delta),
            seed=seed,
        )
    )
    read_lat = latencies_in_delta(contended, OperationKind.READ, delta)
    max_read = summarize(read_lat).maximum if read_lat else float("nan")
    return mean_write, max_read


def build_table1(
    n: int = 5,
    writes: int = 30,
    delta: float = 1.0,
    seed: int = 0,
    samples: int = 6,
    algorithms: Sequence[str] = ("abd", "two-bit"),
) -> Table1:
    """Measure the executable algorithms and assemble the full Table 1.

    Parameters
    ----------
    n:
        System size used for the measurements.
    writes:
        Length of the write stream used for the message-size and local-memory
        rows (the unbounded quantities grow with it).
    delta:
        The message-delay bound used for the latency rows.
    seed:
        Master seed for all measurement runs.
    samples:
        Number of isolated operations sampled per kind for the message-count
        and latency rows.
    algorithms:
        Which executable algorithms to measure (subset of ``{"abd", "two-bit"}``).
    """
    measured: dict[str, dict[str, float]] = {name: {} for name in EXECUTABLE_ALGORITHMS}
    for algorithm in algorithms:
        if algorithm not in EXECUTABLE_ALGORITHMS:
            raise ValueError(
                f"unknown executable algorithm {algorithm!r}; expected one of "
                f"{sorted(EXECUTABLE_ALGORITHMS)}"
            )
        write_msgs, read_msgs = measure_messages(algorithm, n, samples, seed)
        write_time, read_time = _measure_latencies(algorithm, n, delta, samples, seed)
        bits = measure_control_bits(algorithm, n=n, writes=writes, seed=seed)
        memory = measure_local_memory(algorithm, n=n, writes=writes, seed=seed)
        measured[algorithm] = {
            "write_messages": write_msgs,
            "read_messages": read_msgs,
            "message_size_bits": float(bits.max_control_bits),
            "local_memory": float(memory.max_words),
            "write_time_delta": write_time,
            "read_time_delta": read_time,
        }

    table = Table1(n=n, writes=writes, delta=delta)
    for metric, label in TABLE1_METRICS:
        row = Table1Row(metric=metric, label=label)
        for model in TABLE1_MODELS:
            cell_measured = None
            detail = ""
            if model.name in measured and metric in measured[model.name]:
                cell_measured = measured[model.name][metric]
                detail = f"n={n}, writes={writes}"
            row.cells[model.name] = Table1Cell(
                paper=model.row(metric).formula,
                measured=cell_measured,
                measured_detail=detail,
            )
        table.rows.append(row)
    return table


def expected_value(algorithm: str, metric: str, n: int, writes: int = 1) -> float:
    """The analytic (paper) value of one cell, evaluated for concrete ``n``/``writes``."""
    return model_by_name(algorithm).row(metric).value(n, writes)
