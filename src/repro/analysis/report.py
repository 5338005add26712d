"""Plain-text rendering: tables, metrics snapshots, and a run with its verdict.

:func:`format_table` is the primitive (Table-1 harness, examples, every CLI
command).  :func:`format_run` renders any keyed run from its
``KVWorkloadResult.summary()`` dict — the one place that knows how a
virtual-clock and a wall-clock run read — and :func:`report_run` is the tail
every checking command ends in: table to stdout, failures to stderr, exit
status.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table.

    Cells are stringified with ``str``; ``None`` renders as ``"-"``.
    """
    str_rows = [["-" if cell is None else str(cell) for cell in row] for row in rows]
    str_headers = [str(header) for header in headers]
    widths = [len(header) for header in str_headers]
    for row in str_rows:
        if len(row) != len(str_headers):
            raise ValueError(
                f"row has {len(row)} cells but the table has {len(str_headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    separator = "-+-".join("-" * width for width in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(str_headers))
    lines.append(separator)
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def format_metrics(snapshot: dict) -> str:
    """Render a :class:`~repro.exec.metrics.MetricsCollector` snapshot as a table.

    One row per operation kind with latency percentiles, plus summary rows
    for throughput and the message bill — titled and labelled in the clock
    the snapshot was taken on (virtual time, or wall-clock seconds).
    """
    wall = "wall_throughput" in snapshot
    clock = "wall-clock seconds" if wall else "virtual time"
    rows: list[list[object]] = []
    for kind in ("read", "write", "all"):
        summary = snapshot.get("latency", {}).get(kind)
        if summary is None:
            continue
        rows.append(
            [
                kind,
                summary["count"],
                format_number(summary["mean"], 3),
                format_number(summary["p50"], 3),
                format_number(summary["p95"], 3),
                format_number(summary["p99"], 3),
                format_number(summary["max"], 3),
            ]
        )
    table = format_table(
        ["kind", "ops", "mean", "p50", "p95", "p99", "max"],
        rows,
        title=f"operation latency ({clock})",
    )
    lines = [table]
    if wall:
        # Wall-clock (live-transport) snapshot: virtual throughput is null by
        # construction, so report the ops/second number instead.
        throughput_note = (
            f" wall throughput {format_number(snapshot.get('wall_throughput'), 3)} ops/s"
        )
    else:
        throughput_note = (
            f" virtual throughput {format_number(snapshot.get('virtual_throughput', 0.0), 3)}"
            " ops/time-unit"
        )
    lines.append(
        f"completed {snapshot.get('completed', 0)} / issued {snapshot.get('issued', 0)}"
        f" (failed {snapshot.get('failed', 0)});" + throughput_note
    )
    messages = snapshot.get("messages", {})
    if messages:
        per_op = messages.get("per_completed_op")
        lines.append(
            f"messages: {messages.get('total', 0)} total"
            + (f", {format_number(per_op, 2)} per completed op" if per_op is not None else "")
        )
        by_type = messages.get("by_type") or {}
        if by_type:
            mix = ", ".join(f"{name}={count}" for name, count in sorted(by_type.items()))
            lines.append(f"message mix: {mix}")
    return "\n".join(lines)


def format_number(value: float, digits: int = 2) -> str:
    """Format a measured number compactly (integers without a decimal point)."""
    if value is None:
        return "-"
    if value == float("inf"):
        return "unbounded"
    if abs(value - round(value)) < 1e-9:
        return str(int(round(value)))
    return f"{value:.{digits}f}"


def format_run(summary: Dict[str, Any], title: str, lead: Sequence[Sequence[object]] = ()) -> str:
    """Render a keyed run's ``summary(verdict)`` as the CLI's metric/value table.

    ``lead`` rows (the command's echo of its own parameters) come first; the
    result rows follow in one fixed order, and a row whose value the run's
    backend has no notion of (``None`` in the summary) is simply absent.
    """
    virtual = summary["clock"] == "virtual"
    wire = summary["wire"]
    latency = summary["latency"] or {}
    rows: List[List[object]] = [list(row) for row in lead]

    def row(label: str, value: object) -> None:
        if value is not None:
            rows.append([label, value])

    if wire:
        replicas = len(wire["replica_connections"])
        row("transport", f"live (asyncio loopback, {replicas} replica processes)")
    else:
        row("transport", "sim (virtual time)")
    if not summary["finished_cleanly"]:
        row("finished cleanly", "NO (operations unsubmitted, pending or failed at the deadline)")
    row("operations submitted", summary["submitted"])
    row("operations completed", summary["completed"])
    row("operations failed", summary["failed"])
    row("server crashes fired", summary["crashes_fired"])
    if virtual:
        coalesced = summary["coalesced"]
        row("message coalescing", "off" if coalesced is None else f"on ({coalesced} coalesced)")
    row("batches driven", summary["batches"])
    if summary["ipc_bytes"]:
        row("worker->parent transfer", f"{summary['ipc_bytes']} bytes (columnar)")
    row("total messages", summary["messages"])
    row("max control bits / message", summary["max_control_bits"])
    if virtual:
        row("virtual makespan", round(summary["virtual_makespan"], 2))
        row("ops per virtual time unit", format_number(summary["virtual_throughput"], 3))
        row("mean sojourn (virtual time)", format_number(latency.get("mean"), 3))
    else:
        row("wall seconds", round(summary["wall_seconds"], 3))
        row("ops per wall second", summary["wall_throughput"])
        row(
            "wall p50 / p95 / p99",
            " / ".join(
                "-" if latency.get(p) is None else f"{latency[p] * 1000.0:.1f} ms"
                for p in ("p50", "p95", "p99")
            ),
        )
    smr = summary["checked_against"] == "smr"
    if "atomic" in summary:
        if smr:
            label = "per-key SMR-linearizable"
        else:
            label = "per-key atomic" if virtual else "per-key linearizable"
        row(label, f"yes ({summary['keys_checked']} keys)" if summary["atomic"] else "NO")
        violations = summary["consensus_violations"]
        if violations is not None:
            row(
                "agreement/validity invariants",
                f"{len(violations)} violation(s)" if violations else "hold",
            )
    return format_table(["metric", "value"], rows, title=title)


def format_connections(wire: Dict[str, Any]) -> str:
    """Per-connection byte/frame/flush table of a live run's ``wire`` section."""
    sided = [(f"client {row['worker']}", row) for row in wire.get("client_connections", [])]
    for replica, rows in sorted(wire.get("replica_connections", {}).items()):
        sided.extend((f"replica {replica}", row) for row in rows)
    table = [
        [
            side,
            row.get("label", "?"),
            row["bytes_in"],
            row["bytes_out"],
            row["frames_in"],
            row["frames_out"],
            row["batches_out"],
            round(row["frames_out"] / row["batches_out"], 2) if row["batches_out"] else "-",
            row["frames_dropped"],
        ]
        for side, row in sided
    ]
    table.append(
        [
            "totals",
            f"frames/flush {format_number(wire.get('frames_per_flush'), 2)}",
            "", "", "", "", "",
            f"client bytes/op {format_number(wire.get('client_bytes_per_op'), 1)}",
            "",
        ]
    )
    return format_table(
        ["side", "connection", "bytes in", "bytes out", "frames in",
         "frames out", "flushes", "frames/flush", "dropped"],
        table,
        title="per-connection transport stats (also in the JSON metrics snapshot)",
    )


def report_run(table: str, failures: Sequence[str], what: str = "run") -> int:
    """Print a command's table and its verdict; returns the exit status.

    ``0`` when ``failures`` is empty; otherwise every failure goes to stderr
    under a ``<what> failures:`` heading and the status is ``1``.  Every
    checking CLI command returns through here, so "what failed" always reads
    the same and always names the offending key.
    """
    if table:
        print(table)
    if not failures:
        return 0
    print(f"\n{what} failures:", file=sys.stderr)
    for failure in failures:
        print(f"  - {failure}", file=sys.stderr)
    return 1
