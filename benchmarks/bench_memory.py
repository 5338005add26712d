"""Columnar memory-plane benchmark: bytes/op, IPC transfer bytes, peak RSS.

The columnar history plane (:mod:`repro.exec.oplog`,
:mod:`repro.verification.history`) exists to make million-op runs
memory-lean: operations live in parallel ``array`` columns with an interned
value table instead of one ``Operation`` object (plus boxed floats, dict and
GC header) per op, and shard workers ship those raw columns to the parent as
pickle protocol-5 out-of-band buffers instead of pickling an object graph.
This benchmark measures both claims on a real ``kv_openloop`` run:

* **history bytes/op** — the deep size of every per-key history's
  materialised ``Operation`` rows (``list(history.operations)``, what a
  history cost when it *was* its rows) against the columns it is stored as
  (raw column bytes plus the shared interned value table).  The committed
  baseline must show a >= 3x reduction;
* **worker->parent transfer bytes** — the legacy payload (the
  ``(scripted index, ExecOp)`` pairs the engine used to pickle through the
  pipe, continuations stripped) against the actual columnar payload bytes
  recorded by a ``workers=2`` run (``result.ipc_bytes``);
* a **probe** at a smaller size whose deterministic fields (op counts, the
  two reduction ratios, columnar transfer bytes) are what
  ``benchmarks/check_bench_regression.py`` gates — cheap enough to
  re-derive in CI;
* **peak RSS** (``ru_maxrss``) and probe-size parallel run/check wall times
  next to the committed ``BENCH_parallel.json`` baselines — recorded for
  the record, never gated (RSS and wall clock depend on the machine; the
  byte counts and ratios do not).

Run modes:

* ``python benchmarks/bench_memory.py`` — full run; writes the committed
  ``BENCH_memory.json``.
* ``python benchmarks/bench_memory.py --quick`` — CI smoke (probe size
  only, asserts the reduction floors, no baseline write).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import pickle
import platform
import resource
import sys
from array import array
from typing import Any, Optional

if __package__ is None or __package__ == "":  # run as a plain script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import report
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_memory.json"
BASELINE_PARALLEL = pathlib.Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: Same workload shape as BENCH_parallel.json so the wall-clock columns are
#: directly comparable to its committed probe runs.
SHAPE = {"num_keys": 64, "arrival_rate": 50.0, "seed": 4}
FULL_OPS = 100_000
PROBE_OPS = 10_000

#: The committed baseline must demonstrate at least these reductions: 3x on
#: history bytes/op (the headline claim), and a real — if smaller — win on
#: transfer bytes, where the columnar floor is ~66 raw column bytes/op
#: against a pickle stream that memoizes repeated keys aggressively.
HISTORY_REDUCTION_FLOOR = 3.0
TRANSFER_REDUCTION_FLOOR = 1.25


def deep_sizeof(root: Any) -> int:
    """Recursive ``sys.getsizeof`` with id-level sharing (each object once).

    Walks containers, ``__dict__`` and ``__slots__``; shared values (interned
    strings, the ``None`` singleton, cached small ints) are counted a single
    time, which is exactly how they occupy memory.
    """
    seen = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, (str, bytes, bytearray, array, int, float, bool)):
            continue
        else:
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


def measure_history(num_ops: int) -> dict:
    """Bytes/op of the per-key history plane, object vs columnar, one run."""
    spec = kv_openloop(num_ops=num_ops, **SHAPE)
    result = run_kv_workload(spec)
    store = result.store

    # Columnar plane: per-key raw column bytes plus the op log's value
    # table, which all per-key histories share (count it once, like memory
    # does).
    histories = store.histories()
    columnar_bytes = sum(h.nbytes() for h in histories.values())
    columnar_bytes += deep_sizeof(store.oplog.interner.values)

    # Object plane: the same histories as rows — one Operation dataclass
    # per operation, a list per key.
    rows = [list(h.operations) for h in histories.values()]
    object_bytes = deep_sizeof(rows)

    operations = sum(len(h) for h in histories.values())
    assert operations == sum(len(key_rows) for key_rows in rows)
    return {
        "num_ops": num_ops,
        "operations": operations,
        "object_bytes": object_bytes,
        "columnar_bytes": columnar_bytes,
        "object_bytes_per_op": round(object_bytes / operations, 1),
        "columnar_bytes_per_op": round(columnar_bytes / operations, 1),
        "reduction": round(object_bytes / columnar_bytes, 2),
    }


def measure_transfer(num_ops: int) -> dict:
    """Worker->parent bytes: legacy pickled ExecOp pairs vs columnar buffers."""
    spec = kv_openloop(num_ops=num_ops, **SHAPE)
    parallel = run_kv_workload(spec.with_(workers=2))
    assert parallel.worker_failure is None, parallel.worker_failure
    columnar_bytes = parallel.ipc_bytes
    assert columnar_bytes > 0, "parallel run recorded no IPC bytes"

    # The legacy payload: every worker pickled its (scripted index, ExecOp)
    # pairs — continuations stripped — through the pipe.  Rebuild it from a
    # serial run of the same spec (the pair set is identical; splitting it
    # across two pickles only adds framing overhead, so this is the
    # *flattering* estimate of the old cost).
    serial = run_kv_workload(spec)
    ops = serial.ops
    saved = [op.on_done for op in ops]
    try:
        for op in ops:
            op.on_done = None
        legacy_bytes = len(pickle.dumps(list(enumerate(ops)), protocol=5))
    finally:
        for op, on_done in zip(ops, saved):
            op.on_done = on_done

    return {
        "num_ops": num_ops,
        "workers": 2,
        "operations": len(ops),
        "legacy_bytes": legacy_bytes,
        "columnar_bytes": columnar_bytes,
        "reduction": round(legacy_bytes / columnar_bytes, 2),
    }


def measure_parallel_wall(worker_counts) -> list:
    """Probe-size run+check wall times next to the committed parallel baseline."""
    from benchmarks.bench_parallel import PROBE_OPS as PARALLEL_PROBE_OPS, timed_run

    baseline_runs: dict = {}
    if BASELINE_PARALLEL.exists():
        with BASELINE_PARALLEL.open() as handle:
            committed = json.load(handle)
        baseline_runs = {
            cell["workers"]: cell for cell in committed["probe"]["runs"]
        }
    cells = []
    for workers in worker_counts:
        cell = timed_run(PARALLEL_PROBE_OPS, workers=workers)
        reference = baseline_runs.get(workers)
        cell["baseline_wall_seconds_run"] = reference and reference["wall_seconds_run"]
        cell["baseline_wall_seconds_check"] = reference and reference["wall_seconds_check"]
        cells.append(cell)
    return cells


def peak_rss_kb() -> int:
    """Peak RSS of this process so far, in KiB (ru_maxrss is KiB on Linux)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - recorded in bytes there
        usage //= 1024
    return usage


def _assert_floors(history: dict, transfer: dict) -> None:
    assert history["reduction"] >= HISTORY_REDUCTION_FLOOR, (
        f"history reduction {history['reduction']}x is below the "
        f"{HISTORY_REDUCTION_FLOOR}x floor"
    )
    assert transfer["reduction"] >= TRANSFER_REDUCTION_FLOOR, (
        f"transfer reduction {transfer['reduction']}x is below the "
        f"{TRANSFER_REDUCTION_FLOOR}x floor"
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="probe size only, assert floors, no baseline write")
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="baseline output path")
    args = parser.parse_args(argv)

    print(f"probe ({PROBE_OPS} ops):")
    probe_history = measure_history(PROBE_OPS)
    probe_transfer = measure_transfer(PROBE_OPS)
    print(
        f"  history: {probe_history['object_bytes_per_op']} -> "
        f"{probe_history['columnar_bytes_per_op']} bytes/op "
        f"({probe_history['reduction']}x)"
    )
    print(
        f"  transfer: {probe_transfer['legacy_bytes']} -> "
        f"{probe_transfer['columnar_bytes']} bytes "
        f"({probe_transfer['reduction']}x)"
    )
    _assert_floors(probe_history, probe_transfer)

    if args.quick:
        print("quick mode: reduction floors verified, baseline not written")
        return 0

    print(f"full ({FULL_OPS} ops):")
    history = measure_history(FULL_OPS)
    transfer = measure_transfer(FULL_OPS)
    _assert_floors(history, transfer)
    wall = measure_parallel_wall((1, 2, 4))

    payload = {
        "benchmark": "columnar_memory_plane",
        "cpus": os.cpu_count() or 1,
        "workload": dict(SHAPE, arrival="poisson"),
        "history": history,
        "transfer": transfer,
        "probe": {"num_ops": PROBE_OPS, "history": probe_history,
                  "transfer": probe_transfer},
        "parallel_wall": wall,
        "peak_rss_kb": peak_rss_kb(),
        "note": (
            "byte counts and reduction ratios are machine-independent and "
            "gated by check_bench_regression.py at the probe size; "
            "peak_rss_kb and the parallel_wall columns are informational "
            "(they depend on the machine; baseline_* columns come from the "
            "committed BENCH_parallel.json probe)"
        ),
        "python": platform.python_version(),
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")

    report(
        f"columnar memory plane ({FULL_OPS} ops) -> {out_path}",
        ["metric", "object/legacy", "columnar", "reduction"],
        [
            ["history bytes/op", history["object_bytes_per_op"],
             history["columnar_bytes_per_op"], f"{history['reduction']}x"],
            ["transfer bytes (workers=2)", transfer["legacy_bytes"],
             transfer["columnar_bytes"], f"{transfer['reduction']}x"],
        ],
    )
    report(
        "parallel probe wall clock vs committed BENCH_parallel.json",
        ["workers", "run s", "baseline run s", "check s", "baseline check s"],
        [
            [cell["workers"], cell["wall_seconds_run"],
             cell["baseline_wall_seconds_run"], cell["wall_seconds_check"],
             cell["baseline_wall_seconds_check"]]
            for cell in wall
        ],
    )
    print(f"peak RSS: {payload['peak_rss_kb']} KiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
