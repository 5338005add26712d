"""Spawn-safe worker pool primitives.

Everything in :mod:`repro.parallel` funnels its multiprocessing through this
module.  Two constraints shape the design:

* **Spawn, not fork.**  Workers are started with the ``spawn`` context so the
  child re-imports :mod:`repro` from scratch — no inherited simulator state,
  no accidental sharing of RNG streams, and identical behaviour on platforms
  where fork is unavailable or unsafe.  Consequently every task function must
  be module-level (picklable by qualified name) and every payload picklable.
* **Fail fast, never hang.**  A worker that raises reports its traceback over
  its pipe and the parent raises :class:`WorkerFailure` immediately,
  terminating the rest of the pool.  A worker that *dies* without reporting
  (OOM-kill, interpreter abort) is caught by the liveness poll in
  :func:`recv_message` — the parent never blocks forever on a pipe whose
  writer is gone.

The ``REPRO_PARALLEL_POISON`` environment variable deliberately crashes
workers so the failure path itself stays under test (the regression suite in
``tests/parallel/test_worker_failure.py`` sets it).
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, List, Sequence, Tuple

#: Setting this environment variable makes every pool worker raise at startup.
#: ``spawn`` children inherit the parent's environment, so tests can inject a
#: worker crash without patching any code path.  Any non-empty value poisons.
POISON_ENV = "REPRO_PARALLEL_POISON"

#: Seconds between liveness checks while waiting on a worker pipe.  Short
#: enough that a dead worker is noticed promptly, long enough not to spin.
_POLL_INTERVAL = 0.25


class WorkerFailure(RuntimeError):
    """A pool worker raised or died; the parallel run cannot produce a result.

    ``traceback_text`` carries the worker's formatted traceback when the
    worker managed to report one (empty when the process simply vanished).
    The message embeds it so the root cause surfaces even through bare
    ``str(exc)`` formatting.
    """

    def __init__(self, message: str, traceback_text: str = "") -> None:
        if traceback_text:
            message = f"{message}\n--- worker traceback ---\n{traceback_text.rstrip()}"
        super().__init__(message)
        self.traceback_text = traceback_text


def maybe_poison(stage: str) -> None:
    """Raise if ``REPRO_PARALLEL_POISON`` is set (test hook for worker crashes)."""
    value = os.environ.get(POISON_ENV, "")
    if value:
        raise RuntimeError(
            f"poisoned worker ({POISON_ENV}={value!r}) at stage {stage!r}"
        )


def spawn_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used by every repro pool (always spawn)."""
    return multiprocessing.get_context("spawn")


def send_error(conn: Any) -> None:
    """Report the current exception over ``conn``; never raises."""
    try:
        conn.send(("error", traceback.format_exc()))
    except Exception:
        # The parent may already be gone; dying silently is the best option.
        pass


def recv_message(conn: Any, proc: Any, what: str) -> Tuple[str, Any]:
    """Receive one ``(kind, payload)`` message, watching worker liveness.

    Raises :class:`WorkerFailure` if the worker exited without sending
    anything (dead process, empty pipe) instead of blocking forever.
    """
    while True:
        try:
            if conn.poll(_POLL_INTERVAL):
                return conn.recv()
        except (EOFError, OSError):
            proc.join(_POLL_INTERVAL)  # the pipe closes an instant before the exit status lands
            raise WorkerFailure(
                f"worker {proc.name} closed its pipe while the parent was "
                f"waiting for {what} (exitcode={proc.exitcode})"
            )
        if not proc.is_alive():
            # Drain a message that raced with the exit before declaring death.
            try:
                if conn.poll(0):
                    return conn.recv()
            except (EOFError, OSError):
                pass
            raise WorkerFailure(
                f"worker {proc.name} died without reporting while the parent "
                f"was waiting for {what} (exitcode={proc.exitcode})"
            )


def terminate_all(procs: Iterable[Any]) -> None:
    """Terminate and reap every process in ``procs``; never raises."""
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(timeout=5.0)
        except Exception:
            pass


def round_robin_chunks(count: int, workers: int) -> List[List[int]]:
    """Deal indices ``0..count-1`` round-robin into ``workers`` chunks.

    Round-robin (rather than contiguous slices) balances sweeps whose cost
    varies systematically with position, e.g. a rate sweep where later cells
    are heavier.  Deterministic by construction.
    """
    return [list(range(start, count, workers)) for start in range(workers)]


def _chunk_main(conn: Any, fn: Callable[[Any], Any], chunk: List[Tuple[int, Any]]) -> None:
    """Worker entry point for :func:`run_chunked` (module-level for spawn)."""
    try:
        maybe_poison("chunk")
        conn.send(("ok", [(index, fn(item)) for index, item in chunk]))
    except BaseException:
        send_error(conn)
    finally:
        conn.close()


def run_chunked(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> List[Any]:
    """Apply ``fn`` to every item across ``workers`` spawn processes.

    Items are dealt round-robin into one chunk per worker; results come back
    in input order, exactly as ``[fn(item) for item in items]`` would produce
    them.  ``fn`` must be a module-level function and items/results must be
    picklable.  With ``workers <= 1`` (or at most one item) everything runs
    in-process — no spawn cost, byte-identical to the serial map.

    Raises :class:`WorkerFailure` as soon as any worker errors or dies; the
    remaining workers are terminated, never awaited.
    """
    items = list(items)
    workers = max(1, min(int(workers), len(items)))
    if workers <= 1:
        return [fn(item) for item in items]

    ctx = spawn_context()
    chunks = [
        [(index, items[index]) for index in chunk_indices]
        for chunk_indices in round_robin_chunks(len(items), workers)
    ]
    procs = []
    conns = []
    results: List[Any] = [None] * len(items)
    try:
        for worker_index, chunk in enumerate(chunks):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_chunk_main,
                args=(child_conn, fn, chunk),
                name=f"repro-pool-{worker_index}",
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        # Whichever worker reports, closes its pipe or dies first is read
        # first: a failure never waits behind a slower worker's chunk.
        pending = dict(zip(conns, procs))
        while pending:
            ready = wait(list(pending), timeout=_POLL_INTERVAL) or [
                conn for conn, proc in pending.items() if not proc.is_alive()
            ]
            for conn in ready:
                proc = pending.pop(conn)
                kind, payload = recv_message(conn, proc, "chunk results")
                if kind == "error":
                    raise WorkerFailure(
                        f"worker {proc.name} raised while mapping a chunk",
                        traceback_text=payload,
                    )
                if kind != "ok":  # pragma: no cover - protocol invariant
                    raise WorkerFailure(
                        f"worker {proc.name} sent unexpected message kind {kind!r}"
                    )
                for index, value in payload:
                    results[index] = value
        for proc in procs:
            proc.join()
        return results
    finally:
        terminate_all(procs)
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass
