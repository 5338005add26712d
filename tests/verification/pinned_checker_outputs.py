"""Pinned checker outputs: what both checkers say about a fixed corpus.

``pinned_checker_outputs.json`` (committed next to this module) was recorded
at the commit *before* the checkers were moved onto the history columns.
The corpus is every history behind the three golden suites
(``tests/workloads/golden_histories``, ``tests/parallel/golden_parallel``,
``tests/parallel/golden_consensus``), the ``test_checker_negatives`` corpus,
a seeded set of single-writer histories in which the writer also reads
(the shape the claims checker's writer program-order pass looks at), and
four seeded single-writer histories of 1,200 operations with planted
violations, pending writes, same-instant ties and rows out of invocation
order (the claims checker's sweep at scale).  For
each one the file holds the Wing–Gong result (verdict, method, operation and
state counts, greedy reads, witness ``op_id`` order) and the per-key
dispatcher's result (method, counts, violation text), plus the claims
report where the history is single-writer.

Regenerate only when the corpus itself changes, never to paper over a
checker drift:

    PYTHONPATH=src python tests/verification/pinned_checker_outputs.py
"""

from __future__ import annotations

import bisect
import json
import pathlib
import random
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

# The corpus reuses the golden suites' spec matrices, which live next to
# their own tests.
_TESTS = pathlib.Path(__file__).resolve().parent.parent
for _sibling in ("workloads", "parallel", "verification"):
    if str(_TESTS / _sibling) not in sys.path:
        sys.path.insert(0, str(_TESTS / _sibling))

from golden_consensus import golden_cases as consensus_cases  # noqa: E402
from golden_histories import golden_specs  # noqa: E402
from golden_parallel import golden_cases as parallel_cases  # noqa: E402
from test_checker_negatives import negative_corpus  # noqa: E402

from repro.verification.history import History, make_history  # noqa: E402
from repro.verification.linearizability import (  # noqa: E402
    check_histories_per_key,
    check_linearizability,
)
from repro.verification.register_checker import check_swmr_atomicity  # noqa: E402
from repro.verification.specs import get_spec  # noqa: E402
from repro.workloads.kv import run_kv_workload  # noqa: E402
from repro.workloads.runner import run_workload  # noqa: E402
from repro.workloads.spec import REGISTER_KEY  # noqa: E402

PINNED_PATH = pathlib.Path(__file__).with_name("pinned_checker_outputs.json")


def writer_read_histories(count: int = 40, seed: int = 15) -> Dict[str, History]:
    """Seeded single-writer histories whose writer interleaves reads with its writes.

    The writer is sequential with strictly positive think time; two other
    processes read at arbitrary intervals.  Most reads return the value
    current when they start and the rest a neighbouring one, so about half
    the histories violate some claim.
    """
    rng = random.Random(seed)
    corpus: Dict[str, History] = {}
    for case in range(count):
        steps = [rng.random() < 0.5 for _ in range(rng.randint(2, 12))]
        values = ["v0"] + [f"v{i}" for i in range(1, sum(steps) + 1)]
        entries = []
        clock, written = 0.0, 0
        for is_write in steps:
            start = clock + rng.choice([0.25, 0.5, 1.0])
            clock = start + rng.choice([0.5, 1.0, 2.0])
            if is_write:
                written += 1
                entries.append((0, "write", f"v{written}", start, clock))
            else:
                entries.append((0, "read", _near(rng, values, written), start, clock))
        writes = [entry for entry in entries if entry[1] == "write"]
        for reader in range(rng.randint(0, 4)):
            start = rng.uniform(0.0, clock + 2.0)
            current = sum(1 for write in writes if write[4] < start)
            entries.append(
                (1 + reader % 2, "read", _near(rng, values, current), start, start + rng.uniform(0.1, 3.0))
            )
        corpus[f"writer-reads/{case:02d}"] = make_history(entries, initial_value="v0")
    return corpus


def _near(rng: random.Random, values: list, current: int) -> Any:
    """Usually ``values[current]``; one time in six its stale or future neighbour."""
    offset = rng.choice([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1])
    return values[min(max(current + offset, 0), len(values) - 1)]


#: (row order, pending final write?) for each long history.
LONG_SHAPES = [
    ("invocation", False),
    ("by-process", True),
    ("shuffled", True),
    ("reversed", False),
]


def long_swmr_histories(ops: int = 1200, seed: int = 37) -> Dict[str, History]:
    """Seeded single-writer histories of ``ops`` operations with planted violations.

    The writer ``p0`` interleaves writes with its own reads; three readers
    read back to back.  Every boundary time sits on a 0.5 grid and think
    times are often zero, so same-instant ties abound: a read invoked at the
    instant a write responds, a process's next operation invoked at the
    instant its last one responds.  Reads return the value current at a
    random point of their interval, so the history is atomic until
    :func:`_plant` corrupts a few reads of each claim and program-order
    kind.  Rows are emitted in the order ``LONG_SHAPES`` names, and a
    pending final write is optional, as a crash leaves it.
    """
    rng = random.Random(seed)
    corpus: Dict[str, History] = {}
    for order, pending in LONG_SHAPES:
        # (pid, is_write, value-or-result, invoked, responded, linearization point)
        ops_: list = []
        clock, written = 0.0, 0
        while len(ops_) < ops // 3:
            start = clock + rng.choice([0.0, 0.0, 0.5])
            clock = start + rng.choice([0.5, 1.0, 1.5])
            point = rng.uniform(start, clock)
            if rng.random() < 0.6:
                written += 1
                ops_.append([0, True, f"v{written}", start, clock, point])
            else:
                ops_.append([0, False, None, start, clock, point])
        if pending:
            ops_[-1][1:3] = [True, f"v{written + 1}"]
            ops_[-1][4] = None
            if rng.random() < 0.5:
                ops_[-1][5] = float("inf")  # never took effect
        horizon = clock
        for reader in (1, 2, 3):
            at = rng.choice([0.0, 0.5])
            while at < horizon:
                end = at + rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])
                ops_.append([reader, False, None, at, end, rng.uniform(at, end)])
                at = end + rng.choice([0.0, 0.0, 0.5])
        effects = sorted((op[5], op[2]) for op in ops_ if op[1])
        times = [time for time, _value in effects]
        for op in ops_:
            if not op[1]:
                taken = bisect.bisect_left(times, op[5])
                op[2] = effects[taken - 1][1] if taken else "v0"
        _plant(rng, ops_)
        if order == "invocation":
            ops_.sort(key=lambda op: op[3])
        elif order == "shuffled":
            rng.shuffle(ops_)
        elif order == "reversed":
            ops_.reverse()
        entries = [
            (pid, "write" if is_write else "read", payload, start, end)
            for pid, is_write, payload, start, end, _point in ops_
        ]
        corpus[f"long-swmr/{order}"] = make_history(entries, initial_value="v0")
    return corpus


def _plant(rng: random.Random, ops_: list) -> None:
    """Corrupt a few reads of ``ops_`` so every claim and refinement fires.

    * Claim 1 — a read returns a write invoked after it responded;
    * Claim 2 — a read returns a value older than a write completed before it;
    * Claim 3 — a read returns a value older than an earlier, completed read's;
    * writer order — a writer read invoked as its own write responds returns
      the value before it, or responds as the next write is invoked and
      returns that one;
    * reader order — a reader's read invoked as its last read responds
      returns the value before that one's.
    """
    number = {"v0": 0}
    number.update((op[2], index) for index, op in enumerate((o for o in ops_ if o[1]), 1))
    value = {index: name for name, index in number.items()}
    writes = [op for op in ops_ if op[1]]
    reads = [op for op in ops_ if not op[1]]

    def newest_before(time: float) -> int:
        return max((number[w[2]] for w in writes if w[4] is not None and w[4] < time), default=0)

    def plant(candidates: list, result) -> None:
        for read in rng.sample(candidates, min(3, len(candidates))):
            read[2] = value[result(read)]

    late = [r for r in reads if any(w[3] > r[4] for w in writes)]
    plant(late, lambda r: min(number[w[2]] for w in writes if w[3] > r[4]))
    stale = [r for r in reads if r[0] and newest_before(r[3]) >= 2]
    plant(stale, lambda r: newest_before(r[3]) - 2)
    # Reads that start after an earlier read saw a write still in progress.
    seen = {id(r): max((number[e[2]] for e in reads if e[4] < r[3]), default=0) for r in reads}
    inverted = [r for r in reads if r[0] and seen[id(r)] > newest_before(r[3])]
    plant(inverted, lambda r: newest_before(r[3]))
    by_writer = [op for op in ops_ if op[0] == 0]
    after_own = [b for a, b in zip(by_writer, by_writer[1:]) if a[1] and not b[1] and a[4] == b[3]]
    plant(after_own, lambda r: number[by_writer[by_writer.index(r) - 1][2]] - 1)
    before_own = [a for a, b in zip(by_writer, by_writer[1:]) if not a[1] and b[1] and a[4] == b[3]]
    plant(before_own, lambda r: number[by_writer[by_writer.index(r) + 1][2]])
    for reader in (1, 2):
        mine = [op for op in ops_ if op[0] == reader]
        follow = [b for a, b in zip(mine, mine[1:]) if a[4] == b[3] and number[a[2]] >= 1]
        plant(follow, lambda r, mine=mine: number[mine[mine.index(r) - 1][2]] - 1)


def corpus() -> Iterator[Tuple[str, History, Optional[str]]]:
    """``(name, history, sequential spec name)`` for every pinned history."""
    for name, spec in sorted(golden_specs().items()):
        yield f"register/{name}", run_workload(spec).history(REGISTER_KEY), None
    for family, cases in (("parallel", parallel_cases()), ("consensus", consensus_cases())):
        for name, (spec, _workers) in sorted(cases.items()):
            store = run_kv_workload(spec).store
            for key, history in sorted(store.histories().items(), key=lambda item: str(item[0])):
                yield f"{family}/{name}/{key}", history, store.config.effective_spec()
    for name, (history, _swmr) in sorted(negative_corpus().items()):
        yield f"negative/{name}", history, None
    for name, history in writer_read_histories().items():
        yield name, history, None
    for name, history in long_swmr_histories().items():
        yield name, history, None


def _result(result: Any) -> Dict[str, Any]:
    return {
        "linearizable": result.linearizable,
        "method": result.method,
        "operations": result.operations,
        "states_explored": result.states_explored,
        "greedy_reads": result.greedy_reads,
        "violations": list(result.violations),
        "witness": None if result.witness is None else [op.op_id for op in result.witness],
    }


def _distinct(values: List[Any]) -> bool:
    """No two of ``values`` are equal (compared pairwise when one is unhashable)."""
    try:
        return len(values) == len(set(values))
    except TypeError:
        return not any(left == right for i, left in enumerate(values) for right in values[i + 1 :])


def pin(history: History, spec: Optional[str]) -> Dict[str, Any]:
    """Everything the pinned test compares for one history."""
    pinned = {
        "wing_gong": _result(
            check_linearizability(history, collect_witness=True, spec=get_spec(spec))
        ),
        "per_key": _result(check_histories_per_key({"k": history}, spec=spec).per_key["k"]),
    }
    writes = [op for op in history.operations if op.is_write]
    one_writer = len({op.pid for op in writes}) <= 1
    if spec is None and one_writer and _distinct([history.initial_value] + [op.value for op in writes]):
        claims = check_swmr_atomicity(history, raise_on_violation=False)
        pinned["claims"] = {
            "ok": claims.ok,
            "violations": list(claims.violations),
            "reads_checked": claims.reads_checked,
            "writes_checked": claims.writes_checked,
            "max_read_lag": claims.max_read_lag,
        }
    return pinned


def regenerate() -> None:
    lines = [
        f" {json.dumps(name)}: {json.dumps(pin(history, spec), sort_keys=True)}"
        for name, history, spec in corpus()
    ]
    PINNED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {PINNED_PATH} ({len(lines)} histories)")


if __name__ == "__main__":
    regenerate()
