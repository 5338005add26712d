"""Pinned checker outputs: what both checkers say about a fixed corpus.

``pinned_checker_outputs.json`` (committed next to this module) was recorded
at the commit *before* the checkers were moved onto the history columns.
The corpus is every history behind the three golden suites
(``tests/workloads/golden_histories``, ``tests/parallel/golden_parallel``,
``tests/parallel/golden_consensus``), the ``test_checker_negatives`` corpus,
and a seeded set of single-writer histories in which the writer also reads
(the shape the claims checker's writer program-order pass looks at).  For
each one the file holds the Wing–Gong result (verdict, method, operation and
state counts, greedy reads, witness ``op_id`` order) and the per-key
dispatcher's result (method, counts, violation text), plus the claims
report where the history is single-writer.

Regenerate only when the corpus itself changes, never to paper over a
checker drift:

    PYTHONPATH=src python tests/verification/pinned_checker_outputs.py
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
from typing import Any, Dict, Iterator, Optional, Tuple

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


def pin(history: History, spec: Optional[str]) -> Dict[str, Any]:
    """Everything the pinned test compares for one history."""
    pinned = {
        "wing_gong": _result(
            check_linearizability(history, collect_witness=True, spec=get_spec(spec))
        ),
        "per_key": _result(check_histories_per_key({"k": history}, spec=spec).per_key["k"]),
    }
    if spec is None and len(history.writer_pids()) <= 1 and history.written_values_distinct():
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
