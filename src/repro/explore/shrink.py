"""Delta-debugging shrinker: violating schedule -> minimal reproducer.

When the explorer finds a non-linearizable execution the raw case is noisy:
dozens of operations, dozens of delivery choices, faults that may be
irrelevant.  :func:`shrink_case` minimizes it with Zeller–Hildebrandt
*ddmin* [ZH02]_ over each ingredient in turn:

1. the **operation script** (remove operations — not just a prefix — while
   the violation persists; shrinking re-*executes* the store, it never
   edits a recorded history, so a shrunken case is a genuine standalone
   reproducer);
2. the **fault schedule** (drop crash points / the partition window when
   the violation survives without them);
3. the **delivery choices** (remove recorded picks; a removed pick's slot
   delivers the earliest message in flight).

Every probe is one deterministic store run, so shrinking is itself
deterministic: the same violating case shrinks to the same minimal case on
every run (asserted by the tests and the CI explore job).

.. [ZH02] A. Zeller, R. Hildebrandt, *Simplifying and isolating
   failure-inducing input*, IEEE TSE 28(2), 2002.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from repro.explore.case import ExploreCase

Item = TypeVar("Item")


def ddmin(
    items: Sequence[Item],
    still_fails: Callable[[List[Item]], bool],
) -> List[Item]:
    """Zeller's ddmin: a 1-minimal failing subsequence of ``items``.

    ``still_fails(subset)`` re-runs the test on a candidate subsequence
    (order preserved).  ``items`` itself must be failing; the result is
    failing and 1-minimal (removing any single remaining item passes).
    """
    items = list(items)
    granularity = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // granularity)
        reduced = False
        start = 0
        while start < len(items):
            complement = items[:start] + items[start + chunk :]
            if complement and still_fails(complement):
                items = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            start += chunk
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def shrink_case(
    case: ExploreCase,
    fails: Callable[[ExploreCase], bool],
    focus_keys: Optional[Sequence[str]] = None,
) -> ExploreCase:
    """Minimize a failing case (``fails(case)`` must already be True).

    First tries restricting the script to ``focus_keys`` (the keys the
    checker reported as violating — delays and choices are scoped per key,
    so other keys' operations cannot influence them), then
    applies ddmin to the op script, tries dropping each fault, ddmin on the
    delivery choices, and iterates to a fixpoint.  Deterministic: no
    randomness anywhere, so identical inputs shrink identically.
    """
    if not fails(case):
        raise ValueError("shrink_case needs a failing case to start from")

    if focus_keys:
        wanted = set(focus_keys)
        focused = case.with_(ops=tuple(op for op in case.ops if op.key in wanted))
        if focused.ops and len(focused.ops) < len(case.ops) and fails(focused):
            case = focused

    def truncate_tail(current: ExploreCase) -> ExploreCase:
        """Cheap pre-pass: find a short failing *prefix* by bisection.

        Operations after the violation can never contribute to it, and a
        prefix keeps arrival times, slots and per-link message ordinals of
        the surviving operations aligned with the original schedule — so
        this pass shrinks fast without disturbing the choices.  (Failing
        prefixes are not monotone, so this finds *a* failing prefix, not
        the minimal one; ddmin refines afterwards.)
        """
        ops = list(current.ops)
        low, high = 1, len(ops)
        best = current
        while low < high:
            middle = (low + high) // 2
            candidate = current.with_(ops=tuple(ops[:middle]))
            if fails(candidate):
                high = middle
                best = candidate
            else:
                low = middle + 1
        return best

    def shrink_ops(current: ExploreCase) -> ExploreCase:
        if len(current.ops) < 2:
            return current
        minimal_ops = ddmin(
            list(current.ops), lambda subset: fails(current.with_(ops=tuple(subset)))
        )
        return current.with_(ops=tuple(minimal_ops))

    def shrink_faults(current: ExploreCase) -> ExploreCase:
        if current.partition is not None:
            without = current.with_(partition=None)
            if fails(without):
                current = without
        for index in range(len(current.crash_points) - 1, -1, -1):
            points = current.crash_points[:index] + current.crash_points[index + 1 :]
            without = current.with_(crash_points=points)
            if fails(without):
                current = without
        return current

    def shrink_choices(current: ExploreCase) -> ExploreCase:
        if not current.choices:
            return current
        entries = list(current.choices)
        if len(entries) == 1:
            without = current.with_(choices=())
            return without if fails(without) else current
        minimal = ddmin(entries, lambda subset: fails(current.with_(choices=tuple(subset))))
        # ddmin never probes the empty subset; try it last.
        candidate = current.with_(choices=tuple(minimal))
        empty = current.with_(choices=())
        if fails(empty):
            return empty
        return candidate

    def size(current: ExploreCase) -> tuple:
        faults = len(current.crash_points) + (current.partition is not None)
        return len(current.ops), faults, len(current.choices)

    # Iterate to a fixpoint: dropping a fault or delivery choices can
    # make further operations removable and vice versa.  Each pass only ever
    # keeps a failing case, so the loop is monotone in the size and bounded.
    for _round in range(5):
        size_before = size(case)
        case = truncate_tail(case)
        case = shrink_ops(case)
        case = shrink_faults(case)
        case = shrink_choices(case)
        if size(case) == size_before:
            break
    return case
