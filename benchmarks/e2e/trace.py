"""Spans recorded from outside: wrappers around ``src/repro``'s public functions.

Nothing under ``src/`` knows it is being traced.  :func:`tracing` patches
the classes and modules named in :data:`SITES` *before* the store or
cluster under test is built (hot paths cache bound methods, so a wrapper
installed later would be bypassed) and restores them afterwards.  Every
call through a wrapper becomes one span ``(site, tag, parent, start, end)``
in preallocated arrays; a site belongs to a layer (a module name of
``src/repro``), and a layer's **self time** is the duration of its spans
minus the part their child spans cover — so the layers of one root span sum
to its wall time exactly, and whatever no wrapper saw is the root's own self
time (``bench.unattributed_frac``).

Replica server processes are spawned with a fresh interpreter and are never
patched; their cost is read from ``/proc`` and from drained counters.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import struct
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer of the root span every traced repetition runs under.
ROOT_LAYER = "bench"

#: ``(module, owner class or None, attribute, layer)`` — the span sites.
#: A missing name is skipped (its time then falls to the enclosing span),
#: so a later refactor of ``src/`` cannot break the benchmark, only blur it.
SITES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.scheduler", "Simulator", "step", "sim.scheduler"),
    ("repro.sim.scheduler", "Simulator", "run_until", "sim.scheduler"),
    ("repro.sim.network", "Network", "send", "sim.network"),
    # The scheduled delivery action: sim.network's half of every event.
    ("repro.sim.network", "_Delivery", "__call__", "sim.network"),
    ("repro.transport.runtime", "ProcessBase", "deliver", "transport.runtime"),
    ("repro.transport.runtime", "ProcessBase", "check_guards", "transport.runtime"),
    ("repro.quorum.engine", "PhaseRegisterProcess", "start_phase", "quorum.engine"),
    ("repro.quorum.engine", "PhaseRegisterProcess", "phase_reply", "quorum.engine"),
    ("repro.quorum.engine", "QuorumCollector", "accept", "quorum.engine"),
    ("repro.store.store", "KVStore", "submit_put", "store"),
    ("repro.store.store", "KVStore", "submit_get", "store"),
    ("repro.store.store", "KVStore", "submit_op", "store"),
    ("repro.store.store", "KVStore", "drive", "store"),
    ("repro.exec.target", "StoreTarget", "route", "store"),
    ("repro.exec.driver", "Driver", "new_op", "exec.driver"),
    ("repro.exec.driver", "Driver", "submit", "exec.driver"),
    ("repro.exec.driver", "Driver", "drive", "exec.driver"),
    ("repro.exec.oplog", "OpLog", "note_created", "exec.oplog"),
    ("repro.exec.oplog", "OpLog", "note_submitted", "exec.oplog"),
    ("repro.exec.oplog", "OpLog", "note_issued", "exec.oplog"),
    ("repro.exec.oplog", "OpLog", "note_completed", "exec.oplog"),
    ("repro.exec.oplog", "OpLog", "note_failed", "exec.oplog"),
    ("repro.exec.oplog", "OpLog", "per_key_histories", "exec.oplog"),
    ("repro.workloads.kv", None, "run_kv_workload", "workloads.kv"),
    ("repro.workloads.kv", None, "iter_kv_operations", "workloads.kv"),
    ("repro.store.store", "KVStore", "histories", "verification"),
    ("repro.verification.linearizability", None, "check_histories_per_key", "verification"),
    ("repro.transport.live", "Connection", "send", "transport.live"),
    ("repro.transport.codec_binary", "BinaryWireCodec", "encode", "transport.codec_binary"),
    ("repro.transport.codec_binary", "BinaryWireCodec", "decode", "transport.codec_binary"),
    ("repro.transport.framing", "FrameDecoder", "feed", "transport.framing"),
    ("repro.transport.framing", "BatchWriter", "send", "transport.framing"),
)

#: Algorithm code is found by class, not by name: every ``ProcessBase``
#: subclass's own ``on_message`` / ``invoke_*`` is a site of the layer its
#: module belongs to, and guard actions (the continuation of a quorum wait)
#: are billed to the process that registered them, not to the guard scan.
ALGORITHM_LAYERS = (
    ("repro.core.", "core"),
    ("repro.consensus.", "consensus.mmr"),
    ("repro.registers.", "registers"),
)
INVOKE_METHODS = ("invoke_read", "invoke_write", "invoke_operation")


class SpanRecorder:
    """Preallocated span arrays plus the open-span cursor."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.sites: List[Tuple[str, str]] = []  # site id -> (site name, layer)
        self.capacity = capacity
        self.n = 0
        self.site = array("H", bytes(2 * capacity))
        self.tag = array("i", bytes(4 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.start = array("d", bytes(8 * capacity))
        self.end = array("d", bytes(8 * capacity))
        #: Index of the innermost open span (-1 at top level).
        self.current = -1
        #: Repetition / operation id stamped on spans opened from now on.
        self.current_tag = 0
        #: Calls of a counted site that returned ``False`` (stale replies).
        self.false_returns: Dict[int, int] = {}

    def site_id(self, name: str, layer: str) -> int:
        self.sites.append((name, layer))
        return len(self.sites) - 1

    def _grow(self) -> None:
        for column in (self.site, self.tag, self.parent, self.start, self.end):
            column.extend(bytes(column.itemsize * self.capacity))
        self.capacity *= 2

    def open(self, site: int) -> int:
        index = self.n
        if index >= self.capacity:
            self._grow()
        self.n = index + 1
        self.site[index] = site
        self.tag[index] = self.current_tag
        self.parent[index] = self.current
        self.current = index
        self.start[index] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.current = self.parent[index]

    @contextlib.contextmanager
    def span(self, name: str, layer: str = ROOT_LAYER) -> Iterator[int]:
        """An explicit span from the benchmark's own code (the root span)."""
        index = self.open(self.site_id(name, layer))
        try:
            yield index
        finally:
            self.close(index)

    # ------------------------------------------------------------- wrappers

    def wrap(self, site: int, function: Callable[..., Any]) -> Callable[..., Any]:
        open_span, close_span = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span(site)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def wrap_counting_false(self, site: int, function: Callable[..., Any]) -> Callable[..., Any]:
        open_span, close_span, falses = self.open, self.close, self.false_returns
        falses[site] = 0

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span(site)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(index)
            if result is False:
                falses[site] += 1
            return result

        return traced

    def wrap_generator(self, site: int, function: Callable[..., Any]) -> Callable[..., Any]:
        """One span per ``next()``: a generator's body runs while it is pulled."""
        open_span, close_span = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = function(*args, **kwargs)
            while True:
                index = open_span(site)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    close_span(index)
                yield item

        return traced

    def wrap_add_guard(self, sites: Dict[type, int], function: Callable[..., Any]):
        """Bill a guard's action to the algorithm that registered the guard."""
        open_span, close_span = self.open, self.close

        def add_guard(process: Any, predicate: Any, action: Any, label: str = "") -> Any:
            site = sites.get(type(process))
            if site is None:
                return function(process, predicate, action, label)

            def traced_action() -> None:
                index = open_span(site)
                try:
                    action()
                finally:
                    close_span(index)

            return function(process, predicate, traced_action, label)

        return add_guard


def _algorithm_layer(cls: type) -> Optional[str]:
    for prefix, layer in ALGORITHM_LAYERS:
        if cls.__module__.startswith(prefix):
            return layer
    return None


def _all_subclasses(cls: type) -> List[type]:
    found, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


@contextlib.contextmanager
def tracing(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper, yield, then put the originals back."""
    patched: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Any) -> None:
        patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    importlib.import_module("repro.registers.registry")  # loads every algorithm
    runtime = importlib.import_module("repro.transport.runtime")
    try:
        for module_name, class_name, attribute, layer in SITES:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name, None)
            original = None if owner is None else vars(owner).get(attribute)
            if original is None:
                continue
            label = f"{class_name + '.' if class_name else ''}{attribute}"
            site = recorder.site_id(label, layer)
            if inspect.isgeneratorfunction(original):
                patch(owner, attribute, recorder.wrap_generator(site, original))
            elif attribute == "phase_reply":
                patch(owner, attribute, recorder.wrap_counting_false(site, original))
            else:
                patch(owner, attribute, recorder.wrap(site, original))
        guard_sites: Dict[type, int] = {}
        for cls in _all_subclasses(runtime.ProcessBase):
            layer = _algorithm_layer(cls)
            if layer is None:
                continue
            guard_sites[cls] = recorder.site_id(f"{cls.__name__}.<guard action>", layer)
            if "on_message" in vars(cls):
                site = recorder.site_id(f"{cls.__name__}.on_message", layer)
                patch(cls, "on_message", recorder.wrap(site, vars(cls)["on_message"]))
        # invoke_* live on the shared base class: one wrapper, billed by the
        # concrete class of the process it is called on.
        base = importlib.import_module("repro.registers.base").RegisterProcess
        for attribute in INVOKE_METHODS:
            original = vars(base).get(attribute)
            if original is not None:
                patch(base, attribute, _wrap_by_class(recorder, attribute, original))
        patch(
            runtime.ProcessBase,
            "add_guard",
            recorder.wrap_add_guard(guard_sites, vars(runtime.ProcessBase)["add_guard"]),
        )
        yield recorder
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def _wrap_by_class(recorder: SpanRecorder, attribute: str, function: Callable[..., Any]):
    sites: Dict[type, Optional[int]] = {}
    open_span, close_span = recorder.open, recorder.close

    def traced(process: Any, *args: Any, **kwargs: Any) -> Any:
        cls = type(process)
        site = sites.get(cls, -1)
        if site == -1:
            layer = _algorithm_layer(cls)
            site = sites[cls] = (
                None if layer is None else recorder.site_id(f"{cls.__name__}.{attribute}", layer)
            )
        if site is None:
            return function(process, *args, **kwargs)
        index = open_span(site)
        try:
            return function(process, *args, **kwargs)
        finally:
            close_span(index)

    return traced


# ------------------------------------------------------------------ analysis


class SpanTable:
    """The closed spans of one traced run, as read back from memory or disk."""

    def __init__(
        self,
        header: Dict[str, Any],
        site: array,
        tag: array,
        parent: array,
        start: array,
        end: array,
    ) -> None:
        self.header = header
        self.sites: List[Tuple[str, str]] = [tuple(pair) for pair in header["sites"]]
        self.site, self.tag, self.parent, self.start, self.end = site, tag, parent, start, end

    def __len__(self) -> int:
        return len(self.site)

    def self_seconds(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children."""
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(len(start))]
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer; the values sum to the roots' wall time."""
        totals: Dict[str, float] = {}
        layers = [layer for _, layer in self.sites]
        site = self.site
        for i, seconds in enumerate(self.self_seconds()):
            layer = layers[site[i]]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def site_totals(self) -> Dict[str, Tuple[int, float]]:
        """Per site name: (calls, summed span duration)."""
        calls = [0] * len(self.sites)
        seconds = [0.0] * len(self.sites)
        site, start, end = self.site, self.start, self.end
        for i in range(len(site)):
            calls[site[i]] += 1
            seconds[site[i]] += end[i] - start[i]
        merged: Dict[str, Tuple[int, float]] = {}
        for (name, _layer), count, total in zip(self.sites, calls, seconds):
            previous = merged.get(name, (0, 0.0))
            merged[name] = (previous[0] + count, previous[1] + total)
        return merged

    def root_seconds(self) -> float:
        """Wall time covered by the top-level spans."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.site)) if self.parent[i] < 0
        )


def table_from(recorder: SpanRecorder, header: Dict[str, Any]) -> SpanTable:
    n = recorder.n
    header = dict(header, sites=[list(pair) for pair in recorder.sites], spans=n)
    return SpanTable(
        header,
        recorder.site[:n],
        recorder.tag[:n],
        recorder.parent[:n],
        recorder.start[:n],
        recorder.end[:n],
    )


_MAGIC = b"E2ESPANS1\n"


def write_spans(path: str, table: SpanTable) -> None:
    """``magic, u32 header length, JSON header, then the five columns``."""
    header = json.dumps(table.header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<I", len(header)))
        handle.write(header)
        for column in (table.site, table.tag, table.parent, table.start, table.end):
            column.tofile(handle)


def read_spans(path: str) -> SpanTable:
    with open(path, "rb") as handle:
        if handle.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a spans file written by benchmarks.e2e")
        (length,) = struct.unpack("<I", handle.read(4))
        header = json.loads(handle.read(length).decode("utf-8"))
        columns = []
        for typecode in ("H", "i", "i", "d", "d"):
            column = array(typecode)
            column.fromfile(handle, header["spans"])
            columns.append(column)
    return SpanTable(header, *columns)
