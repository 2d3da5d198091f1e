"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: wrappers placed
around calls into each layer's public functions on the instances the
benchmark builds, plus the simulator's dispatch hook
(``EventLoop.profile``).  Nothing inside ``src/`` changes.

Each span has a name, a start, an end and a parent.  A span's name is
``"<layer>.<what>"``; the layer is the part before the first dot.  Spans
live in flat typed arrays while the run goes on and are written out when
it ends (:meth:`Tracer.dump`).

Self time is a span's duration minus the durations of its children.
Summed per layer, self times cover exactly the time spent inside some
top-level span; the remainder of the traced window is reported as the
``unattributed`` row, so the rows always add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from typing import Any, Callable, Sequence

__all__ = [
    "Tracer",
    "DispatchHook",
    "self_times",
    "layer_of_module",
    "LAYERS",
]

#: Layer rows of the per-layer report, in print order.
LAYERS = (
    "net",
    "transport",
    "core",
    "data",
    "obs",
    "cluster",
    "chaos",
    "runtime",
    "bench",
    "idle",
    "unattributed",
)

#: Module prefix -> layer, most specific first.
_MODULE_LAYERS = (
    ("repro.net.", "net"),
    ("repro.transport.", "transport"),
    ("repro.core.", "core"),
    ("repro.data.", "data"),
    ("repro.obs.", "obs"),
    ("repro.cluster.", "cluster"),
    ("repro.chaos.", "chaos"),
    ("repro.runtime.", "runtime"),
    ("perfbench.", "bench"),
)


def layer_of_module(module: str | None) -> str:
    """The layer a callable belongs to, from its defining module."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module.startswith(prefix):
                return layer
    return "unattributed"


def callable_label(fn: Any) -> tuple[str, str]:
    """``(layer, qualified name)`` of a scheduled callback."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    func = getattr(fn, "__func__", fn)
    module = getattr(func, "__module__", None)
    name = getattr(func, "__qualname__", None) or type(fn).__name__
    return layer_of_module(module), name


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Per-span self time: duration minus the durations of its children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


class Tracer:
    """Records nested spans into flat arrays; single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        #: Event counters kept at the same boundaries as the spans.
        self.counts: dict[str, float] = {}
        self.window_start = 0.0
        self.window_end = 0.0

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, nid: int, t0: float) -> int:
        idx = len(self.start)
        stack = self._stack
        self.start.append(t0)
        self.end.append(t0)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        stack.append(idx)
        return idx

    def close(self, idx: int, t1: float) -> None:
        self.end[idx] = t1
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_call(*args)`` (optional) runs before ``fn`` to update
        counters at the same boundary.
        """
        nid = self.name_id(name)
        clock = self.clock

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = self.open(nid, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx, clock())

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_method(self, obj: Any, attr: str, name: str, on_call=None) -> None:
        """Replace ``obj.attr`` (a bound method) by a traced wrapper."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), on_call))

    # ------------------------------------------------------------------
    def begin_window(self) -> None:
        """Forget everything recorded so far and start the traced window.

        Spans still open (the caller's own frames) are kept, clipped to
        start at the window's start.
        """
        open_names = [self.name[i] for i in self._stack]
        for arr in (self.start, self.end, self.name, self.parent):
            del arr[:]
        self._stack.clear()
        self.counts.clear()
        self.window_start = self.clock()
        for nid in open_names:
            self.open(nid, self.window_start)

    def end_window(self) -> None:
        self.window_end = self.clock()

    @property
    def spans(self) -> int:
        return len(self.start)

    def self_by_name(self) -> dict[str, float]:
        own = self_times(self.start, self.end, self.parent)
        totals: dict[str, float] = {}
        names = self._names
        for nid, t in zip(self.name, own):
            key = names[nid]
            totals[key] = totals.get(key, 0.0) + t
        return totals

    def inclusive_by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, total inclusive seconds)``."""
        out: dict[str, list] = {}
        names = self._names
        for nid, s, e in zip(self.name, self.start, self.end):
            row = out.setdefault(names[nid], [0, 0.0])
            row[0] += 1
            row[1] += e - s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer; rows sum to the traced window's wall."""
        rows = {layer: 0.0 for layer in LAYERS}
        covered = 0.0
        for name, t in self.self_by_name().items():
            layer = name.split(".", 1)[0]
            if layer not in rows:
                layer = "unattributed"
            rows[layer] += t
            covered += t
        wall = self.window_end - self.window_start
        rows["unattributed"] += wall - covered
        return rows

    def dump(self, path: str, meta: dict | None = None) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = {
            "format": "perfbench-spans-1",
            "spans": self.spans,
            "names": self._names,
            "window": [self.window_start, self.window_end],
            "arrays": ["start:d", "end:d", "name:i", "parent:i"],
            "meta": meta or {},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)


class DispatchHook:
    """``EventLoop.profile`` adapter: one span per dispatched callback.

    The loop reads ``clock()`` just before a callback and again just
    after it, then calls ``account``.  The first read opens the span, so
    spans the callback opens nest inside it; ``account`` names the span
    after the callback's layer and qualified name and closes it.  The
    hook also tallies dispatches and the heap depth the loop reports.
    """

    _PENDING = "unattributed.dispatch"

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._now = tracer.clock
        self._open: int | None = None
        self._labels: dict[Any, int] = {}
        self._pending = tracer.name_id(self._PENDING)

    def begin_run(self, epoch: bool = False) -> None:
        pass

    def end_run(self) -> None:
        pass

    def clock(self) -> float:
        t = self._now()
        if self._open is None:
            self._open = self.tracer.open(self._pending, t)
        return t

    def account(self, callback, t0: float, t1: float, depth: int, when: float) -> None:
        idx, self._open = self._open, None
        func = getattr(callback, "__func__", callback)
        nid = self._labels.get(func)
        tracer = self.tracer
        if nid is None:
            layer, qualname = callable_label(callback)
            nid = self._labels[func] = tracer.name_id(f"{layer}.dispatch:{qualname}")
        tracer.name[idx] = nid
        tracer.close(idx, t1)
        counts = tracer.counts
        counts["net.events"] = counts.get("net.events", 0) + 1
        counts["net.depth_sum"] = counts.get("net.depth_sum", 0) + depth
