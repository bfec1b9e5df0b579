"""In-memory span ledger for the traced benchmark runs.

Spans are recorded by the benchmark around its calls into each layer of
the program; nothing inside the program is instrumented. A span has a
name, a start, an end and the span that caused it. Spans stay in memory
and are written out once, at the end of a run.

A span's *self time* is its duration minus the part of its interval
that its child spans cover. Hot per-row calls (the live engine's
per-analysis ``update``) are too many to keep as spans, so they are
*accumulated*: their total time is attached to the span open on the
calling thread, counts as that span's child time, and is reported
under its own layer name.

The root span's self time is the ``unattributed_s`` residue, so the
self times of all layers plus the residue add up to the root's
duration — the traced wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path

#: Span name of the root; its self time is the residue.
ROOT = "wall"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "tid")

    def __init__(self, id, name, start, parent, tid):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start


class Ledger:
    """Records spans from any thread; each thread keeps its own stack of
    open spans, and a span opened on another thread names its parent
    explicitly."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: (parent span id, layer name) -> accumulated seconds.
        self.accumulated: dict[tuple[int, str], float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            next(self._ids), name, self.clock(),
            parent.id if parent is not None else None,
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, parent: Span | None = None):
        opened = self.begin(name, parent)
        try:
            yield opened
        finally:
            self.end(opened)

    def accumulate(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` of layer ``name`` to the open span."""
        parent = self.current()
        if parent is None:
            raise RuntimeError(f"accumulated {name!r} outside any span")
        key = (parent.id, name)
        with self._lock:
            self.accumulated[key] = self.accumulated.get(key, 0.0) + seconds

    def timed(self, name: str, func):
        """Wrap ``func`` so each call accumulates into layer ``name``."""
        clock = self.clock
        accumulate = self.accumulate

        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                accumulate(name, clock() - started)

        return wrapper

    def spanned(self, name: str, func, parent=None):
        """Wrap ``func`` so each call is one span named ``name``;
        ``parent`` is a callable returning the span to hang it under
        (for calls that arrive on another thread)."""

        def wrapper(*args, **kwargs):
            with self.span(name, parent() if parent is not None else None):
                return func(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------- analysis

    def root(self) -> Span:
        roots = [s for s in self.spans if s.name == ROOT and s.parent is None]
        if len(roots) != 1:
            raise RuntimeError(f"expected one root span, found {len(roots)}")
        return roots[0]

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        child_acc: dict[int, float] = {}
        for (parent, _), seconds in self.accumulated.items():
            child_acc[parent] = child_acc.get(parent, 0.0) + seconds
        out = {}
        for span in self.spans:
            covered = _covered(span, children.get(span.id, ()))
            out[span.id] = span.duration - covered - child_acc.get(span.id, 0.0)
        return out

    def layer_times(self) -> dict[str, float]:
        """Self time summed per span (layer) name, accumulated layers
        included; the root's self time appears under :data:`ROOT`."""
        own = self.self_times()
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
        for (_, name), seconds in self.accumulated.items():
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    # --------------------------------------------------------------- export

    def chrome_trace(self) -> dict:
        """The spans as Chrome/Perfetto trace-event JSON ("X" events,
        microseconds); accumulated layers ride along as arguments of the
        span they were charged to."""
        origin = min((s.start for s in self.spans), default=0.0)
        tids = {}
        acc_by_parent: dict[int, dict[str, float]] = {}
        for (parent, name), seconds in self.accumulated.items():
            acc_by_parent.setdefault(parent, {})[name] = round(seconds, 6)
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            event = {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": {"id": span.id, "parent": span.parent},
            }
            if span.id in acc_by_parent:
                event["args"]["accumulated_s"] = acc_by_parent[span.id]
            events.append(event)
        meta = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": "main" if tid == 1 else f"thread-{tid}"}}
            for tid in tids.values()
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.chrome_trace()), encoding="utf-8")


def _covered(parent: Span, children) -> float:
    """Time the children's intervals cover inside the parent's."""
    return union_length(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    )


def union_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def metric_name(span_name: str) -> str:
    """Layer metric for a span name: ``zeek.read`` -> ``zeek.read_s``,
    ``analyze.update.table6`` -> ``analyze.update_s.table6``, and the
    root -> ``unattributed_s``."""
    if span_name == ROOT:
        return "unattributed_s"
    head, _, rest = span_name.partition(".")
    kind, dot, tail = rest.partition(".")
    return f"{head}.{kind}_s{dot}{tail}"


def ledger_metrics(ledger: Ledger) -> dict[str, float]:
    """Self time per layer metric (see :func:`metric_name`), plus the
    traced wall time under ``trace.wall_s``."""
    out: dict[str, float] = {}
    for name, seconds in ledger.layer_times().items():
        key = metric_name(name)
        out[key] = out.get(key, 0.0) + seconds
    out["trace.wall_s"] = ledger.root().duration
    return out
