"""Outside-in span tracer for the benchmark's traced runs.

The library has no timers of its own, so the traced run wraps the
public entry points of each layer from here: a wrapper opens a span,
calls the original, closes the span and bumps the layer's counters.
Spans stay in memory (one list append per span) and are written as
JSON lines when the run ends, so self times can be recomputed offline.

A span's self time is its duration minus the part of it that its child
spans cover.  Children are spans opened on the same thread while the
parent was the innermost open span; spans opened on another thread
(the service's executor, a client connection) start their own trees.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Span recorder plus named counters."""

    def __init__(self) -> None:
        # Span rows: [name, start_ns, end_ns, parent_index, thread, job].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        row = [name, time.perf_counter_ns(), None, parent,
               threading.get_ident(), job]
        with self._lock:
            self.spans.append(row)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def inside(self, prefix: str) -> bool:
        """Whether a span named ``prefix...`` is open on this thread."""
        return any(self.spans[i][0].startswith(prefix)
                   for i in self._stack())

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, thread, job) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "thread": thread,
                    "job": job}) + "\n")


def load_spans(path) -> list[dict]:
    """Read a span dump written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Self time in seconds of every span, indexed like ``spans``.

    Self time is the span's duration minus the union of its children's
    intervals, each clipped to the parent's interval.  Open spans (no
    end) count as zero.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        if end is None:
            result.append(0.0)
            continue
        covered = 0
        cursor = start
        intervals = sorted(
            (max(spans[c]["start_ns"], start),
             min(spans[c]["end_ns"] or spans[c]["start_ns"], end))
            for c in children[index])
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start - covered) / 1e9)
    return result


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans)):
        totals[span["name"]] += seconds
    return dict(totals)


# ----------------------------------------------------------------------
# Wrapping.

class Patches:
    """Installed wrappers, so the originals can be restored."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def function(self, original, wrapper) -> None:
        """Rebind every ``repro`` module attribute that is ``original``.

        ``from x import f`` copies the binding, so a module-level
        function is replaced wherever the library imported it.
        """
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attribute, wrapper)

    def restore(self) -> None:
        for owner, attribute, value in reversed(self._undo):
            setattr(owner, attribute, value)
        self._undo.clear()


def spanned(tracer: Tracer, original, name, after=None, before=None):
    """``original`` wrapped in a span.

    ``name`` is a span name or a callable of the call's arguments
    returning one.  ``before(args, kwargs)`` runs before the call and
    its return value reaches ``after(state, args, kwargs, result)``,
    which records counters once the call returned.
    """
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        span = tracer.open(name(args) if callable(name) else name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(state, args, kwargs, result)
        return result
    return wrapper
