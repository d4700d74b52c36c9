"""In-memory span tracing, installed from the benchmark's own files.

The pattern is a tape of records: every wrapped call appends one span
``(name, start, end, parent, root, label)`` to an in-memory tape, and the
tape is written out once, when the run ends.  Wrappers go around public
calls into each layer (``PlanOp.run``, ``forward_*_trials``,
``popcounts_trials``, ``SenseParameters.offset``, ``load_plan`` ...) by
replacing the attribute on its owner; :meth:`Tracer.uninstall` puts the
originals back.  Nothing in the program itself knows it is traced.

``root`` is the id of the outermost span on the same thread, so every
span of one request, batch or benchmark unit shares it; ``label`` tags a
span (a plan name and batch size, a backend) for grouping.

A span's *self time* is its duration minus the time its children cover.
Children of one span run on the span's own thread, one after another, so
the time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "SpanTable"]


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str, label: str | None = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent, root = (stack[-1], stack[0]) if stack else (None, sid)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = (name, start, end, parent, root, label)

    # -- installation ----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, label=None) -> None:
        """Replace ``owner.attr`` by a traced call.  ``label``, when
        given, maps the call's arguments to the span label."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tag = label(*args, **kwargs) if label is not None else None
            with tracer.span(name, tag):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def table(self) -> "SpanTable":
        return SpanTable(list(self.spans.items()))

    def write(self, path, **extra) -> None:
        """Write the tape (plus ``extra`` fields) as one JSON document."""
        rows = [[sid, *span] for sid, span in sorted(self.spans.items())]
        with open(path, "w") as handle:
            json.dump({"spans": rows, **extra}, handle)


class SpanTable:
    """Read-side view of a tape: trees, self times, groupings."""

    def __init__(self, items):
        self.spans = {sid: span for sid, span in items}
        self.children: dict[int, list[int]] = defaultdict(list)
        for sid, span in self.spans.items():
            if span[3] is not None:
                self.children[span[3]].append(sid)

    @classmethod
    def from_tape(cls, tape: dict) -> "SpanTable":
        """The table of a tape written by :meth:`Tracer.write`."""
        return cls((row[0], tuple(row[1:])) for row in tape["spans"])

    def name(self, sid: int) -> str:
        return self.spans[sid][0]

    def label(self, sid: int):
        return self.spans[sid][5]

    def duration(self, sid: int) -> float:
        span = self.spans[sid]
        return span[2] - span[1]

    def self_time(self, sid: int) -> float:
        return self.duration(sid) - sum(self.duration(c)
                                        for c in self.children[sid])

    def named(self, name: str) -> list[int]:
        return [sid for sid, span in self.spans.items() if span[0] == name]

    def descendants(self, sid: int) -> list[int]:
        out, todo = [], list(self.children[sid])
        while todo:
            child = todo.pop()
            out.append(child)
            todo.extend(self.children[child])
        return out

    def outermost(self, names) -> list[int]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        names = set(names)
        found = []
        for sid, span in self.spans.items():
            if span[0] not in names:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent is None:
                found.append(sid)
        return found

    def self_by_name(self, sid: int) -> dict[str, float]:
        """Self time of ``sid`` and each of its descendants, summed per
        span name; the values add up to the duration of ``sid``."""
        totals: dict[str, float] = defaultdict(float)
        for member in [sid, *self.descendants(sid)]:
            totals[self.name(member)] += self.self_time(member)
        return dict(totals)

    def total_by_name(self, sid: int) -> dict[str, float]:
        """Inclusive time of the outermost descendants of each name."""
        totals: dict[str, float] = defaultdict(float)
        for member in self.descendants(sid):
            name = self.name(member)
            parent = self.spans[member][3]
            nested = False
            while parent is not None and parent != sid:
                if self.name(parent) == name:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                totals[name] += self.duration(member)
        return dict(totals)
