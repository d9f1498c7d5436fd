"""In-memory spans recorded around the benchmark's calls into each layer.

A span carries a name, a start and an end (perf_counter nanoseconds), the
id of the span that was open when it started, and a request id shared by
every span of one user's request (a user id, or the batch a stage runs
over). Spans stay in memory and are written as one JSON file when the run
ends. Nothing inside the program is instrumented: every span wraps one
call from this directory into a public function of `spc`.
"""

from __future__ import annotations

import contextlib
import json
import time


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end",
                 "phase", "attrs")

    def __init__(self, sid, parent, request, name, start, end, phase, attrs):
        self.id = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = end
        self.phase = phase
        self.attrs = attrs

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans; `phase` tags each span with the set-up or pass it
    belongs to."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.phase: tuple | None = None

    @contextlib.contextmanager
    def span(self, name: str, request: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), parent, request, name, 0, 0,
                   self.phase, attrs)
        self.spans.append(rec)
        self._open.append(rec.id)
        rec.start = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter_ns()
            self._open.pop()

    def record(self, name: str, request: str, start: int, end: int,
               **attrs) -> None:
        """Add a leaf span whose bounds the caller already measured."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(len(self.spans), parent, request, name, start,
                               end, self.phase, attrs))

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the part its child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.duration - covered
        return out

    def write(self, path, header: dict) -> None:
        selfs = self.self_times()
        rows = [{"id": s.id, "parent": s.parent, "request": s.request,
                 "name": s.name, "start_ns": s.start, "end_ns": s.end,
                 "self_ns": selfs[s.id], "phase": s.phase,
                 **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**header, "spans": rows}, f, separators=(",", ":"))
            f.write("\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one call and are dropped."""

    enabled = False

    def span(self, name: str, request: str, **attrs):
        return contextlib.nullcontext()

    def record(self, name, request, start, end, **attrs) -> None:
        pass
