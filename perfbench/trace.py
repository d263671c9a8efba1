"""In-memory spans around the benchmark's calls into the engine.

A span has a name, a start, an end, a parent and a trace id (one per timed
iteration).  Spans are kept in memory and written once, when the run ends.
A span's self time is its duration minus the part of it that its child spans
cover, so the self times of one trace add up to its root span's wall time.
Times are ``time.time()`` seconds: bucket timings taken inside Ray workers on
the same host land on the same clock.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace: int | None = None):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if trace is None:
            trace = self.spans[parent]["trace"] if parent is not None else -1
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "parent": parent, "trace": trace,
                           "start": time.time(), "end": None})
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.time()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an interval measured elsewhere (a stage timer, a worker) as a
        child of the innermost open span, clipped to that span's start."""
        if not self.enabled or not self._stack:
            return
        parent = self.spans[self._stack[-1]]
        start = max(start, parent["start"])
        self.spans.append({"id": len(self.spans), "name": name, "parent": parent["id"],
                           "trace": parent["trace"], "start": start, "end": max(end, start)})

    def self_times(self, trace: int) -> dict[str, float]:
        """Self seconds per span name over one trace."""
        spans = [s for s in self.spans if s["trace"] == trace and s["end"] is not None]
        kids: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        out: dict[str, float] = {}
        for s in spans:
            covered, cur = 0.0, s["start"]
            for c in sorted(kids.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], cur), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cur = hi
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out

    def root_wall(self, trace: int) -> float:
        roots = [s for s in self.spans if s["trace"] == trace and s["parent"] is None]
        return sum(s["end"] - s["start"] for s in roots)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
