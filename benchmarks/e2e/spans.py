"""Outside-in span tracer.

The benchmark wraps *its own* calls into each layer's public functions
in spans; nothing inside ``src/repro`` is instrumented.  Spans stay in
memory (one tuple append per span) and are written as a chrome-trace
JSON when the run ends, so tracing costs the traced pass two clock
reads per span and nothing else.

A span's **self time** is its duration minus the part covered by its
direct children.  The self times of one pass therefore sum to the pass
wall exactly; what the trace can get wrong is only how much of that sum
sits in the pass span itself (time inside the pass but inside no layer
span), which is what ``trace.residual_frac`` reports.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Span", "Tracer", "NO_TRACE"]


@dataclass
class Span:
    name: str
    start: float            # perf_counter seconds
    end: float
    parent: int | None      # index into Tracer.spans
    pass_id: int | None
    track: str              # chrome-trace thread row
    ops: int = 1            # tiles or requests the span covers

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoTrace:
    """Stands in for a Tracer in untraced runs: spans cost nothing."""

    @staticmethod
    def span(name: str, pass_id: int | None = None, ops: int = 1):
        return nullcontext()


NO_TRACE = _NoTrace()


class Tracer:
    """Collects nested spans per thread; ``record`` adds a span whose
    start and end were measured elsewhere (an asynchronous request)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, pass_id: int | None = None, ops: int = 1):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if pass_id is None and parent is not None:
            pass_id = self.spans[parent].pass_id
        span = Span(name, time.perf_counter(), 0.0, parent, pass_id,
                    threading.current_thread().name, ops)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def record(self, name: str, start: float, end: float, *,
               pass_id: int | None = None, track: str = "requests") -> None:
        with self._lock:
            self.spans.append(Span(name, start, end, None, pass_id, track))

    # -- analysis --------------------------------------------------------

    def self_times(self, root_name: str) -> list[dict[str, float]]:
        """Per span named ``root_name``: ``{span name: self seconds}``
        over that span's whole subtree (the root's own entry is the
        time inside it that no child span covers)."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent].append(index)
        out = []
        for index, span in enumerate(self.spans):
            if span.name != root_name:
                continue
            acc: dict[str, float] = defaultdict(float)
            todo = [index]
            while todo:
                at = todo.pop()
                node = self.spans[at]
                kids = children.get(at, [])
                acc[node.name] += node.duration - sum(
                    self.spans[k].duration for k in kids)
                todo.extend(kids)
            out.append(dict(acc))
        return out

    def per_op(self, name: str, ops: int | None = None) -> list[float]:
        """Seconds per operation of every span called ``name`` (only those
        covering exactly ``ops`` operations, when given)."""
        return [s.duration / s.ops for s in self.spans
                if s.name == name and (ops is None or s.ops == ops)]

    # -- output ----------------------------------------------------------

    def write_chrome(self, path: Path, metadata: dict | None = None) -> None:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto).
        Complete ("X") events, microseconds from the first span."""
        origin = min((s.start for s in self.spans), default=0.0)
        tracks = {name: tid for tid, name in
                  enumerate(sorted({s.track for s in self.spans}))}
        events = [
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
             "args": {"name": name}}
            for name, tid in tracks.items()
        ]
        for index, span in enumerate(self.spans):
            events.append({
                "ph": "X", "pid": 1, "tid": tracks[span.track],
                "name": span.name,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"id": index, "parent": span.parent,
                         "pass": span.pass_id, "ops": span.ops},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "metadata": metadata or {}}))
