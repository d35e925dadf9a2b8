"""In-memory spans for the benchmark's traced run.

The benchmark times each layer from the outside: it wraps its own calls
into ``ops5``, ``rete``, ``trace``, ``mpc`` and ``exec`` in spans.  A
span records its name, start, end, parent span and operation id.  The
layer is the name's first dotted component (``rete.add_wme`` belongs to
``rete``).  Spans stay in memory and are written out once, at the end,
as Chrome trace-event JSON that Perfetto loads.

Self time is a span's duration minus the part of it that its child
spans cover, so summing self time by layer splits an operation's wall
time between the layers without counting anything twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    """One timed interval.  Times are ``time.perf_counter`` seconds."""

    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional[int], op: int) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans on one thread; ``add`` takes finished ones."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float, op: int,
            parent: Optional[int] = None) -> int:
        """Record an interval measured elsewhere; returns its index."""
        self.spans.append(Span(name, start, end, parent, op))
        return len(self.spans) - 1


class NullTracer:
    """The untraced run: every span is a no-op."""

    enabled = False
    spans: List[Span] = []
    _null = nullcontext()

    def span(self, name: str, op: int):
        return self._null

    def add(self, name: str, start: float, end: float, op: int,
            parent: Optional[int] = None) -> int:
        return -1


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def layer_self_ms(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per layer, in milliseconds."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own * 1e3
    return totals


def per_op_ms(spans: Sequence[Span], names: Sequence[str],
              use_self: bool = False) -> Dict[int, float]:
    """Milliseconds per operation spent in spans named *names*."""
    wanted = set(names)
    own = self_times(spans) if use_self else None
    totals: Dict[int, float] = {}
    for index, span in enumerate(spans):
        if span.name in wanted:
            value = own[index] if own is not None else span.duration
            totals[span.op] = totals.get(span.op, 0.0) + value * 1e3
    return totals


def chrome_trace(spans: Sequence[Span], label: str) -> Dict[str, object]:
    """Chrome trace-event JSON (Perfetto-loadable), one row per lane.

    Root spans are packed greedily onto lanes so overlapping roots (the
    served workload's concurrent sessions) get rows of their own; every
    span is drawn on its root's lane.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(span.start for span in spans)
    lane_of: Dict[int, int] = {}
    lane_ends: List[float] = []
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 0,
         "args": {"name": label}}]
    for index, span in enumerate(spans):
        if span.parent is None:
            for lane, end in enumerate(lane_ends):
                if end <= span.start:
                    lane_ends[lane] = span.end
                    break
            else:
                lane = len(lane_ends)
                lane_ends.append(span.end)
        else:
            lane = lane_of[span.parent]
        lane_of[index] = lane
        args: Dict[str, object] = {"op": span.op, "span": index}
        if span.parent is not None:
            args["parent"] = span.parent
        events.append({
            "name": span.name, "cat": span.layer, "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 0, "tid": lane, "args": args})
    for lane in range(len(lane_ends)):
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": lane, "args": {"name": f"lane {lane}"}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], label: str,
                       path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, label)),
                    encoding="utf-8")
    return path
