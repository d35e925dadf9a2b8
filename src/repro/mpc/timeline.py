"""Per-event simulation timelines: typed spans, recorded on demand.

The paper's contribution is the *analysis* of why speedups saturate, not
the speedup numbers themselves — yet a :class:`~repro.mpc.metrics
.SimResult` only carries end-of-run aggregates.  This module records,
when explicitly asked to, everything the event loop does as **typed
spans** on a per-cycle timeline: the broadcast, the constant tests,
every token add/delete, every successor generation, every message send
/ transit / receive, and (on the fault path) every ack, retransmission,
timeout wait and stall.  The result is exportable three ways —

* :func:`chrome_trace` — Chrome trace-event JSON, loadable in Perfetto
  or ``chrome://tracing``;
* :func:`timeline_jsonl` — one JSON object per span, for ad-hoc
  analysis;
* :func:`gantt` — an ASCII per-cycle Gantt chart for the terminal —

and, through :mod:`repro.mpc.attribution`, decomposable into the
paper's Section 5 idle-time limiter categories.

Strictly opt-in
---------------
Recording is enabled by setting ``RunConfig(recorder=
TimelineRecorder())``.  It is a hook in the simulator's one event loop
(:func:`repro.mpc.simulator.simulate_cycle`): each hook site only
appends spans and never touches the timing arithmetic, so a recorded
run returns a bit-identical :class:`~repro.mpc.metrics.SimResult` (the
``recorder_invisible`` oracle), and without a recorder the loop pays
one branch per hook site.  The spans double as a cross-check of the
simulator itself: per-processor span durations sum exactly to
``CycleResult.proc_busy_us`` and the latest busy span ends exactly at
``CycleResult.makespan_us`` (see :meth:`CycleTimeline.reconcile`).
With the paper's cost models every time constant is a multiple of
0.5 µs, so all of this arithmetic is exact in floating point and
"exactly" means ``==``, not "within epsilon".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Dict, Iterator, List, Optional, Sequence

from .costmodel import CostModel, OverheadModel
from .metrics import CycleResult

#: Pseudo-processor rows for spans not on a match processor.
CONTROL = -1
NETWORK = -2

# -- span categories (the typed vocabulary) -------------------------------
CAT_BROADCAST = "broadcast"          # control sends the cycle's wme packet
CAT_CONSTANT_TESTS = "constant_tests"
CAT_RECV = "recv"                    # message receive overhead
CAT_TOKEN_ADD = "token_add"          # hash-bucket insert (+ search extra)
CAT_TOKEN_DELETE = "token_delete"    # hash-bucket delete (+ search extra)
CAT_SUCCESSOR = "successor"          # successor generation, one per token
CAT_SEND = "send"                    # message send overhead
CAT_TRANSIT = "transit"              # in-flight on the network
CAT_ACK = "ack"                      # ack handling (fault path)
CAT_RETRANSMIT = "retransmit"        # lost-copy resend (fault path)
CAT_TIMEOUT_WAIT = "timeout_wait"    # sender's retransmit timeout (idle)
CAT_STALL = "stall"                  # processor unavailable (idle)

#: Categories that are *not* busy work: they explain idleness instead.
IDLE_CATEGORIES = frozenset({CAT_TIMEOUT_WAIT, CAT_STALL})

CATEGORIES = (CAT_BROADCAST, CAT_CONSTANT_TESTS, CAT_RECV, CAT_TOKEN_ADD,
              CAT_TOKEN_DELETE, CAT_SUCCESSOR, CAT_SEND, CAT_TRANSIT,
              CAT_ACK, CAT_RETRANSMIT, CAT_TIMEOUT_WAIT, CAT_STALL)


@dataclass(slots=True, frozen=True)
class Span:
    """One typed interval on one row of a cycle timeline.

    ``proc`` is a match-processor index, or :data:`CONTROL` /
    :data:`NETWORK`.  ``act_id`` ties the span to the trace activation
    it processes or carries (-1 when not applicable).
    """

    category: str
    proc: int
    start_us: float
    end_us: float
    act_id: int = -1

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def is_busy(self) -> bool:
        return self.category not in IDLE_CATEGORIES


@dataclass(slots=True, frozen=True)
class Envelope:
    """One activation's full processing interval on its processor.

    The fine-grained spans inside it (recv, token, successors, sends)
    are for display; the envelope is the unit the attribution pass and
    the critical-path walk reason about.  ``wait_comm_us`` /
    ``wait_protocol_us`` record how much of the *delivery delay* of the
    message that triggered this envelope was pure communication
    (send overhead + latency + jitter) vs protocol waiting (retransmit
    timeouts); both are zero for locally generated tokens.
    """

    act_id: int
    parent_id: Optional[int]
    proc: int
    start_us: float
    end_us: float
    via_message: bool
    wait_comm_us: float = 0.0
    wait_protocol_us: float = 0.0

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass(slots=True)
class CycleTimeline:
    """Every span and envelope of one simulated cycle.

    With round compression a run of consecutive identical fully-idle
    cycles is recorded once with ``repeat`` set to the run length: the
    spans describe the first cycle of the stretch (``index``), and the
    section-level accountings (:attr:`Timeline.total_us`,
    :meth:`Timeline.cycle_offsets_us`) scale by ``repeat`` — exact,
    since every makespan is a multiple of 0.5 µs.
    """

    index: int
    n_procs: int
    makespan_us: float
    proc_busy_us: List[float]
    spans: List[Span]
    envelopes: List[Envelope]
    #: How many consecutive identical cycles this entry stands for.
    repeat: int = 1

    def spans_for(self, proc: int) -> List[Span]:
        return [s for s in self.spans if s.proc == proc]

    def busy_from_spans(self) -> List[float]:
        """Per-processor busy time recomputed from the spans alone."""
        totals = [0.0] * self.n_procs
        for span in self.spans:
            if span.proc >= 0 and span.is_busy:
                totals[span.proc] += span.end_us - span.start_us
        return totals

    def control_busy_from_spans(self) -> float:
        return sum(s.end_us - s.start_us for s in self.spans
                   if s.proc == CONTROL and s.is_busy)

    def network_busy_from_spans(self) -> float:
        return sum(s.end_us - s.start_us for s in self.spans
                   if s.proc == NETWORK and s.is_busy)

    def max_busy_end_us(self) -> float:
        """Latest end of any busy span on a processor or control."""
        return max((s.end_us for s in self.spans
                    if s.proc >= CONTROL and s.is_busy), default=0.0)

    def reconcile(self, result: CycleResult, *,
                  exact: bool = True, rel_tol: float = 1e-9) -> None:
        """Assert this timeline accounts for *result*'s timing.

        Checks that per-processor span durations sum to
        ``proc_busy_us``, control spans to ``control_busy_us``, network
        transits to ``network_busy_us``, and that the latest busy span
        ends at ``makespan_us``.  With *exact* (the default) equality
        must be bit-for-bit — valid for any cost model whose constants
        are multiples of 0.5 µs, i.e. every model in the paper; pass
        ``exact=False`` for arbitrary float costs.  Raises
        :class:`ValueError` on any discrepancy.
        """
        def close(a: float, b: float) -> bool:
            if exact:
                return a == b
            return abs(a - b) <= rel_tol * max(1.0, abs(a), abs(b))

        busy = self.busy_from_spans()
        for p, (got, want) in enumerate(zip(busy, result.proc_busy_us)):
            if not close(got, want):
                raise ValueError(
                    f"cycle {self.index}: proc {p} span total {got!r} "
                    f"!= proc_busy_us {want!r}")
        if not close(self.control_busy_from_spans(),
                     result.control_busy_us):
            raise ValueError(
                f"cycle {self.index}: control span total "
                f"{self.control_busy_from_spans()!r} != "
                f"control_busy_us {result.control_busy_us!r}")
        if not close(self.network_busy_from_spans(),
                     result.network_busy_us):
            raise ValueError(
                f"cycle {self.index}: network span total "
                f"{self.network_busy_from_spans()!r} != "
                f"network_busy_us {result.network_busy_us!r}")
        if not close(self.max_busy_end_us(), result.makespan_us):
            raise ValueError(
                f"cycle {self.index}: latest busy span ends at "
                f"{self.max_busy_end_us()!r}, makespan is "
                f"{result.makespan_us!r}")


@dataclass(slots=True)
class Timeline:
    """A whole recorded section: config echo plus one entry per cycle."""

    trace_name: str
    n_procs: int
    costs: CostModel
    overheads: OverheadModel
    faulty: bool = False
    cycles: List[CycleTimeline] = field(default_factory=list)

    def __iter__(self) -> Iterator[CycleTimeline]:
        return iter(self.cycles)

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def total_us(self) -> float:
        # ``m * 1 == m`` bit-for-bit, so this matches the pre-repeat
        # accounting exactly on uncompressed timelines.
        return sum(c.makespan_us * c.repeat for c in self.cycles)

    def n_cycles(self) -> int:
        """Number of simulated cycles (compressed runs counted in full)."""
        return sum(c.repeat for c in self.cycles)

    def cycle_offsets_us(self) -> List[float]:
        """Absolute start time of each recorded entry (cycles are
        serialized; a compressed entry advances by ``repeat`` cycles)."""
        offsets = []
        t = 0.0
        for cycle in self.cycles:
            offsets.append(t)
            t += cycle.makespan_us * cycle.repeat
        return offsets

    def longest_cycle(self) -> CycleTimeline:
        if not self.cycles:
            raise ValueError("empty timeline")
        return max(self.cycles, key=lambda c: c.makespan_us)


class TimelineRecorder:
    """Opt-in span collector: set ``RunConfig(recorder=...)``.

    After the run, :attr:`timeline` holds the recorded
    :class:`Timeline`.  A recorder can be reused; each
    ``simulate_config`` call replaces the previous timeline.
    """

    def __init__(self) -> None:
        self.timeline: Optional[Timeline] = None

    def begin_section(self, trace_name: str, n_procs: int,
                      costs: CostModel, overheads: OverheadModel,
                      faulty: bool) -> None:
        self.timeline = Timeline(trace_name=trace_name, n_procs=n_procs,
                                 costs=costs, overheads=overheads,
                                 faulty=faulty)

    def add_cycle(self, cycle: CycleTimeline) -> None:
        assert self.timeline is not None, \
            "add_cycle before begin_section"
        self.timeline.cycles.append(cycle)


# ---------------------------------------------------------------------------
# Exports: Chrome trace-event JSON, JSONL spans, ASCII Gantt.
# ---------------------------------------------------------------------------

def _thread_ids(n_procs: int) -> Dict[int, int]:
    """Chrome tid per row: control first, then procs, network last."""
    tids = {CONTROL: 0, NETWORK: n_procs + 1}
    for p in range(n_procs):
        tids[p] = p + 1
    return tids


def _thread_name(proc: int) -> str:
    if proc == CONTROL:
        return "control"
    if proc == NETWORK:
        return "network"
    return f"proc {proc}"


def chrome_trace(timeline: Timeline) -> Dict[str, object]:
    """The timeline as a Chrome trace-event JSON object.

    Cycles are laid end to end on one absolute time axis (they are
    serialized by the control barrier), timestamps are microseconds
    (Chrome's native unit), and each row becomes a named thread.  Load
    the written file in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.
    """
    tids = _thread_ids(timeline.n_procs)
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 0,
         "args": {"name": f"repro {timeline.trace_name} "
                          f"@{timeline.n_procs} procs"}},
    ]
    for proc, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"name": _thread_name(proc)}})
    for offset, cycle in zip(timeline.cycle_offsets_us(),
                             timeline.cycles):
        if cycle.repeat == 1:
            name = f"cycle {cycle.index}"
        else:
            name = (f"cycles {cycle.index}-"
                    f"{cycle.index + cycle.repeat - 1} (idle x"
                    f"{cycle.repeat})")
        cycle_args: Dict[str, object] = {"cycle": cycle.index,
                                         "makespan_us": cycle.makespan_us}
        if cycle.repeat != 1:
            cycle_args["repeat"] = cycle.repeat
        events.append({
            "name": name, "cat": "cycle", "ph": "X",
            "ts": offset, "dur": cycle.makespan_us * cycle.repeat,
            "pid": 0, "tid": tids[CONTROL], "args": cycle_args})
        for span in cycle.spans:
            args: Dict[str, object] = {"cycle": cycle.index}
            if span.act_id >= 0:
                args["act_id"] = span.act_id
            events.append({
                "name": span.category, "cat": span.category, "ph": "X",
                "ts": offset + span.start_us, "dur": span.duration_us,
                "pid": 0, "tid": tids[span.proc], "args": args})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace": timeline.trace_name,
            "n_procs": timeline.n_procs,
            "overheads_us": timeline.overheads.total_us,
            "faulty": timeline.faulty,
        },
    }


def write_chrome_trace(timeline: Timeline, path) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(chrome_trace(timeline), stream)
        stream.write("\n")


def timeline_jsonl(timeline: Timeline) -> Iterator[str]:
    """One JSON line per span, with absolute (section-level) times."""
    for offset, cycle in zip(timeline.cycle_offsets_us(),
                             timeline.cycles):
        for span in cycle.spans:
            record = {
                "trace": timeline.trace_name,
                "cycle": cycle.index,
                "proc": _thread_name(span.proc),
                "category": span.category,
                "start_us": offset + span.start_us,
                "end_us": offset + span.end_us,
                "act_id": span.act_id if span.act_id >= 0 else None,
                "busy": span.is_busy,
            }
            if cycle.repeat != 1:
                record["repeat"] = cycle.repeat
            yield json.dumps(record, separators=(",", ":"))


def write_timeline_jsonl(timeline: Timeline, stream: IO[str]) -> int:
    n = 0
    for line in timeline_jsonl(timeline):
        stream.write(line + "\n")
        n += 1
    return n


#: Gantt glyph per category (later spans overwrite earlier ones, so the
#: fine-grained work inside an envelope wins over its container).
_GANTT_GLYPHS = {
    CAT_BROADCAST: "B",
    CAT_CONSTANT_TESTS: "c",
    CAT_RECV: "<",
    CAT_TOKEN_ADD: "#",
    CAT_TOKEN_DELETE: "=",
    CAT_SUCCESSOR: "+",
    CAT_SEND: ">",
    CAT_TRANSIT: "~",
    CAT_ACK: "a",
    CAT_RETRANSMIT: "r",
    CAT_TIMEOUT_WAIT: "t",
    CAT_STALL: "X",
}

GANTT_LEGEND = ("B broadcast  c const-tests  < recv  # token+  = token-  "
                "+ successor  > send  ~ transit  a ack  r retransmit  "
                "t timeout  X stall  . idle")


def gantt(cycle: CycleTimeline, width: int = 64,
          include_network: bool = True) -> str:
    """ASCII Gantt of one cycle: one row per processor, time across.

    Each column covers ``makespan / width`` microseconds; a cell shows
    the glyph of the last span overlapping its midpoint (see
    :data:`GANTT_LEGEND`), ``.`` when the row is idle there.
    """
    if width < 8:
        raise ValueError("width must be >= 8")
    makespan = cycle.makespan_us
    rows = [CONTROL] + list(range(cycle.n_procs))
    if include_network:
        rows.append(NETWORK)
    grids = {proc: ["."] * width for proc in rows}
    if makespan > 0:
        scale = width / makespan
        for span in cycle.spans:
            grid = grids.get(span.proc)
            if grid is None:
                continue
            first = int(span.start_us * scale)
            last = int(span.end_us * scale)
            if last == first:  # sub-column span: still show one cell
                last = first + 1
            glyph = _GANTT_GLYPHS.get(span.category, "?")
            for i in range(max(0, first), min(width, last)):
                grid[i] = glyph
    label_w = max(len(_thread_name(p)) for p in rows)
    stretch = "" if cycle.repeat == 1 else \
        f" (x{cycle.repeat} idle cycles)"
    lines = [f"cycle {cycle.index}{stretch}: makespan "
             f"{makespan / 1000:.3f} ms, {width} cols of "
             f"{makespan / width:.1f} us"]
    for proc in rows:
        lines.append(f"{_thread_name(proc).rjust(label_w)} "
                     f"|{''.join(grids[proc])}|")
    lines.append(GANTT_LEGEND)
    return "\n".join(lines)


def gantt_section(timeline: Timeline, width: int = 64,
                  cycles: Optional[Sequence[int]] = None) -> str:
    """Gantt charts for several cycles (default: the longest one)."""
    if cycles is None:
        chosen = [timeline.longest_cycle()]
    else:
        by_index = {c.index: c for c in timeline.cycles}
        try:
            chosen = [by_index[i] for i in cycles]
        except KeyError as err:
            raise ValueError(f"no cycle {err.args[0]} in timeline "
                             f"(have {sorted(by_index)})") from None
    return "\n\n".join(gantt(c, width=width) for c in chosen)
