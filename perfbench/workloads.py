"""The four benchmark workloads, each driven through the public API.

Every workload runs one kind of operation in a loop for the measured
window, checks every result, and reports numbers in a
:class:`Report`.  The same code serves the untraced run (``NullTracer``:
end-to-end metrics) and the traced run (``Tracer``: spans around every
call into a layer, from which the per-layer metrics come).

Inputs come only from the workload seed; the program under test never
sees the seed itself, only the programs, traces and arrival schedules
generated from it.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec import (RunResult, SessionOverloaded, SessionServer,
                        expected_fires, match_signature, run)
from repro.mpc import (DEFAULT_PROC_COUNTS, TABLE_5_1, ZERO_OVERHEADS,
                       FaultModel, ProtocolModel, RunConfig, SpeedupCurve,
                       SupervisePolicy, iter_cycle_results,
                       simulate_config, speedup, speedup_loss)
from repro.ops5 import Interpreter, parse_program
from repro.rete import ReteNetwork
from repro.trace import (TraceRecorder, cache_stats, materialize,
                         validate_trace)
from repro.workloads import (StreamSpec, SyntheticStream,
                             record_match_deltas, rubik_match_program,
                             rubik_section, tourney_match_program,
                             tourney_section, weaver_section)

from spans import NullTracer, per_op_ms

#: Interpreter cycle cap; every workload program halts well before it.
MAX_CYCLES = 5000

#: Served-session latency limit for the capacity search, on the p90.
SLO_P90_MS = 500.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def calibration_s(repeats: int = 3) -> float:
    """Host speed: the mean time of a fixed pure-Python loop.

    A shared host's speed drifts by tens of percent within minutes.
    Operations are timed back to back with this loop, and the gated
    rates are work per calibration time, which cancels most of that
    drift while still moving with any change to the program's speed.
    The collector is paused so the loop's time does not depend on how
    much the workload has allocated.
    """
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            table: Dict[int, int] = {}
            items = []
            for i in range(20_000):
                key = (i * 7919) % 10007
                table[key] = table.get(key, 0) + 1
                items.append((key, str(i)))
            items.sort()
            times.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.fmean(times)


class RateSampler:
    """Work per calibration time, one sample per timed chunk of work.

    Each chunk is normalized by the mean of the calibrations just
    before and just after it; the gated rate is the median sample.
    """

    def __init__(self) -> None:
        self.cal_s = calibration_s()
        self.samples: List[float] = []

    def add(self, work: float, seconds: float) -> None:
        after = calibration_s()
        self.samples.append(work * (self.cal_s + after) / 2 / seconds)
        self.cal_s = after

    @property
    def rate(self) -> float:
        return median(self.samples)


@dataclass
class Report:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: Run-level check failures (reconciliation, golden pins).
    problems: List[str] = field(default_factory=list)
    #: The gated end-to-end value each workload defines: rate_per_cal.
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Every end-to-end figure the workload defines, by name and unit.
    named: List[Tuple[str, float, str]] = field(default_factory=list)
    #: Per-layer metrics (traced run only).
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Free-form lines printed above the result.
    notes: List[str] = field(default_factory=list)

    def fail(self, op: int, problems: Sequence[str]) -> None:
        self.failed += 1
        for problem in problems:
            self.notes.append(f"op {op} FAILED: {problem}")


# ---------------------------------------------------------------------------
# rete: a thin matcher wrapper for the traced run
# ---------------------------------------------------------------------------

class TimedMatcher:
    """Wraps a :class:`ReteNetwork`; each call into it becomes a span."""

    def __init__(self, network: ReteNetwork, tracer, op: int) -> None:
        self.network = network
        self.tracer = tracer
        self.op = op
        self.waves = 0

    def add_production(self, production) -> None:
        with self.tracer.span("rete.add_production", self.op):
            self.network.add_production(production)

    def add_wme(self, wme) -> None:
        self.waves += 1
        with self.tracer.span("rete.add_wme", self.op):
            self.network.add_wme(wme)

    def remove_wme(self, wme) -> None:
        self.waves += 1
        with self.tracer.span("rete.remove_wme", self.op):
            self.network.remove_wme(wme)

    def conflict_set(self):
        with self.tracer.span("rete.conflict_set", self.op):
            return self.network.conflict_set()


# ---------------------------------------------------------------------------
# ops5-tourney / ops5-rubik: one full pipeline pass per operation
# ---------------------------------------------------------------------------

@dataclass
class PassOutcome:
    """Everything one pipeline pass produced, for the checks."""

    source: str
    untraced: object          # ops5 RunResult of the plain run
    recorded: object          # ops5 RunResult of the recording run
    trace: object             # the recorded SectionTrace
    base: object              # SimResult at P=1
    sim16: object             # SimResult at P=16
    live: RunResult           # actors run at P=16
    seconds: float
    waves: int = 0
    numpy_engaged: bool = False


def check_pass(outcome: PassOutcome) -> List[str]:
    """Every correctness check of one pipeline pass; empty when correct."""
    problems = []
    plain, recorded = outcome.untraced, outcome.recorded
    if not plain.halted or plain.cycles >= MAX_CYCLES:
        problems.append(f"program did not halt ({plain.cycles} cycles)")
    if (recorded.cycles, recorded.halted) != (plain.cycles, plain.halted):
        problems.append(f"recording run fired {recorded.cycles} cycles, "
                        f"plain run {plain.cycles}")
    if recorded.output != plain.output:
        problems.append("recording run wrote different output")
    invalid = validate_trace(outcome.trace, raise_on_error=False)
    if invalid:
        problems.append(f"recorded trace invalid: {invalid[0]}")
    simulated = _simulated(outcome.base)
    expected = outcome.trace.stats().total
    if simulated != expected:
        problems.append(f"P=1 simulated {simulated} activations, trace "
                        f"has {expected}")
    sim = RunResult(backend="sim", result=outcome.sim16,
                    fires=expected_fires(outcome.trace,
                                         RunConfig(n_procs=16)),
                    wall_s=0.0)
    if match_signature(outcome.live) != match_signature(sim):
        problems.append("live actors signature differs from the "
                        "simulator's at P=16")
    return problems


class Ops5Pipeline:
    """OPS5 source → parse → Rete run → recording → simulator → actors."""

    closed_loop = True

    def __init__(self, name: str, make_source: Callable[[int], str],
                 seed: int, tracer) -> None:
        self.name = name
        self.make_source = make_source
        self.seed = seed
        self.tracer = tracer
        self.outcomes: List[PassOutcome] = []
        self.rates: Optional[RateSampler] = None

    def setup(self) -> None:
        self.next_source = self.make_source(self._program_seed(0))

    def _program_seed(self, op: int) -> int:
        return self.seed * 100_003 + op

    def run_op(self, op: int, traced: bool) -> PassOutcome:
        source = self.next_source
        tracer = self.tracer if traced else NullTracer()
        if self.rates is None:
            self.rates = RateSampler()
        start = time.perf_counter()
        with tracer.span("bench.op", op):
            with tracer.span("ops5.parse", op):
                program = parse_program(source)
            network = ReteNetwork()
            matcher = TimedMatcher(network, tracer, op) if traced \
                else network
            with tracer.span("ops5.run", op):
                interp = Interpreter(matcher=matcher)
                interp.load_program(program)
                plain = interp.run(max_cycles=MAX_CYCLES)
            with tracer.span("trace.record", op):
                recording = ReteNetwork()
                recorder = TraceRecorder(recording)
                rec_interp = Interpreter(matcher=recording)
                recorder.attach(rec_interp)
                rec_interp.load_program(program)
                recorded = rec_interp.run(max_cycles=MAX_CYCLES)
            with tracer.span("trace.section", op):
                trace = recorder.section(f"{self.name}-{op}",
                                         drop_setup_cycle=True)
            with tracer.span("mpc.simulate", op):
                base = simulate_config(trace, RunConfig(n_procs=1))
            with tracer.span("mpc.simulate", op):
                sim16 = simulate_config(trace, RunConfig(n_procs=16))
            with tracer.span("exec.actors", op):
                live = run(trace, RunConfig(n_procs=16), backend="actors")
        seconds = time.perf_counter() - start
        if not traced:
            self.rates.add(plain.cycles, seconds)
        self.next_source = self.make_source(self._program_seed(op + 1))
        return PassOutcome(
            source=source, untraced=plain, recorded=recorded, trace=trace,
            base=base, sim16=sim16, live=live, seconds=seconds,
            waves=matcher.waves if traced else 0,
            numpy_engaged=network.kernel.numpy_engaged)

    def check(self, outcome: PassOutcome) -> List[str]:
        return check_pass(outcome)

    def keep(self, outcome: PassOutcome, traced: bool) -> None:
        # Only the figures are kept: the traces themselves are large.
        self.outcomes.append(_PassFigures(
            traced=traced, seconds=outcome.seconds,
            cycles=outcome.untraced.cycles, waves=outcome.waves,
            source=outcome.source,
            activations=outcome.trace.stats().total,
            simulated=_simulated(outcome.base) + _simulated(outcome.sim16),
            messages=outcome.live.result.n_messages,
            numpy_engaged=outcome.numpy_engaged))

    def finish(self, report: Report, spans) -> None:
        plain = [o for o in self.outcomes if not o.traced]
        rates = [o.cycles / o.seconds for o in plain]
        times = [o.seconds * 1e3 for o in plain]
        report.end_to_end = {"rate_per_cal": self.rates.rate}
        report.named = [
            ("pipeline_cycles_per_s", median(rates), "1/s"),
            ("pass_p50_ms", median(times), "ms"),
            ("pass_p90_ms", quantile(times, 0.9), "ms"),
        ]
        report.notes.append(f"{len(plain)} untraced passes, "
                            f"{median([o.cycles for o in plain]):.0f} "
                            f"MRA cycles per pass (median)")
        traced = [o for o in self.outcomes if o.traced]
        if traced:
            self._per_layer(report, spans, traced, plain)

    def _per_layer(self, report: Report, spans, traced, plain) -> None:
        ops = sorted({s.op for s in spans})

        def ms(*names, use_self=False):
            totals = per_op_ms(spans, names, use_self=use_self)
            return median([totals.get(op, 0.0) for op in ops])

        run_ms = ms("ops5.run")
        record_ms = ms("trace.record")
        report.per_layer.update({
            "ops5.parse_ms": ms("ops5.parse"),
            "ops5.run_ms": run_ms,
            "ops5.interp_self_ms": ms("ops5.run", use_self=True),
            "ops5.cycles": median([o.cycles for o in traced]),
            "rete.match_ms": ms("rete.add_wme", "rete.remove_wme"),
            "rete.conflict_set_ms": ms("rete.conflict_set"),
            "rete.waves": median([o.waves for o in traced]),
            "rete.numpy_engaged": float(all(o.numpy_engaged
                                            for o in traced)),
            "trace.record_ms": record_ms,
            "trace.section_ms": ms("trace.section"),
            "trace.record_over_run": record_ms / run_ms if run_ms else 0.0,
            "trace.activations": median([o.activations for o in traced]),
            "mpc.simulate_ms": ms("mpc.simulate"),
            "mpc.activations": median([o.simulated for o in traced]),
            "exec.actors_ms": ms("exec.actors"),
            "exec.messages": median([o.messages for o in traced]),
        })
        traced_ms = median([o.seconds * 1e3 for o in traced])
        plain_ms = median([o.seconds * 1e3 for o in plain])
        report.per_layer["bench.trace_overhead_pct"] = \
            100.0 * (traced_ms / plain_ms - 1.0) if plain_ms else 0.0
        # Reconciliation: the wrapper's wave count against an
        # independent recording of the same source's delta stream.
        for outcome in traced:
            expected = len(record_match_deltas(
                outcome.source, max_cycles=MAX_CYCLES).deltas)
            if outcome.waves != expected:
                report.problems.append(
                    f"rete.waves {outcome.waves} != {expected} recorded "
                    f"deltas")
        wave_spans = sum(1 for s in spans
                         if s.name in ("rete.add_wme", "rete.remove_wme"))
        if wave_spans != sum(o.waves for o in traced):
            report.problems.append(
                f"{wave_spans} wave spans for "
                f"{sum(o.waves for o in traced)} counted waves")


@dataclass
class _PassFigures:
    traced: bool
    seconds: float
    cycles: int
    waves: int
    source: str
    activations: int
    simulated: int
    messages: int
    numpy_engaged: bool


def tourney_source(seed: int) -> str:
    # BENCH_rete.json's size: joins, residual predicates and a negated
    # CE dominate the match, and the numpy alpha block never engages.
    return tourney_match_program(seed=seed, n_players=24, n_rounds=150)


def rubik_source(seed: int) -> str:
    # A 24-pattern constant-test fan-out engages the vectorized alpha
    # block, and rules fire in modify bursts: the alpha path's workload.
    return rubik_match_program(seed=seed, n_moves=200)


# ---------------------------------------------------------------------------
# sim-sections: the Section 5 figure grids plus a sparse compressed leg
# ---------------------------------------------------------------------------

#: The Fig 5-2 peak-speedup loss at 32 us that the paper reports.
PAPER_LOSS_AT_32US = {"rubik": 0.30, "tourney": 0.45, "weaver": 0.50}

#: Seed-0 values pinned by tests/test_golden_experiments.py.
GOLDEN_PEAKS_AT_32 = {
    "rubik": 11.967367009387573,
    "tourney": 7.543324556991983,
    "weaver": 5.14043583535109,
}
GOLDEN_LOSSES_AT_32US = {
    "rubik": 0.30619523920291547,
    "tourney": 0.4834860072274981,
    "weaver": 0.48435427233710493,
}

SECTION_BUILDERS = {"rubik": rubik_section, "tourney": tourney_section,
                    "weaver": weaver_section}

#: The faulty grid: processors x loss rates, 8 us overheads, acks on.
FAULT_PROCS = (4, 16)
FAULT_LOSS = (0.01, 0.05)
FAULT_DUP = 0.01

#: The sparse leg: a streamed, mostly idle trace at large P.
SPARSE_PROCS = 1024


def sparse_spec(seed: int) -> StreamSpec:
    return StreamSpec(name="sparse", active_cycles=50,
                      activations_per_cycle=100, idle_between=200,
                      seed=seed)


def load_sections(seed: int, tracer) -> Dict[str, object]:
    """The three Section 5 traces, from the (pre-filled) trace cache."""
    with tracer.span("trace.cache.load", -1):
        return {name: build(seed)
                for name, build in SECTION_BUILDERS.items()}


def cache_problems() -> List[str]:
    """Set-up must have read every section from the pre-filled cache."""
    hits = cache_stats()["disk_hits"]
    if hits != len(SECTION_BUILDERS):
        return [f"{hits} trace-cache disk hits in set-up, expected "
                f"{len(SECTION_BUILDERS)}"]
    return []


@dataclass
class SimOutcome:
    seconds: float
    grid_seconds: float
    sparse_seconds: float
    activations: int
    expected_activations: int
    retransmits: int
    totals: Tuple[float, ...]
    peaks: Dict[str, float]
    losses: Dict[str, float]
    sparse: object
    sparse_cycles: int


class SimSections:
    """Fig 5-1/5-2 grids, a fault grid, and a sparse compressed stream."""

    closed_loop = True

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.outcomes: List[Tuple[bool, SimOutcome]] = []
        self.first: Optional[SimOutcome] = None
        self.rates: Optional[RateSampler] = None

    def setup(self) -> None:
        self.sections = load_sections(self.seed, self.tracer)
        self.setup_problems = cache_problems()
        self.stream = SyntheticStream(sparse_spec(self.seed))
        self.stream_activations = materialize(self.stream).stats().total

    def run_op(self, op: int, traced: bool) -> SimOutcome:
        tracer = self.tracer if traced else NullTracer()
        if self.rates is None:
            self.rates = RateSampler()
        outcome = SimOutcome(
            seconds=0.0, grid_seconds=0.0, sparse_seconds=0.0,
            activations=0, expected_activations=0, retransmits=0,
            totals=(), peaks={}, losses={}, sparse=None, sparse_cycles=0)
        with tracer.span("bench.op", op):
            for name, trace in self.sections.items():
                start = time.perf_counter()
                before = outcome.activations
                self._grids(name, trace, tracer, op, outcome)
                chunk = time.perf_counter() - start
                outcome.grid_seconds += chunk
                if not traced:
                    self.rates.add(outcome.activations - before, chunk)
            start = time.perf_counter()
            with tracer.span("mpc.sparse", op):
                outcome.sparse = simulate_config(self.stream, RunConfig(
                    n_procs=SPARSE_PROCS, compress_rounds=True))
            outcome.sparse_seconds = time.perf_counter() - start
        outcome.sparse_cycles = outcome.sparse.n_cycles
        outcome.seconds = outcome.grid_seconds + outcome.sparse_seconds
        return outcome

    def _grids(self, name: str, trace, tracer, op: int,
               outcome: SimOutcome) -> None:
        """One section through the Fig 5-1/5-2 grid and the fault grid."""
        n_acts = trace.stats().total
        totals = list(outcome.totals)
        curves = []
        for overheads in (ZERO_OVERHEADS,) + TABLE_5_1:
            results = []
            for n_procs in DEFAULT_PROC_COUNTS:
                with tracer.span("mpc.dense", op):
                    result = simulate_config(trace, RunConfig(
                        n_procs=n_procs, overheads=overheads))
                results.append(result)
            if not curves:
                base = results[0]  # P=1, zero overheads: the baseline
            curves.append(SpeedupCurve(
                label=name, proc_counts=list(DEFAULT_PROC_COUNTS),
                speedups=[speedup(base, r) for r in results]))
            totals.extend(r.total_us for r in results)
            outcome.activations += sum(_simulated(r) for r in results)
            outcome.expected_activations += n_acts * len(results)
        outcome.peaks[name] = curves[0].peak()[1]
        outcome.losses[name] = speedup_loss(curves[0], curves[-1])
        for n_procs in FAULT_PROCS:
            for loss in FAULT_LOSS:
                faults = FaultModel(seed=self.seed, loss_prob=loss,
                                    dup_prob=FAULT_DUP)
                with tracer.span("mpc.faulty", op):
                    result = simulate_config(trace, RunConfig(
                        n_procs=n_procs, overheads=TABLE_5_1[1],
                        faults=faults, protocol=ProtocolModel()))
                totals.append(result.total_us)
                outcome.activations += _simulated(result)
                outcome.expected_activations += n_acts
                outcome.retransmits += result.retransmits
        outcome.totals = tuple(totals)

    def check(self, outcome: SimOutcome) -> List[str]:
        problems = []
        if outcome.activations != outcome.expected_activations:
            problems.append(f"simulated {outcome.activations} activations "
                            f"of {outcome.expected_activations}")
        if self.first is None:
            self.first = outcome
            return problems
        if outcome.totals != self.first.totals:
            problems.append("grid totals differ from the first operation")
        if outcome.sparse != self.first.sparse:
            problems.append("compressed sparse result differs from the "
                            "first operation")
        return problems

    def keep(self, outcome: SimOutcome, traced: bool) -> None:
        if outcome is not self.first:
            outcome.sparse = None  # only the first is kept, for checks
        self.outcomes.append((traced, outcome))

    def finish(self, report: Report, spans) -> None:
        first = self.first
        if first is not None:
            exact = self._exact_check(first.sparse)
            if exact:
                # Every operation returned this same compressed result.
                report.problems.extend(exact)
                report.failed = report.attempted
            if self.seed == 0:
                report.problems.extend(check_golden(first))
            for name in SECTION_BUILDERS:
                paper = PAPER_LOSS_AT_32US[name]
                loss = first.losses[name]
                report.notes.append(
                    f"Fig 5-2 loss at 32 us, {name:<7}: simulated "
                    f"{100 * loss:5.1f} %  paper ~{100 * paper:.0f} %  "
                    f"error {100 * (loss - paper):+5.1f} points; "
                    f"Fig 5-1 peak {first.peaks[name]:.2f}x")
        plain = [o for traced, o in self.outcomes if not traced]
        act_rates = [o.activations / o.grid_seconds for o in plain]
        cycle_rates = [o.sparse_cycles / o.sparse_seconds for o in plain]
        times = [o.seconds * 1e3 for o in plain]
        report.end_to_end = {"rate_per_cal": self.rates.rate}
        report.named = [
            ("sim_activations_per_s", median(act_rates), "1/s"),
            ("sim_cycles_per_s", median(cycle_rates), "1/s"),
            ("regeneration_p50_ms", median(times), "ms"),
            ("regeneration_p90_ms", quantile(times, 0.9), "ms"),
        ]
        report.notes.append(f"{len(plain)} untraced regenerations")
        traced = [o for t, o in self.outcomes if t]
        if traced:
            ops = sorted({s.op for s in spans if s.op >= 0})

            def ms(*names):
                totals = per_op_ms(spans, names)
                return median([totals.get(op, 0.0) for op in ops])

            report.per_layer.update({
                "mpc.dense_ms": ms("mpc.dense"),
                "mpc.faulty_ms": ms("mpc.faulty"),
                "mpc.sparse_ms": ms("mpc.sparse"),
                "mpc.activations": median([o.activations for o in traced]),
                "mpc.retransmits": median([o.retransmits for o in traced]),
                "mpc.cycles": median([o.sparse_cycles for o in traced]),
            })
            report.per_layer["bench.trace_overhead_pct"] = 100.0 * (
                median([o.seconds for o in traced])
                / median([o.seconds for o in plain]) - 1.0)
            # Reconciliation: simulated activations against the traces'
            # own totals, span by span.
            n_dense = len(SECTION_BUILDERS) * (1 + len(TABLE_5_1)) \
                * len(DEFAULT_PROC_COUNTS)
            n_faulty = len(SECTION_BUILDERS) * len(FAULT_PROCS) \
                * len(FAULT_LOSS)
            for o in traced:
                if o.activations != o.expected_activations:
                    report.problems.append("mpc.activations does not "
                                           "reconcile with the traces")
            counted = {name: sum(1 for s in spans if s.name == name)
                       for name in ("mpc.dense", "mpc.faulty",
                                    "mpc.sparse")}
            want = {"mpc.dense": n_dense * len(traced),
                    "mpc.faulty": n_faulty * len(traced),
                    "mpc.sparse": len(traced)}
            if counted != want:
                report.problems.append(f"span counts {counted} != {want}")
            sparse_acts = _simulated(first.sparse)
            if sparse_acts != self.stream_activations:
                report.problems.append(
                    f"sparse leg simulated {sparse_acts} activations of "
                    f"{self.stream_activations}")

    def _exact_check(self, compressed) -> List[str]:
        """The compressed sparse result, expanded, against the exact
        loop — streamed cycle by cycle to stay memory-bounded."""
        exact = iter_cycle_results(self.stream, RunConfig(
            n_procs=SPARSE_PROCS))
        expanded = compressed.expand_cycles()
        n = 0
        for (cycle, repeat), other in zip(exact, expanded):
            if repeat != 1 or cycle != other:
                return [f"compressed sparse cycle {n} differs from the "
                        f"exact loop"]
            n += 1
        if n != compressed.n_cycles:
            return [f"exact loop gave {n} cycles, compressed "
                    f"{compressed.n_cycles}"]
        return []


def _simulated(result) -> int:
    return sum(sum(c.proc_activations) * r for c, r in _rle(result))


def _rle(result):
    repeats = result.repeats or [1] * len(result.cycles)
    return zip(result.cycles, repeats)


def check_golden(outcome: SimOutcome) -> List[str]:
    """Seed-0 Fig 5-1 peaks and Fig 5-2 losses against the pinned values."""
    problems = []
    for name, pinned in GOLDEN_PEAKS_AT_32.items():
        if abs(outcome.peaks[name] - pinned) > 1e-12 * abs(pinned):
            problems.append(f"{name} Fig 5-1 peak {outcome.peaks[name]!r} "
                            f"!= pinned {pinned!r}")
    for name, pinned in GOLDEN_LOSSES_AT_32US.items():
        if abs(outcome.losses[name] - pinned) > 1e-12 * abs(pinned):
            problems.append(f"{name} Fig 5-2 loss {outcome.losses[name]!r} "
                            f"!= pinned {pinned!r}")
    return problems


# ---------------------------------------------------------------------------
# served-sections: seeded open-loop arrivals into SessionServer.submit
# ---------------------------------------------------------------------------

SERVED_PROCS = (2, 4, 8)
LIGHT_RATE = 3.0
HEAVY_RATE = 6.0
#: Capacity probes step the offered rate up by this factor.
PROBE_STEP = 1.35
#: In-flight sessions gained between the first and last third of a
#: phase's arrivals that count as a growing backlog.
BACKLOG_GROWTH = 3.0
#: Shares of the measured window for the light and heavy phases; the
#: capacity search runs until the window ends, then the bursts.
LIGHT_SHARE = 0.5
HEAVY_SHARE = 0.25
#: Bursts of one mix block each, offered at once, for the saturation rate.
BURSTS = 8


@dataclass
class Session:
    """One offered session and what became of it."""

    op: int
    section: str
    n_procs: int
    supervised: bool
    due: float
    submitted: float = 0.0
    done: float = 0.0
    wall_s: float = 0.0
    outcome: str = "pending"   # ok | mismatch | shed | error
    #: Set once the done-callback has stamped :attr:`done`.
    stamped: threading.Event = field(default_factory=threading.Event)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def in_server_ms(self) -> float:
        return self.wall_s * 1e3

    @property
    def admit_wait_ms(self) -> float:
        return self.latency_ms - self.in_server_ms

    @property
    def late_ms(self) -> float:
        return (self.submitted - self.due) * 1e3


@dataclass
class Phase:
    name: str
    rate: float
    sessions: List[Session]
    #: Earlier sessions still in the server (running or queued) at each
    #: arrival, from the submit and completion stamps.
    inflight: List[int] = field(default_factory=list)

    def latencies(self) -> List[float]:
        return [s.latency_ms for s in self.sessions if s.outcome == "ok"]

    @property
    def shed(self) -> int:
        return sum(1 for s in self.sessions if s.outcome == "shed")

    @property
    def p90(self) -> float:
        return quantile(self.latencies(), 0.9)

    def backlog_growing(self) -> bool:
        """Sessions piling up: over the last third of the arrivals the
        server holds :data:`BACKLOG_GROWTH` more sessions on average
        than over the first third.  (Latency is no test of this: the mix
        spans two orders of magnitude in session cost.)"""
        third = len(self.inflight) // 3
        if third < 2:
            return False
        return statistics.fmean(self.inflight[-third:]) \
            >= statistics.fmean(self.inflight[:third]) + BACKLOG_GROWTH


def session_mix(rng: random.Random, n: int) -> List[Tuple[str, int, bool]]:
    """*n* (section, P, supervised) draws in shuffled complete blocks.

    Each block holds every combination once, so the mix — uniform over
    sections and P, supervised half the time — is exact in every whole
    block and only the order varies with the seed.
    """
    combos = [(name, p, sup) for name in SECTION_BUILDERS
              for p in SERVED_PROCS for sup in (False, True)]
    draws: List[Tuple[str, int, bool]] = []
    while len(draws) < n:
        block = combos[:]
        rng.shuffle(block)
        draws.extend(block)
    return draws[:n]


def whole_blocks(sessions: float, block: int) -> int:
    """*sessions* rounded to a whole number of mix blocks (at least one)."""
    return block * max(1, round(sessions / block))


def arrival_offsets(rng: random.Random, n: int, rate: float) -> List[float]:
    """Poisson arrivals conditioned on their count: *n* sorted uniform
    draws over the ``n / rate`` seconds the phase lasts.  An infinite
    rate offers all *n* at once."""
    if rate == float("inf"):
        return [0.0] * n
    span = n / rate
    return sorted(rng.uniform(0.0, span) for _ in range(n))


def check_session(result, reference: RunResult) -> List[str]:
    """A served session's counters and fires against the simulator's."""
    sim_result, fires, wall_s = result
    served = RunResult(backend="served", result=sim_result, fires=fires,
                       wall_s=wall_s)
    if match_signature(served) != match_signature(reference):
        return ["per-cycle activations, messages or fires differ from "
                "the simulator"]
    return []


class ServedSections:
    """Open-loop sessions at fixed rates, a capacity search, then bursts
    offered all at once for the saturation rate."""

    closed_loop = False

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.phases: List[Phase] = []
        self.next_op = 0

    def setup(self) -> None:
        self.sections = load_sections(self.seed, self.tracer)
        self.setup_problems = cache_problems()
        self.references = {
            (name, p): run(trace, RunConfig(n_procs=p))
            for name, trace in self.sections.items()
            for p in SERVED_PROCS}
        self.policy = SupervisePolicy()
        self.server = SessionServer()
        self.server.start()

    def close(self) -> None:
        self.server.stop()

    def run_phase(self, name: str, rate: float, n: int,
                  report: Report) -> Phase:
        mix = session_mix(self.rng, n)
        offsets = arrival_offsets(self.rng, n, rate)
        phase = Phase(name=name, rate=rate, sessions=[])
        pending = []
        server = self.server
        start = time.perf_counter() + 0.02
        for offset, (section, n_procs, supervised) in zip(offsets, mix):
            session = Session(op=self.next_op, section=section,
                              n_procs=n_procs, supervised=supervised,
                              due=start + offset)
            self.next_op += 1
            delay = session.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            config = RunConfig(n_procs=n_procs, supervise=(
                self.policy if supervised else None))
            session.submitted = time.perf_counter()
            future = server.submit(self.sections[section], config)
            future.add_done_callback(_stamp(session))
            pending.append((session, future))
            phase.sessions.append(session)
        for session, future in pending:
            try:
                result = future.result(timeout=120.0)
            except SessionOverloaded:
                session.stamped.wait(5.0)
                session.outcome = "shed"
                continue
            except Exception as err:  # noqa: BLE001 - counted, reported
                session.stamped.wait(5.0)
                session.outcome = "error"
                report.notes.append(f"op {session.op} FAILED: "
                                    f"{type(err).__name__}: {err}")
                continue
            # A future wakes its waiters before it runs its callbacks.
            session.stamped.wait(5.0)
            session.wall_s = result[2]
            problems = check_session(
                result, self.references[(session.section,
                                         session.n_procs)])
            session.outcome = "mismatch" if problems else "ok"
            for problem in problems:
                report.notes.append(f"op {session.op} FAILED: {problem}")
        phase.inflight = [
            sum(1 for earlier in phase.sessions[:i]
                if earlier.done > session.submitted)
            for i, session in enumerate(phase.sessions)]
        self.phases.append(phase)
        return phase

    def run(self, seconds: float, report: Report) -> None:
        start = time.perf_counter()
        block = len(SECTION_BUILDERS) * len(SERVED_PROCS) * 2
        self.light = self.run_phase("light", LIGHT_RATE, whole_blocks(
            LIGHT_RATE * LIGHT_SHARE * seconds, block), report)
        self.heavy = self.run_phase("heavy", HEAVY_RATE, whole_blocks(
            HEAVY_RATE * HEAVY_SHARE * seconds, block), report)
        self.capacity_search(block, start + seconds, report)
        # Saturation: bursts of one block offered all at once; the
        # completion rate of a server that never idles.
        rates = RateSampler()
        self.bursts = []
        for i in range(BURSTS):
            burst = self.run_phase(f"burst{i}", float("inf"), block, report)
            seconds = max(s.done for s in burst.sessions) \
                - min(s.due for s in burst.sessions)
            rates.add(len(burst.sessions), seconds)
            self.bursts.append(len(burst.sessions) / seconds)
        self.saturation_per_cal = rates.rate
        self.window_s = time.perf_counter() - start

    def capacity_search(self, block: int, deadline: float,
                        report: Report) -> None:
        """Raise the offered rate one block of sessions at a time until
        p90 breaks the limit, sessions are shed or the backlog grows;
        interpolate where p90 crosses the limit."""
        passed: List[Tuple[float, float]] = []
        stop: Optional[Phase] = None
        for phase in (self.light, self.heavy):
            if stop is None and meets_slo(phase):
                passed.append((phase.rate, phase.p90))
            elif stop is None:
                stop = phase
        self.probes: List[Phase] = []
        rate = HEAVY_RATE
        while stop is None and time.perf_counter() + block / (
                rate * PROBE_STEP) < deadline:
            rate *= PROBE_STEP
            probe = self.run_phase(f"probe@{rate:.2f}", rate, block, report)
            self.probes.append(probe)
            if meets_slo(probe):
                passed.append((rate, probe.p90))
            else:
                stop = probe
        self.capacity = capacity_estimate(passed, stop)
        self.capacity_bounded = stop is not None

    def finish(self, report: Report, spans) -> None:
        light, heavy = self.light, self.heavy
        every = [s for p in self.phases for s in p.sessions]
        report.attempted = len(every)
        # Shedding stops a capacity probe; anywhere else it is a failure.
        report.failed = sum(
            1 for p in self.phases for s in p.sessions
            if s.outcome in ("mismatch", "error")
            or (s.outcome == "shed" and p not in self.probes))
        counted = sum(1 for s in every
                      if s.outcome in ("ok", "mismatch", "shed", "error"))
        if counted != len(every):
            report.problems.append(f"{counted} sessions accounted for of "
                                   f"{len(every)} offered")
        lp = light.latencies()
        hp = heavy.latencies()
        report.end_to_end = {"rate_per_cal": self.saturation_per_cal}
        report.named = [
            ("session_p50_ms.light", median(lp), "ms"),
            ("session_p90_ms.light", quantile(lp, 0.9), "ms"),
            ("session_p50_ms.heavy", median(hp), "ms"),
            ("session_p90_ms.heavy", quantile(hp, 0.9), "ms"),
            ("capacity_per_s", self.capacity, "1/s"),
            ("saturation_per_s", median(self.bursts), "1/s"),
        ]
        report.notes.append(
            f"light {LIGHT_RATE:g}/s: {len(lp)} sessions; heavy "
            f"{HEAVY_RATE:g}/s: {len(hp)} sessions (p90 keeps "
            f"{0.1 * len(lp):.1f} / {0.1 * len(hp):.1f} samples beyond "
            f"it); {BURSTS} bursts of {len(self.phases[-1].sessions)} "
            f"sessions at once")
        for probe in [light, heavy] + self.probes:
            report.notes.append(
                f"capacity probe {probe.rate:6.2f}/s: p90 "
                f"{probe.p90:7.1f} ms, shed {probe.shed}, backlog "
                f"{'growing' if probe.backlog_growing() else 'steady'}")
        if not self.capacity_bounded:
            report.notes.append("capacity search ran out of time before "
                                "the limit broke: capacity is a lower "
                                "bound")
        if self.tracer.enabled:
            self._per_layer(report, every)

    def _per_layer(self, report: Report, every: List[Session]) -> None:
        ok = [s for s in every if s.outcome == "ok"]
        built = time.perf_counter()
        for s in every:
            root = self.tracer.add("exec.session", s.due,
                                   s.done if s.done else s.submitted, s.op)
            if s.outcome == "ok":
                start = s.done - s.wall_s
                self.tracer.add("exec.admit", s.due, start, s.op, root)
                self.tracer.add("exec.run", start, s.done, s.op, root)
        built_s = time.perf_counter() - built
        in_server = [s.in_server_ms for s in ok]
        report.per_layer.update({
            "exec.in_server_ms.p50": median(in_server),
            "exec.in_server_ms.p90": quantile(in_server, 0.9),
            "exec.in_server_ms.supervised.p50": median(
                [s.in_server_ms for s in ok if s.supervised]),
            "exec.in_server_ms.unsupervised.p50": median(
                [s.in_server_ms for s in ok if not s.supervised]),
            "exec.admit_wait_ms.p50": median([s.admit_wait_ms for s in ok]),
            "exec.admit_wait_ms.p90": quantile(
                [s.admit_wait_ms for s in ok], 0.9),
            "exec.inflight_max": max(max(p.inflight) for p in self.phases),
            "exec.shed": sum(1 for s in every if s.outcome == "shed"),
            "exec.errors": sum(1 for s in every if s.outcome == "error"),
            "gen.late_ms.p90": quantile([s.late_ms for s in every], 0.9),
            "gen.late_ms.max": max(s.late_ms for s in every),
        })
        # The spans are built after the window from timestamps the
        # untraced run takes too; building them is the whole overhead.
        report.per_layer["bench.trace_overhead_pct"] = \
            100.0 * built_s / self.window_s


def _stamp(session: Session):
    def on_done(_future) -> None:
        session.done = time.perf_counter()
        session.stamped.set()
    return on_done


def meets_slo(phase: Phase) -> bool:
    return phase.p90 <= SLO_P90_MS and not phase.shed \
        and not phase.backlog_growing()


def capacity_estimate(passed: List[Tuple[float, float]],
                      stop: Optional[Phase]) -> float:
    """The offered rate at which p90 reaches :data:`SLO_P90_MS`.

    Linear between the last rate that met the limit and the first that
    did not; when the first failure was shedding or backlog rather
    than p90, or nothing failed, the last passing rate.
    """
    if not passed:
        return stop.rate if stop is not None else 0.0
    rate, p90 = passed[-1]
    if stop is None or stop.p90 <= SLO_P90_MS or stop.p90 <= p90:
        return rate
    return rate + (SLO_P90_MS - p90) * (stop.rate - rate) / (stop.p90 - p90)




WORKLOADS = {
    # Joins, residual predicates and negated CEs dominate; recording is
    # the largest layer.  The match-layer join work shows here.
    "ops5-tourney": lambda seed, tracer: Ops5Pipeline(
        "ops5-tourney", tourney_source, seed, tracer),
    # The vectorized alpha block engages and rules fire in modify
    # bursts: a join-path gain that costs the alpha path shows here.
    "ops5-rubik": lambda seed, tracer: Ops5Pipeline(
        "ops5-rubik", rubik_source, seed, tracer),
    # The simulator does nearly all the work, ops5/rete none; its
    # dense, faulty and sparse legs drive separate event loops.
    "sim-sections": lambda seed, tracer: SimSections(seed, tracer),
    # The served executor does the work, rete none; supervised
    # sessions cost several times unsupervised ones.
    "served-sections": lambda seed, tracer: ServedSections(seed, tracer),
}
