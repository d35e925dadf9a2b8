"""One workload in one process: set up, measure, check, report.

``run.py`` starts this script once per step of a benchmark run (trace
cache pre-fill, set-up-only repeats, and the measured run), each in a
fresh interpreter so set-up time includes imports and no state carries
over between steps.  It prints human-readable lines, then one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from spans import (NullTracer, Tracer, layer_self_ms, self_times,
                   write_chrome_trace)
from workloads import SECTION_BUILDERS, WORKLOADS, Report, median

#: The gated end-to-end metrics, with their units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "rate_per_cal": "1/cal"}

LAYERS = ("ops5", "rete", "trace", "mpc", "exec", "bench")

#: Every per-layer metric, with its unit.  Each workload fills the ones
#: its layers produce; a layer a workload does not run reports 0.
PER_LAYER = {
    "ops5.parse_ms": "ms", "ops5.run_ms": "ms",
    "ops5.interp_self_ms": "ms", "ops5.cycles": "count",
    "rete.match_ms": "ms", "rete.conflict_set_ms": "ms",
    "rete.waves": "count", "rete.numpy_engaged": "bool",
    "trace.record_ms": "ms", "trace.section_ms": "ms",
    "trace.record_over_run": "ratio", "trace.activations": "count",
    "trace.cache.load_ms": "ms",
    "mpc.simulate_ms": "ms", "mpc.dense_ms": "ms", "mpc.faulty_ms": "ms",
    "mpc.sparse_ms": "ms", "mpc.activations": "count",
    "mpc.retransmits": "count", "mpc.cycles": "count",
    "exec.actors_ms": "ms", "exec.messages": "count",
    "exec.in_server_ms.p50": "ms", "exec.in_server_ms.p90": "ms",
    "exec.in_server_ms.supervised.p50": "ms",
    "exec.in_server_ms.unsupervised.p50": "ms",
    "exec.admit_wait_ms.p50": "ms", "exec.admit_wait_ms.p90": "ms",
    "exec.inflight_max": "count", "exec.shed": "count",
    "exec.errors": "count",
    "gen.late_ms.p90": "ms", "gen.late_ms.max": "ms",
    "bench.trace_overhead_pct": "%",
    **{f"share.{layer}": "%" for layer in LAYERS},
}


def closed_loop(workload, seconds: float, traced_run: bool,
                report: Report) -> None:
    """One client: the next operation starts when the last one ends.

    In the traced run, operations alternate untraced / traced, so the
    tracing overhead is the difference between two interleaved samples.
    """
    deadline = time.perf_counter() + seconds
    op = 0
    while op == 0 or time.perf_counter() < deadline:
        traced = traced_run and op % 2 == 1
        report.attempted += 1
        outcome = None
        try:
            outcome = workload.run_op(op, traced)
            problems = workload.check(outcome)
        except Exception as err:  # noqa: BLE001 - a failed operation
            problems = [f"{type(err).__name__}: {err}"]
        if problems:
            report.fail(op, problems)
        if outcome is not None:
            workload.keep(outcome, traced)
        op += 1


def layer_shares(spans) -> dict:
    """Each layer's share of timed self time (setup spans excluded)."""
    own = self_times(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for span, value in zip(spans, own):
        if span.op >= 0:
            totals[span.layer] = totals.get(span.layer, 0.0) + value
    whole = sum(totals.values())
    return {layer: 100.0 * value / whole if whole else 0.0
            for layer, value in totals.items()}


def prefill(seed: int) -> int:
    """Fill the private trace cache with the Section 5 traces."""
    for build in SECTION_BUILDERS.values():
        build(seed)
    print(json.dumps({"prefilled": sorted(SECTION_BUILDERS)}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before the launcher "
                             "started this process")
    parser.add_argument("--mode", choices=("measure", "setup", "prefill"),
                        default="measure")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "prefill":
        return prefill(args.seed)

    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](args.seed, tracer)
    workload.setup()
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        return 0

    report = Report()
    try:
        if workload.closed_loop:
            closed_loop(workload, args.seconds, bool(args.trace), report)
        else:
            workload.run(args.seconds, report)
        workload.finish(report, tracer.spans)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    report.problems.extend(getattr(workload, "setup_problems", []))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for note in report.notes:
        print(note)
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(report.per_layer)
        loads = [s.duration * 1e3 for s in tracer.spans
                 if s.name == "trace.cache.load"]
        metrics["trace.cache.load_ms"] = median(loads)
        shares = layer_shares(tracer.spans)
        for layer, share in shares.items():
            metrics[f"share.{layer}"] = share
        print("layer self-time shares: " + "  ".join(
            f"{layer} {share:.1f}%" for layer, share in shares.items()))
        own = layer_self_ms(tracer.spans)
        print("layer self time (ms): " + "  ".join(
            f"{layer} {value:.1f}" for layer, value in sorted(own.items())))
        if args.out_dir is not None:
            path = write_chrome_trace(
                tracer.spans, f"perfbench {args.workload} seed {args.seed}",
                args.out_dir / f"{args.workload}-seed{args.seed}"
                               ".trace.json")
            print(f"spans: {len(tracer.spans)} written to {path}")
        units = PER_LAYER
    else:
        metrics = dict(report.end_to_end, setup_s=setup_s,
                       peak_rss_mb=peak_rss_mb)
        units = END_TO_END
        for name, value, unit in report.named:
            print(f"{name} = {value:.6g} {unit}")
        print(f"peak_rss_mb = {peak_rss_mb:.6g} MB")
    result = {
        "correct": report.failed == 0 and not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
