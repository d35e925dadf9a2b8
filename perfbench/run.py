"""End-to-end benchmark of the OPS5 → Rete → trace → simulator →
live/served pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload ops5-tourney --seed 0 \\
        --seconds 24 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

``ops5-tourney``, ``ops5-rubik``
    closed loop, one client; one operation is a full pipeline pass
    over a freshly seeded OPS5 program.
``sim-sections``
    closed loop, one client; one operation regenerates the Section 5
    figure grids, a fault grid and a sparse compressed stream.
``served-sections``
    open loop; seeded Poisson arrivals of sessions into an in-process
    ``SessionServer`` at 3/s and 6/s, a capacity search, then bursts
    offered all at once for the saturation rate.

``--trace 0`` prints the end-to-end metrics: set-up time, peak RSS and
``rate_per_cal``, the workload's work per unit of host speed (work per
second times the time of a fixed calibration loop timed around each
chunk of work), which cancels the drift of a shared host's speed.  The
issue-level figures (pipeline cycles per second, session latencies,
capacity) are printed by name above the result line; ``--trace 1`` is the
separate traced run that prints the per-layer metrics and writes its
spans as Chrome trace-event JSON under ``.perfbench/out``.  The last
line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Each step runs in its own Python process with a private trace-cache
directory (``REPRO_TRACE_CACHE_DIR``) that is removed afterwards: an
untimed pre-fill of the Section 5 traces, set-up-only repeats (set-up
time is the median of several fresh processes), and the measured run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: The launcher imports nothing from the repository, so that it fails
#: cleanly where the sources are missing; these mirror workloads.WORKLOADS.
WORKLOAD_NAMES = ("ops5-tourney", "ops5-rubik", "sim-sections",
                  "served-sections")
#: Workloads whose set-up loads the Section 5 traces from the cache.
USES_SECTIONS = ("sim-sections", "served-sections")

#: Fresh processes whose set-up time is measured (the median is kept).
SETUP_SAMPLES = 3

#: Wall-clock budget for one benchmark run, all steps included.
BUDGET_S = 170.0


class StepFailed(RuntimeError):
    pass


def run_step(args: argparse.Namespace, env: dict, deadline: float,
             *extra: str) -> dict:
    """Run one worker process; return the JSON object on its last line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StepFailed("time budget exhausted")
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra,
               "--spawned", repr(time.monotonic())]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise StepFailed(f"{' '.join(extra) or 'measure'} step timed "
                         f"out after {err.timeout:.0f} s") from None
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise StepFailed(f"worker exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    private = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-", dir=work))
    env = dict(os.environ)
    env.pop("REPRO_RETE_NUMPY", None)
    env.pop("REPRO_TRACE_CACHE", None)
    env["REPRO_TRACE_CACHE_DIR"] = str(private / "trace-cache")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    try:
        if args.workload in USES_SECTIONS:
            run_step(args, env, deadline, "--mode", "prefill")
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_step(args, env, deadline,
                                       "--mode", "setup")["setup_s"])
        result = run_step(args, env, deadline, "--out-dir",
                          str(work / "out"))
    except StepFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(private, ignore_errors=True)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s = {statistics.median(setups):.6g} s (median of "
              f"{len(setups)} fresh processes: "
              f"{', '.join(f'{s:.3f}' for s in setups)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
