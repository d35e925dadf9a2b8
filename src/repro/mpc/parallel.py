"""Parallel sweep engine: evaluate sweep grids across worker processes.

The figure experiments evaluate a grid of independent simulation points
— (trace, processor count, overhead setting, mapping) — and every point
is pure and deterministic.  This module fans the grid out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles the
results *in submission order*, so a parallel sweep is **bit-identical**
to the serial one: the same :func:`~repro.mpc.simulator.simulate` runs
on the same inputs, only on another CPU, and no result depends on
completion order.

Worker count resolution (the ``workers`` knob everywhere in the
harness):

* ``workers=N`` (N >= 2) — use a pool of N processes.
* ``workers=1`` — exact old behavior: everything in-process, no pool.
* ``workers=None`` — the default: ``REPRO_SWEEP_WORKERS`` from the
  environment if set, else :func:`set_default_workers`'s value if set,
  else ``os.cpu_count()``.

Even with ``workers >= 2`` resolved, a pool is only actually spawned
when it is expected to win: :func:`pool_worth_it` requires at least two
real CPUs and enough total work (activations × points) to amortize the
fork/pickle startup, so a sweep never loses to the serial path on a
small grid or a single-CPU machine.  ``REPRO_SWEEP_FORCE_POOL=1``
bypasses the gate (tests and the conformance oracle exercise the pool
machinery regardless of the host), ``=0`` forces serial.  Gating never
changes results — only where they are computed.

Grids whose inputs cannot be pickled (e.g. a closure-based per-cycle
mapping factory) quietly fall back to the serial path — correctness
first, parallelism when possible.

Worker crashes do not kill a sweep: when the pool breaks
(``BrokenProcessPool`` — a worker segfaulted, was OOM-killed, or died
unpickling its payload), the unfinished points are retried once in a
fresh pool, and if that pool breaks too they are evaluated serially
in-process.  Recovered points are logged via the ``repro.mpc.parallel``
logger; because every point is pure, the recovered results are
identical to what the healthy pool (or the serial path) would have
produced.
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..obs import get_registry, log_event
from ..trace.events import SectionTrace
from .config import MappingFactory, RunConfig
from .costmodel import (DEFAULT_COSTS, TABLE_5_1, ZERO_OVERHEADS, CostModel,
                        OverheadModel)
from .faults import FaultModel, ProtocolModel
from .mapping import BucketMapping
from .metrics import SimResult, speedup
from .simulator import simulate_config
from .sweep import (DEFAULT_PROC_COUNTS, SpeedupCurve, _serial_overhead_sweep,
                    _serial_speedup_curve)

logger = logging.getLogger(__name__)

#: Environment override for the default worker count.
ENV_WORKERS = "REPRO_SWEEP_WORKERS"

#: Environment override for the pool-benefit gate: ``"1"`` forces the
#: pool path whenever ``workers >= 2`` (used by tests and the
#: conformance oracle on single-CPU machines), ``"0"`` forces serial.
ENV_FORCE_POOL = "REPRO_SWEEP_FORCE_POOL"

#: Estimated total activation-evaluations below which a worker pool
#: costs more than it saves (fork + pickle + IPC ≈ a few hundred ms;
#: one activation simulates in ~1-2 µs, so ~200k activations ≈ the
#: break-even sweep size with headroom).
MIN_POOL_ACTIVATIONS = 200_000

_default_workers: Optional[int] = None


def set_default_workers(workers: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` resets)."""
    global _default_workers
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    _default_workers = workers


def resolve_workers(workers: Optional[int] = None) -> int:
    """Concrete worker count for a ``workers`` argument."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return workers
    env = os.environ.get(ENV_WORKERS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if _default_workers is not None:
        return _default_workers
    return os.cpu_count() or 1


@dataclass(frozen=True)
class GridPoint:
    """One sweep point: a full argument set for one ``simulate`` call."""

    n_procs: int
    overheads: OverheadModel = ZERO_OVERHEADS
    mapping: Optional[BucketMapping] = None
    mapping_factory: Optional[MappingFactory] = None
    faults: Optional[FaultModel] = None
    protocol: Optional[ProtocolModel] = None
    #: Run this point through the O(active-work) loop with run-length
    #: encoded idle stretches (numerically identical; the RLE result is
    #: also far cheaper to pickle back from a worker at large P).
    compress_rounds: bool = False


def _eval_point(trace: SectionTrace, costs: CostModel,
                point: GridPoint) -> SimResult:
    return simulate_config(trace, RunConfig(
        n_procs=point.n_procs, costs=costs, overheads=point.overheads,
        mapping=point.mapping, mapping_factory=point.mapping_factory,
        faults=point.faults, protocol=point.protocol,
        compress_rounds=point.compress_rounds))


def pool_worth_it(trace: SectionTrace, n_points: int) -> bool:
    """Whether a worker pool is expected to beat serial evaluation.

    The benefit heuristic behind ``--workers`` (ROADMAP: the parallel
    sweep must never lose to serial on a 1-CPU box): a pool only pays
    off with at least two real CPUs *and* enough total work to amortize
    fork/pickle/IPC startup.  ``REPRO_SWEEP_FORCE_POOL=1`` overrides to
    always-pool (tests, the conformance oracle); ``=0`` to never-pool.
    """
    force = os.environ.get(ENV_FORCE_POOL)
    if force:
        return force != "0"
    if (os.cpu_count() or 1) < 2:
        return False
    return trace.total_activations() * n_points >= MIN_POOL_ACTIVATIONS


def _picklable(payload) -> bool:
    try:
        pickle.dumps(payload)
        return True
    except Exception:
        return False


def _run_pool(trace: SectionTrace, costs: CostModel,
              points: Sequence[GridPoint], indices: Sequence[int],
              results: List[Optional[SimResult]],
              n_workers: int) -> List[int]:
    """Evaluate ``points[i]`` for each *i* in *indices* in one pool.

    Fills *results* in place and returns the indices left unfinished
    because the pool broke (always empty on a healthy pool).
    """
    remaining: List[int] = []
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        futures = []
        pending = list(indices)
        while pending:
            i = pending[0]
            try:
                futures.append((i, pool.submit(_eval_point, trace, costs,
                                               points[i])))
            except BrokenProcessPool:
                break
            pending.pop(0)
        broken = False
        for i, future in futures:
            if broken:
                remaining.append(i)
                continue
            try:
                results[i] = future.result()
            except BrokenProcessPool:
                broken = True
                remaining.append(i)
        remaining.extend(pending)
    return remaining


def run_grid(trace: SectionTrace, points: Sequence[GridPoint],
             costs: CostModel = DEFAULT_COSTS,
             workers: Optional[int] = None) -> List[SimResult]:
    """Evaluate every *point* of the grid; results in *points* order.

    The serial path (``workers=1``, a single point, unpicklable
    inputs, or a grid the benefit heuristic judges too small to
    amortize pool startup — see :func:`pool_worth_it`) computes
    in-process; otherwise points are dispatched to a process pool.
    Either way the returned list is deterministic and identical
    between the two paths.

    Worker crashes are survived: points stranded by a broken pool are
    retried once in a fresh pool and, failing that, evaluated serially
    in-process (see the module docstring).
    """
    points = list(points)
    registry = get_registry()
    registry.counter("parallel.points").inc(len(points))
    n_workers = min(resolve_workers(workers), len(points))
    if n_workers > 1 and not pool_worth_it(trace, len(points)):
        registry.counter("parallel.gated_points").inc(len(points))
        n_workers = 1
    if n_workers <= 1 or not _picklable((trace, costs, points)):
        registry.counter("parallel.serial_points").inc(len(points))
        log_event(logger, "grid_serial", trace=trace.name,
                  points=len(points))
        return [_eval_point(trace, costs, point) for point in points]
    log_event(logger, "grid_start", trace=trace.name, points=len(points),
              workers=n_workers)
    results: List[Optional[SimResult]] = [None] * len(points)
    remaining = _run_pool(trace, costs, points, range(len(points)),
                          results, n_workers)
    if remaining:
        registry.counter("parallel.pool_broken").inc()
        registry.counter("parallel.pool_breaks").inc()
        registry.counter("parallel.retried_points").inc(len(remaining))
        log_event(logger, "pool_broken", level=logging.WARNING,
                  trace=trace.name, unfinished=len(remaining),
                  points=len(points), action="retry_fresh_pool")
        remaining = _run_pool(trace, costs, points, remaining, results,
                              min(n_workers, len(remaining)))
    if remaining:
        registry.counter("parallel.pool_broken").inc()
        registry.counter("parallel.pool_breaks").inc()
        registry.counter("parallel.serial_points").inc(len(remaining))
        log_event(logger, "pool_broken", level=logging.WARNING,
                  trace=trace.name, unfinished=len(remaining),
                  points=len(points), action="serial_fallback")
        for i in remaining:
            results[i] = _eval_point(trace, costs, points[i])
        logger.info("recovered grid point(s) %s via serial fallback",
                    remaining)
    log_event(logger, "grid_done", trace=trace.name, points=len(points))
    return results  # type: ignore[return-value]


def parallel_speedup_curve(
        trace: SectionTrace,
        proc_counts: Sequence[int] = DEFAULT_PROC_COUNTS,
        overheads: OverheadModel = ZERO_OVERHEADS,
        costs: CostModel = DEFAULT_COSTS,
        mapping_for: Optional[Callable[[int], BucketMapping]] = None,
        mapping_factory_for: Optional[
            Callable[[int], MappingFactory]] = None,
        label: Optional[str] = None,
        workers: Optional[int] = None,
        compress_rounds: bool = False) -> SpeedupCurve:
    """Parallel counterpart of :func:`repro.mpc.sweep.speedup_curve`.

    Numerically identical to the serial version for any worker count:
    the base run (1 processor, zero overheads) and every sweep point are
    independent grid points, reassembled in order.
    """
    if resolve_workers(workers) <= 1:
        return _serial_speedup_curve(
            trace, proc_counts, overheads=overheads, costs=costs,
            mapping_for=mapping_for,
            mapping_factory_for=mapping_factory_for, label=label,
            compress_rounds=compress_rounds)
    # Mapping callables run in the parent so only their (picklable
    # dataclass) products travel; factories must pickle whole.
    points = [GridPoint(n_procs=1, compress_rounds=compress_rounds)]
    for n_procs in proc_counts:
        mapping = None
        factory = None
        if mapping_factory_for is not None:
            factory = mapping_factory_for(n_procs)
        elif mapping_for is not None:
            mapping = mapping_for(n_procs)
        points.append(GridPoint(n_procs=n_procs, overheads=overheads,
                                mapping=mapping, mapping_factory=factory,
                                compress_rounds=compress_rounds))
    results = run_grid(trace, points, costs=costs, workers=workers)
    base, rest = results[0], results[1:]
    return SpeedupCurve(
        label=label or f"{trace.name}@{overheads.label()}",
        proc_counts=list(proc_counts),
        speedups=[speedup(base, result) for result in rest],
        results=rest)


def parallel_overhead_sweep(
        trace: SectionTrace,
        proc_counts: Sequence[int] = DEFAULT_PROC_COUNTS,
        overhead_settings: Sequence[OverheadModel] = TABLE_5_1,
        costs: CostModel = DEFAULT_COSTS,
        workers: Optional[int] = None,
        compress_rounds: bool = False) -> List[SpeedupCurve]:
    """Parallel counterpart of :func:`repro.mpc.sweep.overhead_sweep`.

    The whole (overhead setting x processor count) grid is one flat
    fan-out — a sweep over four Table 5-1 rows keeps every worker busy
    instead of parallelizing one curve at a time.
    """
    if resolve_workers(workers) <= 1:
        return _serial_overhead_sweep(trace, proc_counts,
                                      overhead_settings, costs,
                                      compress_rounds=compress_rounds)
    proc_counts = list(proc_counts)
    points = [GridPoint(n_procs=1, compress_rounds=compress_rounds)]
    for overheads in overhead_settings:
        points.extend(GridPoint(n_procs=n, overheads=overheads,
                                compress_rounds=compress_rounds)
                      for n in proc_counts)
    results = run_grid(trace, points, costs=costs, workers=workers)
    base = results[0]
    curves: List[SpeedupCurve] = []
    offset = 1
    for overheads in overhead_settings:
        chunk = results[offset:offset + len(proc_counts)]
        offset += len(proc_counts)
        curves.append(SpeedupCurve(
            label=f"{trace.name}@{overheads.label()}",
            proc_counts=list(proc_counts),
            speedups=[speedup(base, result) for result in chunk],
            results=chunk))
    return curves
