"""The shared-bus (shared-memory) baseline the paper compares against.

Section 5.2's reference point — "These speedups are comparable to those
achieved in these sections on our shared-bus implementation [21]" — is
the authors' parallel OPS5 on the Encore Multimax (Gupta et al.,
ICPP'88).  Its mapping differs from the MPC one in exactly the ways the
paper's closing discussion lists:

* **centralized task queues** in shared memory: any processor can pick
  up any node activation, so there is no static bucket→processor
  imbalance — but the queue itself is "a potential bottleneck" (every
  pop is a serialized shared-memory transaction);
* the **hash table is not partitioned**: no messages, no routing — but
  "to process a token, the entire hash-bucket needs to be accessed
  exclusively", so activations on one bucket still serialize (the
  Tourney cross-product hurts shared memory just as much).

:func:`simulate_shared_bus` prices both effects on the same Section 4
cost model so the MPC and shared-bus mappings can be compared trace for
trace (``benchmarks/bench_shared_bus.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..rete.hashing import BucketKey
from ..trace.events import (KIND_TERMINAL, LEFT, CycleTrace, SectionTrace,
                            TraceActivation)
from .costmodel import DEFAULT_COSTS, CostModel
from .metrics import CycleResult, SimResult
from .simulator import compute_search_costs

#: Default cost of one task-queue transaction (pop or push of an
#: activation record under the queue lock).  The Encore implementation
#: measured its scheduling overhead in single-digit microseconds; 2 us
#: keeps the queue sub-dominant until dozens of processors, matching
#: the paper's "potential bottleneck" phrasing.
DEFAULT_QUEUE_ACCESS_US = 2.0


@dataclass
class _Task:
    arrival: float
    seq: int
    act: TraceActivation

    def __lt__(self, other: "_Task") -> bool:
        return (self.arrival, self.seq) < (other.arrival, other.seq)


def simulate_shared_bus(trace: SectionTrace, n_procs: int,
                        costs: CostModel = DEFAULT_COSTS,
                        queue_access_us: float = DEFAULT_QUEUE_ACCESS_US,
                        n_queues: Optional[int] = None) -> SimResult:
    """Simulate *trace* on a shared-memory multiprocessor.

    Parameters
    ----------
    trace, n_procs, costs:
        As for :func:`repro.mpc.simulate`.
    queue_access_us:
        Serialized cost of one task-queue transaction.
    n_queues:
        Number of centralized task queues ("some centralized
        task-queues", plural — PSM-E spread scheduling over several to
        soften the bottleneck).  Defaults to ``min(n_procs, 8)``; pass
        1 to model a single queue and expose the bottleneck.

    Notes
    -----
    There is no interconnection network: ``n_messages`` counts queue
    transactions instead, and ``network_busy_us`` the total time queue
    locks are held — the shared-memory analogue of contention.
    """
    if n_procs < 1:
        raise ValueError("need at least one processor")
    if queue_access_us < 0:
        raise ValueError("queue access cost cannot be negative")
    if n_queues is None:
        n_queues = min(n_procs, 8)
    if n_queues < 1:
        raise ValueError("need at least one task queue")
    search_costs = compute_search_costs(trace, costs)
    result = SimResult(trace_name=trace.name, n_procs=n_procs)
    for cycle in trace:
        result.cycles.append(
            _bus_cycle(cycle, n_procs, costs, queue_access_us, n_queues,
                       search_costs.get(cycle.index, {})))
    return result


def _bus_cycle(cycle: CycleTrace, n_procs: int, costs: CostModel,
               queue_access_us: float, n_queues: int,
               search_costs: Dict[int, float]) -> CycleResult:
    start = costs.constant_tests_us
    ready = [start] * n_procs
    busy = [float(costs.constant_tests_us)] * n_procs
    activations = [0] * n_procs
    left_activations = [0] * n_procs
    queue_free = [0.0] * n_queues
    queue_busy = 0.0
    n_transactions = 0
    conflict_set_done: List[float] = []

    def queue_transaction(at: float) -> float:
        """Acquire the least-contended queue; returns the grant time."""
        nonlocal queue_busy, n_transactions
        q = min(range(n_queues),
                key=lambda i: (max(queue_free[i], at), i))
        grant = max(queue_free[q], at) + queue_access_us
        queue_free[q] = grant
        queue_busy += queue_access_us
        n_transactions += 1
        return grant

    pending: List[_Task] = []
    seq = 0
    for root in cycle.roots():
        seq += 1
        heapq.heappush(pending, _Task(arrival=start, seq=seq, act=root))

    bucket_free: Dict[BucketKey, float] = {}

    while pending:
        task = heapq.heappop(pending)
        act = task.act
        if act.kind == KIND_TERMINAL:
            # Conflict-set insertion: one queue transaction.
            conflict_set_done.append(queue_transaction(task.arrival))
            continue
        # A task whose bucket is still locked is left in the queue; the
        # processor takes other work instead of spinning (otherwise one
        # hot bucket would stall the whole machine).
        locked_until = bucket_free.get(act.key, 0.0)
        if locked_until > task.arrival:
            seq += 1
            heapq.heappush(pending, _Task(arrival=locked_until, seq=seq,
                                          act=act))
            continue
        # Dynamic load balancing: the processor that can start first.
        p = min(range(n_procs),
                key=lambda q: (max(ready[q], task.arrival), q))
        t = max(ready[p], task.arrival)
        # Pop from a centralized queue (serialized per queue).
        t = queue_transaction(t)
        # Exclusive access to the hash bucket for the whole activation.
        t = max(t, bucket_free.get(act.key, 0.0))
        work_start = t
        t += costs.store_cost(act.side)
        t += search_costs.get(act.act_id, 0.0)
        for succ_id in act.successors:
            t += costs.successor_us
            succ = cycle.activations[succ_id]
            seq += 1
            heapq.heappush(pending,
                           _Task(arrival=t, seq=seq, act=succ))
        bucket_free[act.key] = t
        # Busy = the queue transaction + the activation work; waiting
        # for the queue lock or a bucket lock is idle (spin) time.
        busy[p] += queue_access_us + (t - work_start)
        ready[p] = t
        activations[p] += 1
        if act.side == LEFT:
            left_activations[p] += 1

    makespan = max(ready + conflict_set_done + [start])
    return CycleResult(index=cycle.index, makespan_us=makespan,
                       proc_busy_us=busy,
                       proc_activations=activations,
                       proc_left_activations=left_activations,
                       n_messages=n_transactions,
                       network_busy_us=queue_busy,
                       control_busy_us=0.0)
