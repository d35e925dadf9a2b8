"""Discrete-event simulation of the Section 3.2 mapping.

The simulator replays a hash-table activity trace against a machine of
``n_procs`` match processors plus one control processor, following the
paper's match procedure:

1. The control processor broadcasts the cycle's wme packet to all match
   processors (one send overhead at control; latency; one receive
   overhead at each match processor).
2. Every match processor evaluates all constant tests (30 µs) and keeps
   exactly the root activations whose hash bucket it owns — the coarse
   granularity: these never travel as messages.
3. Processing an activation = add/delete the token in its bucket
   (32 µs left / 16 µs right) then generate successors (16 µs each).
   Each successor headed for a bucket on another processor is sent as a
   message (send overhead at the producer, latency in the network,
   receive overhead at the consumer) — the fine granularity.
4. Instantiations (terminal activations) are sent to the control
   processor.
5. The cycle ends when all activations are processed and all messages
   delivered; cycles are serialized by the control barrier.  Termination
   detection is idealized and free, as in the paper.

Everything is deterministic: the event queue breaks ties on a sequence
counter and processors serve tasks FIFO by arrival time.

One event loop
--------------
:func:`simulate_cycle` is the only production loop, and every sweep
point of every figure goes through it, so it is written for speed:
heap entries are plain ``(arrival, seq, slot, via_message,
activation)`` tuples (the unique ``seq`` guarantees comparison never
reaches the activation), each bucket key's owner is resolved once per
cycle, and per-event lookups are hoisted into locals.  The processors
a cycle touches are renumbered into compact slots, so a cycle costs
O(active work) plus, for dense results only, the O(P) result lists.
Two optional hooks extend it without a second copy of the arithmetic:
reliable delivery under a :class:`~repro.mpc.faults.FaultModel`
(acks, retransmits, stall windows, fail-stops) and span recording
into a :class:`~repro.mpc.timeline.TimelineRecorder`.
:mod:`repro.mpc._reference` preserves the original object-based loop,
and the ``repro check`` oracles hold the two bit-identical.

Round compression
-----------------
``RunConfig(compress_rounds=True)`` run-length encodes idle stretches:
a run of consecutive fully-idle cycles is simulated once, as an empty
:class:`~repro.trace.events.CycleTrace`, and carried with a repeat
count — in the spirit of the round-compression literature, exact
rather than approximated, since the template *is* the loop's own
result.  Per-cycle results then hold
:class:`~repro.mpc.metrics.SparseProcArray` views, so a 4096-processor
cycle costs memory for the processors it touched only.

:func:`iter_cycle_results` is the memory-bounded core both modes share:
it yields ``(CycleResult, repeat)`` pairs one at a time and accepts
streaming trace sources (anything yielding
:class:`~repro.trace.events.CycleTrace` / :class:`~repro.trace.events
.IdleRun` entries), so traces with 10⁶+ activations never need to be
materialized.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from ..rete.hashing import BucketKey
from ..trace.events import (KIND_TERMINAL, LEFT, CycleTrace, IdleRun,
                            SectionTrace, iter_cycles)
from .config import RunConfig
from .costmodel import DEFAULT_COSTS, ZERO_OVERHEADS, CostModel, \
    OverheadModel
from .faults import (DEFAULT_PROTOCOL, DeliveryPlan, FaultModel,
                     ProtocolModel, plan_delivery)
from .mapping import BucketMapping, RoundRobinMapping, greedy_mapping
from .metrics import CycleResult, SimResult, SparseProcArray
from .timeline import (CAT_ACK, CAT_BROADCAST, CAT_CONSTANT_TESTS, CAT_RECV,
                       CAT_RETRANSMIT, CAT_SEND, CAT_STALL, CAT_SUCCESSOR,
                       CAT_TIMEOUT_WAIT, CAT_TOKEN_ADD, CAT_TOKEN_DELETE,
                       CAT_TRANSIT, CONTROL, NETWORK, CycleTimeline,
                       Envelope, Span, TimelineRecorder)

#: Test-only mis-pricing hook for the conformance harness
#: (:mod:`repro.check`).  When nonzero, :func:`simulate_cycle` charges
#: right tokens this many extra microseconds in every mode; only the
#: frozen reference loop ignores it, so the oracles that compare
#: against :mod:`repro.mpc._reference` (``opt_vs_reference``,
#: ``compressed_vs_exact``) must catch it.  The harness's mutation
#: smoke test sets it (via :func:`repro.check.mutated_right_token_cost`)
#: to prove the oracle matrix catches a mis-priced cost constant.
#: Never set it outside tests.
_TEST_MUTATE_RIGHT_TOKEN_US = 0.0


def bucket_work(cycle: CycleTrace,
                costs: CostModel = DEFAULT_COSTS) -> Dict[BucketKey, float]:
    """Per-bucket processing time in *cycle* (greedy-distribution input).

    This is the "detailed trace of the activity in each bucket" the paper
    feeds its offline greedy algorithm.
    """
    work: Dict[BucketKey, float] = defaultdict(float)
    left_us = costs.left_token_us
    right_us = costs.right_token_us
    successor_us = costs.successor_us
    for act in cycle.ordered():
        if act.kind == KIND_TERMINAL:
            continue
        work[act.key] += (left_us if act.side == LEFT else right_us) \
            + successor_us * len(act.successors)
    return dict(work)


class BucketWorkCache:
    """Memoized :func:`bucket_work`, shared across sweep points.

    The greedy-distribution experiments rebuild a mapping per (cycle,
    processor count) pair; the per-bucket activity depends only on the
    cycle, so one cache serves every processor count of a sweep.  Cycles
    are identified by object identity (a strong reference is kept, so an
    id is never recycled while cached).
    """

    def __init__(self, costs: CostModel = DEFAULT_COSTS) -> None:
        self.costs = costs
        self._cache: Dict[int, tuple] = {}

    def __call__(self, cycle: CycleTrace) -> Dict[BucketKey, float]:
        entry = self._cache.get(id(cycle))
        if entry is None or entry[0] is not cycle:
            entry = (cycle, bucket_work(cycle, self.costs))
            self._cache[id(cycle)] = entry
        return entry[1]

    def __getstate__(self):
        # The cache keys are process-local object ids: never ship them
        # to a worker process (the parallel sweep engine pickles
        # factories); start empty there instead.
        return {"costs": self.costs}

    def __setstate__(self, state):
        self.costs = state["costs"]
        self._cache = {}


class GreedyMappingFactory:
    """Per-cycle idealized greedy (LPT) distribution, ready to share.

    A picklable :data:`~repro.mpc.config.MappingFactory`: pass
    ``RunConfig(mapping_factory=GreedyMappingFactory(n_procs))`` to
    :func:`simulate_config`, or build one per processor count around a shared
    :class:`BucketWorkCache` so a whole sweep prices each cycle's bucket
    activity once.
    """

    def __init__(self, n_procs: int,
                 costs: CostModel = DEFAULT_COSTS,
                 work_cache: Optional[BucketWorkCache] = None) -> None:
        self.n_procs = n_procs
        self.work_cache = work_cache if work_cache is not None \
            else BucketWorkCache(costs)

    def __call__(self, cycle: CycleTrace) -> BucketMapping:
        return greedy_mapping(self.work_cache(cycle), self.n_procs)


class _SearchCostTracker:
    """Incremental deletion-search pricing (footnote 6 model).

    Bucket occupancy is tracked in causal (serial trace) order across
    the whole section — Rete memory persists between cycles — and every
    "-" activation is charged ``delete_search_us`` per entry it must
    scan past.  The depth state only ever advances, so charging cycles
    one at a time as the engine reaches them is bit-identical to the
    old up-front whole-trace pass — and it is what lets
    :func:`iter_cycle_results` consume streaming traces in one pass.
    """

    __slots__ = ("rate", "depth")

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.depth: Dict[BucketKey, int] = {}

    def charge(self, cycle: CycleTrace) -> Dict[int, float]:
        """Per-activation surcharges for *cycle*; advances the state."""
        rate = self.rate
        if rate <= 0.0:
            return {}
        depth = self.depth
        per_cycle: Dict[int, float] = {}
        for act in cycle:
            if act.kind == KIND_TERMINAL:
                continue
            if act.tag == "+":
                depth[act.key] = depth.get(act.key, 0) + 1
            else:
                before = depth.get(act.key, 0)
                if before > 0:
                    per_cycle[act.act_id] = rate * before
                    depth[act.key] = before - 1
        return per_cycle


def compute_search_costs(trace: SectionTrace,
                         costs: CostModel) -> Dict[int, Dict[int, float]]:
    """Per-activation deletion-search surcharges for a whole section.

    Whole-trace wrapper over :class:`_SearchCostTracker`.  Returns
    ``{cycle_index: {act_id: extra_us}}``; empty when the cost model
    keeps the paper's constant-time assumption.
    """
    if costs.delete_search_us <= 0.0:
        return {}
    tracker = _SearchCostTracker(costs.delete_search_us)
    extra: Dict[int, Dict[int, float]] = {}
    for cycle in iter_cycles(trace):
        per_cycle = tracker.charge(cycle)
        if per_cycle:
            extra[cycle.index] = per_cycle
    return extra


def iter_cycle_results(trace, config: RunConfig
                       ) -> Iterator[Tuple[CycleResult, int]]:
    """Simulate *trace* one cycle at a time, yielding ``(result,
    repeat)`` pairs.

    This is the memory-bounded engine core: it accepts any trace
    source — a :class:`~repro.trace.events.SectionTrace` or a
    streaming source yielding :class:`~repro.trace.events.CycleTrace`
    / :class:`~repro.trace.events.IdleRun` entries — and never holds
    more than one cycle's result.  Every cycle goes through
    :func:`simulate_cycle`.  ``repeat`` is 1 everywhere except with
    ``config.compress_rounds``, where a maximal run of consecutive
    fully-idle cycles is simulated once, as an empty cycle, and
    emitted with ``repeat`` equal to the run length.  Sweeps that only
    need aggregates consume this directly and discard each pair;
    :func:`simulate_config` collects the pairs into a
    :class:`~repro.mpc.metrics.SimResult`.
    """
    n_procs = config.n_procs
    costs = config.costs
    overheads = config.overheads
    mapping = config.mapping
    mapping_factory = config.mapping_factory
    faults = config.faults if config.faulty else None
    protocol = config.protocol or DEFAULT_PROTOCOL
    recorder = config.recorder
    compress = config.compress_rounds
    if mapping is None:
        mapping = RoundRobinMapping(n_procs)
    if recorder is not None:
        recorder.begin_section(trace.name, n_procs, costs, overheads,
                               faults is not None)

    # Round compression under fault injection: every fault draw is
    # keyed to the *absolute* cycle index (see
    # :func:`repro.mpc.faults.counter_u01` callers), so collapsing an
    # idle stretch never shifts which cycles later faults land on.  An
    # idle cycle carries no data message, so only stall windows can
    # touch it: every-cycle windows (``cycle=None``) hit each cycle of
    # a stretch alike, while cycle-specific stalls and fail-stops
    # break the stretch so those indices are simulated on their own.
    fault_breaks: frozenset = frozenset()
    if compress and faults is not None:
        fault_breaks = frozenset(
            s.cycle for s in faults.stalls if s.cycle is not None
        ) | frozenset(f.cycle for f in faults.failures)

    tracker = _SearchCostTracker(costs.delete_search_us)
    pending_start = 0
    pending_count = 0

    def step(cycle: CycleTrace, repeat: int = 1
             ) -> Tuple[CycleResult, int]:
        """One cycle (or one idle stretch of *repeat* cycles)."""
        cycle_mapping = mapping
        if mapping_factory is not None and cycle.activations:
            cycle_mapping = mapping_factory(cycle)
            if cycle_mapping.n_procs != n_procs:
                raise ValueError("mapping_factory produced a mapping for "
                                 f"{cycle_mapping.n_procs} processors")
        return simulate_cycle(
            cycle, n_procs, costs, overheads, cycle_mapping,
            tracker.charge(cycle), faults=faults, protocol=protocol,
            recorder=recorder, sparse=compress, repeat=repeat), repeat

    def flush() -> Iterator[Tuple[CycleResult, int]]:
        """Emit the pending idle stretch (if any) as one RLE pair."""
        nonlocal pending_count
        if pending_count:
            count, pending_count = pending_count, 0
            yield step(CycleTrace(index=pending_start), count)

    for entry in trace:
        is_idle_run = isinstance(entry, IdleRun)
        if compress:
            # Fully-idle cycles (empty trace cycles or IdleRun markers)
            # join the pending stretch while contiguous; anything else
            # flushes it first.
            if is_idle_run:
                idle_start, idle_count = entry.start_index, entry.count
            elif not entry.activations:
                idle_start, idle_count = entry.index, 1
            else:
                idle_start = None
            if idle_start is not None:
                end = idle_start + idle_count
                # Stretch boundaries at fault-affected indices (the
                # break set is tiny — explicit stalls and fail-stops —
                # so this never iterates the idle run itself).
                breaks = (sorted(b for b in fault_breaks
                                 if idle_start <= b < end)
                          if fault_breaks else [])
                pos = idle_start
                for b in breaks + [end]:
                    if pos < b:
                        if pending_count and \
                                pending_start + pending_count == pos:
                            pending_count += b - pos
                        else:
                            yield from flush()
                            pending_start, pending_count = pos, b - pos
                    if b < end:
                        yield from flush()
                        yield step(CycleTrace(index=b))
                    pos = b + 1
                continue
            yield from flush()
        for cycle in entry.cycles() if is_idle_run else (entry,):
            yield step(cycle)
    yield from flush()


def simulate_config(trace, config: RunConfig) -> SimResult:
    """Simulate *trace* under one :class:`~repro.mpc.config.RunConfig`.

    This is the engine entry point every executor backend and sweep
    shares; :func:`simulate` is its short-form spelling, and
    :func:`iter_cycle_results` is the streaming core it collects.

    Parameters
    ----------
    trace:
        The section to replay (validated traces only; see
        :func:`repro.trace.validate_trace`), or any streaming trace
        source (see :mod:`repro.trace.events`).
    config:
        The full machine configuration.  ``config.mapping`` defaults to
        the paper's round robin; ``config.mapping_factory`` overrides
        it with a fresh mapping per cycle (the paper's idealized greedy
        redistribution).  A ``None`` or null ``config.faults`` runs the
        loop without its reliable-delivery hook, so results are
        bit-identical to a fault-free config; ``config.protocol``
        defaults to :data:`~repro.mpc.faults.DEFAULT_PROTOCOL` when
        faults are active and is ignored otherwise.
        ``config.recorder`` collects every cycle's spans without
        changing any result bit.  ``config.compress_rounds`` returns
        sparse per-processor arrays and run-length encodes idle
        stretches — bit-identical numbers in O(active work) time; see
        the module docstring.

    Returns
    -------
    SimResult with one :class:`CycleResult` per cycle (run-length
    encoded when ``config.compress_rounds``; see
    :meth:`~repro.mpc.metrics.SimResult.expanded`).
    """
    result = SimResult(trace_name=trace.name, n_procs=config.n_procs)
    repeats: Optional[List[int]] = [] if config.compress_rounds else None
    for cycle_result, repeat in iter_cycle_results(trace, config):
        result.cycles.append(cycle_result)
        if repeats is not None:
            repeats.append(repeat)
    result.repeats = repeats
    return result


def simulate(trace: SectionTrace,
             n_procs: int,
             costs: CostModel = DEFAULT_COSTS,
             overheads: OverheadModel = ZERO_OVERHEADS) -> SimResult:
    """Simulate *trace* on *n_procs* match processors.

    The short form of :func:`simulate_config`; build a
    :class:`~repro.mpc.config.RunConfig` for mappings, fault
    injection, recording or round compression.
    """
    return simulate_config(trace, RunConfig(
        n_procs=n_procs, costs=costs, overheads=overheads))


def _past_windows(intervals: List[Tuple[float, float]], t: float) -> float:
    """Earliest time >= *t* outside the sorted stall *intervals*: work
    that would start inside a window waits for its end (stalls are
    non-preemptive)."""
    for start, end in intervals:
        if start <= t < end:
            t = end
    return t


def simulate_cycle(cycle: CycleTrace, n_procs: int, costs: CostModel,
                   overheads: OverheadModel, mapping: BucketMapping,
                   search_costs: Optional[Dict[int, float]] = None, *,
                   faults: Optional[FaultModel] = None,
                   protocol: ProtocolModel = DEFAULT_PROTOCOL,
                   recorder: Optional[TimelineRecorder] = None,
                   sparse: bool = False, repeat: int = 1) -> CycleResult:
    """Simulate one cycle of the Section 3.2 protocol.

    This is the simulator's only event loop.  Every mode of
    :func:`iter_cycle_results` is a combination of two optional hooks:

    * *faults* switches on reliable delivery (:mod:`repro.mpc.faults`).
      Every data message gets a :func:`~repro.mpc.faults.plan_delivery`
      plan (loss, retransmits, duplicates, jitter) and is acknowledged
      under *protocol*, and processors honor the cycle's stall windows
      and fail-stops.  A null model still prices the acks;
      :func:`iter_cycle_results` passes ``None`` for one.
    * *recorder* receives the cycle's typed spans and envelopes as one
      :class:`~repro.mpc.timeline.CycleTimeline` entry standing for
      *repeat* identical cycles.  Recording only appends spans; it
      never touches the timing arithmetic.

    The float-addition order is fixed per mode: without faults the
    inter-processor token messages are tallied after the event loop,
    with faults every message is counted where it is sent.

    Per-processor state lives in compact slots: the processors the
    cycle touches (the bucket owners of its activations, plus stalled
    processors) are renumbered ``0..k-1`` so the hot loop indexes plain
    lists, while every other processor sits at the post-broadcast floor.
    The result's per-processor arrays are dense lists, or with *sparse*
    :class:`~repro.mpc.metrics.SparseProcArray` views over the touched
    slots, so a cycle costs O(active work) rather than O(P).
    """
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    left_us = costs.left_token_us
    right_us = costs.right_token_us + _TEST_MUTATE_RIGHT_TOKEN_US
    successor_us = costs.successor_us
    acts = cycle.activations
    get_extra = (search_costs or {}).get
    index = cycle.index
    reliable = faults is not None
    record = recorder is not None

    # Resolve every bucket key's owner once and give each owner a slot.
    processor_for = mapping.processor_for
    procs: List[int] = []  # slot -> processor
    slot_of: Dict[int, int] = {}  # processor -> slot
    key_slot: Dict[BucketKey, int] = {}
    dest_of: Dict[int, int] = {}  # act_id -> slot
    for act in cycle.ordered():
        key = act.key
        slot = key_slot.get(key)
        if slot is None:
            proc = processor_for(key)
            slot = slot_of.get(proc)
            if slot is None:
                slot = slot_of[proc] = len(procs)
                procs.append(proc)
            key_slot[key] = slot
        dest_of[act.act_id] = slot

    # --- step 1: broadcast (reliable in every mode) ------------------------
    control_busy = send_us
    match_start = send_us + latency_us + recv_us
    network_busy = latency_us if n_procs > 0 else 0.0
    n_messages = 1  # the broadcast packet

    # --- step 2: constant tests; untouched processors stay at the floor ---
    floor_ready = match_start + costs.constant_tests_us
    floor_busy = recv_us + costs.constant_tests_us
    ready = [floor_ready] * len(procs)
    busy = [floor_busy] * len(procs)
    activations = [0] * len(procs)
    left_activations = [0] * len(procs)

    retransmits = duplicate_drops = acks = token_messages = 0
    timeout_wait_us = stall_us = recovery_us = 0.0
    #: slot -> sorted stall intervals (fault hook only)
    windows: Dict[int, List[Tuple[float, float]]] = {}
    #: processor -> constant-test start, for processors with a window
    tests_start: Dict[int, float] = {}
    if reliable:
        recovery_us = faults.recovery_in_cycle(index, n_procs)
        by_proc = faults.windows_for_cycle(index, n_procs)
        for proc in sorted(by_proc):  # ascending: float-sum order
            slot = slot_of.get(proc)
            if slot is None:
                slot = slot_of[proc] = len(procs)
                procs.append(proc)
                ready.append(floor_ready)
                busy.append(floor_busy)
                activations.append(0)
                left_activations.append(0)
            windows[slot] = by_proc[proc]
            start = _past_windows(by_proc[proc], match_start)
            stall_us += start - match_start
            tests_start[proc] = start
            ready[slot] = start + costs.constant_tests_us

    if record:
        spans: List[Span] = []
        envelopes: List[Envelope] = []
        add_span = spans.append
        add_envelope = envelopes.append
        add_span(Span(CAT_BROADCAST, CONTROL, 0.0, send_us))
        if n_procs > 0:
            add_span(Span(CAT_TRANSIT, NETWORK, send_us,
                          send_us + latency_us))
        for p in range(n_procs):
            start = tests_start.get(p, match_start)
            add_span(Span(CAT_RECV, p, send_us + latency_us, match_start))
            if start > match_start:
                add_span(Span(CAT_STALL, p, match_start, start))
            add_span(Span(CAT_CONSTANT_TESTS, p, start,
                          start + costs.constant_tests_us))

        def record_sender_side(proc: int, depart_base: float,
                               plan: DeliveryPlan, msg_id: int) -> None:
            """Sender busy spans: one send per attempt, one ack receipt."""
            s = depart_base
            for attempt in range(plan.attempts):
                add_span(Span(CAT_SEND if attempt == 0 else CAT_RETRANSMIT,
                              proc, s, s + send_us, msg_id))
                s += send_us
            add_span(Span(CAT_ACK, proc, s, s + recv_us, msg_id))

        def record_data_transits(depart_base: float, arrive: float,
                                 plan: DeliveryPlan, msg_id: int) -> None:
            """Network occupancy of every data copy, plus timeout waits."""
            first_wire = depart_base + send_us
            if plan.timeout_wait_us > 0:
                add_span(Span(CAT_TIMEOUT_WAIT, NETWORK, first_wire,
                              first_wire + plan.timeout_wait_us, msg_id))
            for _ in range(plan.retransmits):  # the lost copies
                add_span(Span(CAT_RETRANSMIT, NETWORK, first_wire,
                              first_wire + latency_us, msg_id))
            add_span(Span(CAT_TRANSIT, NETWORK,
                          arrive - (latency_us + plan.jitter_us), arrive,
                          msg_id))
            for _ in range(plan.duplicates):
                add_span(Span(CAT_TRANSIT, NETWORK, arrive - latency_us,
                              arrive, msg_id))

        def record_receipts(proc: int, begin: float, copies: int,
                            msg_id: int) -> None:
            """Receive and ack every copy, then the acks' transits."""
            for _ in range(copies):
                add_span(Span(CAT_RECV, proc, begin, begin + recv_us,
                              msg_id))
                add_span(Span(CAT_ACK, proc, begin + recv_us,
                              begin + recv_us + send_us, msg_id))
                begin += recv_us + send_us
            for _ in range(copies):
                add_span(Span(CAT_ACK, NETWORK, begin, begin + latency_us,
                              msg_id))

        def record_envelope(act, slot: int, start: float, end: float,
                            via_message: bool,
                            received: Optional[DeliveryPlan]) -> None:
            """One activation's processing interval on its processor,
            with the delivery delay of the message that triggered it."""
            wait_comm = wait_protocol = 0.0
            if via_message:
                wait_comm = send_us + latency_us
                if received is not None:
                    wait_comm += received.jitter_us
                    wait_protocol = received.timeout_wait_us
            add_envelope(Envelope(act.act_id, act.parent_id, procs[slot],
                                  start, end, via_message,
                                  wait_comm_us=wait_comm,
                                  wait_protocol_us=wait_protocol))

    def past_stalls(slot: int, t: float) -> float:
        """Earliest time >= *t* at which *slot* may start work."""
        nonlocal stall_us
        intervals = windows.get(slot)
        if not intervals:
            return t
        start = _past_windows(intervals, t)
        if start > t:
            stall_us += start - t
            if record:
                add_span(Span(CAT_STALL, procs[slot], t, start))
        return start

    def deliver(msg_id: int) -> DeliveryPlan:
        """Plan one data message and count its protocol traffic."""
        nonlocal retransmits, duplicate_drops, acks, timeout_wait_us
        nonlocal n_messages, network_busy
        plan = plan_delivery(faults, protocol, index, msg_id)
        copies = plan.attempts + plan.duplicates
        retransmits += plan.retransmits
        duplicate_drops += plan.duplicates
        timeout_wait_us += plan.timeout_wait_us
        acks += 1 + plan.duplicates
        # Data copies + one ack per received copy cross the network.
        n_messages += copies + 1 + plan.duplicates
        network_busy += latency_us * (copies + 1 + plan.duplicates) \
            + plan.jitter_us
        return plan

    seq = 0
    #: heap of (arrival, seq, slot, via_message, activation); seq is
    #: unique, so tuple comparison never reaches the activation.
    queue: list = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    #: completion times of instantiation deliveries at the control proc
    control_arrivals: List[float] = []
    control_ready = control_busy  # control is busy until broadcast sent

    def ship(start: float, msg_id: int, slot: int) -> float:
        """Send instantiation *msg_id* from *slot* to the control
        processor; returns when the sender is free again."""
        nonlocal control_busy, control_ready, network_busy, n_messages
        if reliable:
            plan = deliver(msg_id)
            # Sender: one send overhead per attempt, one ack receipt.
            t = start + send_us * plan.attempts + recv_us
            arrive = start + send_us + plan.timeout_wait_us \
                + latency_us + plan.jitter_us
            # Control: FIFO receipt of every copy, one ack send per copy.
            copies = 1 + plan.duplicates
            begin = max(control_ready, arrive)
            control_ready = begin + (recv_us + send_us) * copies
            control_busy += (recv_us + send_us) * copies
        else:
            t = start + send_us
            n_messages += 1
            network_busy += latency_us
            arrive = t + latency_us
            # Control handles instantiation receipts FIFO as they arrive.
            begin = max(control_ready, arrive)
            control_ready = begin + recv_us
            control_busy += recv_us
        control_arrivals.append(control_ready)
        if record:
            proc = procs[slot]
            if reliable:
                record_sender_side(proc, start, plan, msg_id)
                record_data_transits(start, arrive, plan, msg_id)
                record_receipts(CONTROL, begin, copies, msg_id)
            else:
                add_span(Span(CAT_SEND, proc, start, t, msg_id))
                add_span(Span(CAT_TRANSIT, NETWORK, t, arrive, msg_id))
                add_span(Span(CAT_RECV, CONTROL, begin, control_ready,
                              msg_id))
        return t

    for root in cycle.roots():
        owner = dest_of[root.act_id]
        if root.kind == KIND_TERMINAL:
            # A single-CE instantiation: produced by the constant tests;
            # the bucket owner ships it to the control processor.
            start = ready[owner]
            if windows:
                start = past_stalls(owner, start)
            t = ship(start, root.act_id, owner)
            busy[owner] += t - start if reliable else send_us
            ready[owner] = t
            if record:
                record_envelope(root, owner, start, t, False, None)
            continue
        seq += 1
        heappush(queue, (ready[owner], seq, owner, False, root))

    # --- steps 3-4: event loop ---------------------------------------------
    while queue:
        arrival, _, p, via_message, act = heappop(queue)
        proc_ready = ready[p]
        start = proc_ready if proc_ready > arrival else arrival
        if windows:
            start = past_stalls(p, start)
        t = start
        if via_message:
            if reliable:
                # Receive the data copy, ack it; drop + ack any duplicate.
                received = plan_delivery(faults, protocol, index,
                                         act.act_id)
                t += (recv_us + send_us) * (1 + received.duplicates)
                if record:
                    record_receipts(procs[p], start,
                                    1 + received.duplicates, act.act_id)
            else:
                t += recv_us
                if record:
                    add_span(Span(CAT_RECV, procs[p], start, t,
                                  act.act_id))
        token_start = t
        side = act.side
        t += left_us if side == LEFT else right_us
        extra = get_extra(act.act_id)
        if extra is not None:
            t += extra
        if record:
            add_span(Span(CAT_TOKEN_ADD if act.tag == "+" else
                          CAT_TOKEN_DELETE, procs[p], token_start, t,
                          act.act_id))
        activations[p] += 1
        if side == LEFT:
            left_activations[p] += 1

        for succ_id in act.successors:
            succ = acts[succ_id]
            if record:
                add_span(Span(CAT_SUCCESSOR, procs[p], t, t + successor_us,
                              succ_id))
            t += successor_us
            if succ.kind == KIND_TERMINAL:
                t = ship(t, succ_id, p)
                continue
            dest = dest_of[succ_id]
            seq += 1
            if dest == p:
                heappush(queue, (t, seq, p, False, succ))
            elif reliable:
                sent = deliver(succ_id)
                arrive = t + send_us + sent.timeout_wait_us \
                    + latency_us + sent.jitter_us
                if record:
                    record_sender_side(procs[p], t, sent, succ_id)
                    record_data_transits(t, arrive, sent, succ_id)
                # Sender: send per attempt, then the ack receipt.
                t += send_us * sent.attempts + recv_us
                heappush(queue, (arrive, seq, dest, True, succ))
            else:
                token_messages += 1
                if record:
                    add_span(Span(CAT_SEND, procs[p], t, t + send_us,
                                  succ_id))
                    add_span(Span(CAT_TRANSIT, NETWORK, t + send_us,
                                  t + send_us + latency_us, succ_id))
                t += send_us
                heappush(queue, (t + latency_us, seq, dest, True, succ))

        if record:
            record_envelope(act, p, start, t, via_message,
                            received if via_message and reliable else None)
        busy[p] += t - start
        ready[p] = t

    # Fault-free token messages, tallied once (zero under faults, where
    # deliver() counted each one as it was sent).
    n_messages += token_messages
    network_busy += token_messages * latency_us

    # Untouched processors all sit exactly at floor_ready, so including
    # the floor once makes this max equal the one over every processor.
    makespan = max([floor_ready] + ready + control_arrivals)
    if sparse:
        proc_busy = SparseProcArray(n_procs, floor_busy, {
            proc: b for proc, b in zip(procs, busy) if b != floor_busy})
        proc_acts = SparseProcArray(n_procs, 0, {
            proc: n for proc, n in zip(procs, activations) if n})
        proc_left = SparseProcArray(n_procs, 0, {
            proc: n for proc, n in zip(procs, left_activations) if n})
    else:
        proc_busy = [floor_busy] * n_procs
        proc_acts = [0] * n_procs
        proc_left = [0] * n_procs
        for slot, proc in enumerate(procs):
            proc_busy[proc] = busy[slot]
            proc_acts[proc] = activations[slot]
            proc_left[proc] = left_activations[slot]
    if record:
        recorder.add_cycle(CycleTimeline(
            index=index, n_procs=n_procs, makespan_us=makespan,
            proc_busy_us=list(proc_busy), spans=spans,
            envelopes=envelopes, repeat=repeat))
    return CycleResult(index=index, makespan_us=makespan,
                       proc_busy_us=proc_busy,
                       proc_activations=proc_acts,
                       proc_left_activations=proc_left,
                       n_messages=n_messages,
                       network_busy_us=network_busy,
                       control_busy_us=control_busy,
                       retransmits=retransmits,
                       duplicate_drops=duplicate_drops,
                       acks=acks,
                       timeout_wait_us=timeout_wait_us,
                       stall_us=stall_us,
                       recovery_us=recovery_us)


def simulate_base(trace: SectionTrace,
                  costs: CostModel = DEFAULT_COSTS) -> SimResult:
    """The paper's base case: one match processor, zero overheads."""
    return simulate_config(trace, RunConfig(n_procs=1, costs=costs,
                                            overheads=ZERO_OVERHEADS))
