"""The live engine: one control loop and one actor body for every
transport, with supervision as a restart policy.

A live run of the Section 3.2 protocol is a sequence of cycle
*attempts* on an :class:`Engine` — one generation of match actors and
their queues on one transport (asyncio tasks in
:mod:`repro.exec.actors`, worker processes in :mod:`repro.exec.mp`).
:func:`run_engine` drives every run, supervised or not;
:class:`~repro.mpc.config.SupervisePolicy` on the
:class:`~repro.mpc.config.RunConfig` only sets how it reacts to a
failed attempt:

heartbeats
    Every wait on the control queue is chopped into
    ``heartbeat_s``-sized slices; between slices the engine checks
    worker liveness, so a killed worker is noticed within one
    heartbeat instead of one full deadline.
per-cycle deadlines
    A recognize-act cycle that fails to quiesce within
    ``cycle_timeout_s`` (default: :func:`~repro.exec.errors
    .exec_timeout_s`) raises :class:`~repro.exec.errors.ExecutorWedged`
    instead of hanging — a dropped message can starve quiescence
    forever, and counting is the only way to notice.
checkpoint-replay restart
    The cycle-index barrier *is* the checkpoint: match-actor cores
    carry no state across cycles (the sync barrier resets them), and
    every :class:`~repro.exec.plan.CyclePlan` is precomputed.  On a
    wedge, crash or protocol violation :func:`run_engine` tears down
    every worker and queue, respawns fresh ones after an
    exponential-backoff pause, and re-broadcasts the failed cycle's
    plan — a bit-identical replay.  Completed cycles are never re-run; after
    ``max_restarts`` failed replays of one cycle the run raises
    :class:`~repro.exec.errors.RestartsExhausted` carrying the last
    typed failure.

``config.supervise = None`` is the same engine with a restart budget
of 0, the default heartbeat and the :func:`~repro.exec.errors
.exec_timeout_s` deadline: the first typed failure propagates as is.

Failures are *detected by counting*, never guessed: a dropped data
message starves the processed/fires targets (wedge), a duplicated one
breaks the plan's exact-count validation
(:class:`~repro.exec.errors.ProtocolViolation`), a late one for a
closed cycle surfaces as an ``actor_error``
(:class:`~repro.exec.errors.ExecutorCrashed`).  The supervised
contract — relied on by the ``live_recovery`` oracle in
:mod:`repro.check` — is therefore: the sim-identical result, or a
typed :class:`~repro.exec.errors.ExecutorError`; never a silent wrong
answer, never an unbounded hang.

Two hooks are ``None`` unless asked for.  Live tracing (a
:class:`~repro.obs.trace.LiveTraceCollector`) gives every actor a
:class:`~repro.obs.trace.FlightRecorder` and stamps data messages with
a span context.  Chaos (:class:`~repro.exec.chaos.ChaosPolicy`) kills
workers at cycle starts, and makes the workers drop/duplicate/delay
their outgoing data messages and stall, all with counter-based
deterministic draws.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..mpc.config import RunConfig, SupervisePolicy
from ..mpc.metrics import SimResult
from ..obs import get_logger, get_registry, log_event
from ..obs.trace import (LIVE_BARRIER, LIVE_CYCLE, LIVE_MATCH,
                         LIVE_REPLAY, LIVE_RESTART, LIVE_SEND,
                         FlightRecorder)
from ..trace.events import SectionTrace
from .base import FireSet
from .chaos import MSG_FIRE, MSG_TOKEN, ChaosPolicy
from .errors import (ExecutorCrashed, ExecutorWedged, ProtocolViolation,
                     RestartsExhausted, exec_timeout_s)
from .plan import CONTROL, CycleAccumulator, CyclePlan, MatchActorCore, \
    build_plans

_LOG = get_logger("repro.exec.supervise")

#: The failures a restart can plausibly cure — anything else (a
#: ValueError from a malformed config, say) propagates immediately.
RETRYABLE = (ExecutorWedged, ExecutorCrashed, ProtocolViolation)

_FAILURE_COUNTERS = {
    ExecutorWedged: "supervise.wedges",
    ExecutorCrashed: "supervise.crashes",
    ProtocolViolation: "supervise.violations",
}


def _count_failure(err: Exception) -> None:
    name = _FAILURE_COUNTERS.get(type(err))
    if name:
        get_registry().counter(name).inc()


def _give_up(plan: CyclePlan, attempt: int,
             err: Exception) -> RestartsExhausted:
    get_registry().counter("supervise.giveups").inc()
    log_event(_LOG, "supervise.giveup", cycle=plan.index,
              attempts=attempt + 1, cause=type(err).__name__)
    return RestartsExhausted(
        f"cycle {plan.index}: gave up after {attempt + 1} attempt(s); "
        f"last failure: {err}",
        cycle=plan.index, attempts=attempt + 1,
        last=err if isinstance(err, RETRYABLE) else None)


def _log_restart(plan: CyclePlan, attempt: int, generation: int,
                 err: Exception) -> None:
    get_registry().counter("supervise.restarts").inc()
    log_event(_LOG, "supervise.restart", cycle=plan.index,
              attempt=attempt, generation=generation,
              cause=type(err).__name__)


class ActorRunner:
    """One match actor's message handling, shared by both transports.

    Wraps a :class:`~repro.exec.plan.MatchActorCore` with the two
    optional hooks — a flight recorder when *traced*, a chaos policy —
    and sends through *puts*, one put function per destination indexed
    by actor id with the control queue last (so ``puts[CONTROL]`` is
    control).  *put_later(delay, put, msg)* is how the transport
    delivers a chaos-delayed message.  The transport owns the inbox
    loop: it calls :meth:`stall_for` (chaos only) and then
    :meth:`handle` for every message.
    """

    def __init__(self, actor_id: int, config: RunConfig,
                 generation: int, chaos: Optional[ChaosPolicy],
                 traced: bool, puts: Sequence[Callable],
                 put_later: Callable) -> None:
        self.actor_id = actor_id
        self.core = MatchActorCore(actor_id, config)
        self.generation = generation
        self.chaos = chaos
        self._puts = puts
        self._to_control = puts[CONTROL]
        self._put_later = put_later
        self._cycle = 0
        self.recorder = None
        if traced:
            self.recorder = FlightRecorder(actor_id, generation)
            self._last_done = self.recorder.perf_base

    def stall_for(self, message: Tuple) -> float:
        """Seconds of chaos stall before handling *message*."""
        if message[0] != "cycle":
            return 0.0
        stall = self.chaos.stall_for(message[2], self.actor_id,
                                     self.generation)
        if stall > 0.0:
            get_registry().counter("chaos.stalls").inc()
        return stall

    def handle(self, message: Tuple) -> bool:
        """Process one inbox message; ``False`` once told to shut down."""
        kind = message[0]
        recorder = self.recorder
        if recorder is not None:
            now = time.perf_counter()
        if kind == "token" or kind == "cycle":
            cycle = self._cycle = message[2]
            if kind == "token":
                out, processed = self.core.on_token(message[1], cycle)
            else:
                out, processed = self.core.on_cycle(message[1], cycle)
            if recorder is not None:
                self._record(message, now, out, processed)
            elif self.chaos is not None:
                for dst, msg in out:
                    self._send(cycle, dst, msg)
            else:
                puts = self._puts
                for dst, msg in out:
                    puts[dst](msg)
            if processed:
                self._to_control(("processed", processed))
            return True
        if kind == "sync":
            if recorder is not None:
                recorder.record(LIVE_BARRIER, self._cycle,
                                self._last_done, now)
                self._to_control(recorder.drain())
            self._to_control(("stats", self.actor_id,
                              self.core.on_sync()))
            return True
        self.flush()  # "shutdown"
        return False

    def _record(self, message: Tuple, now: float, out: List,
                processed: int) -> None:
        """Traced tail of :meth:`handle`: match span, stamped sends."""
        recorder = self.recorder
        cycle = self._cycle
        ctx = message[3]
        done = time.perf_counter()
        recorder.record(
            LIVE_MATCH, cycle, now, done, n=processed,
            act_id=(message[1] if message[0] == "token" else -1),
            src=ctx[0], sent_s=ctx[1], busy_us=self.core.busy_us)
        if out:
            for dst, msg in out:
                self._send(cycle, dst,
                           msg + ((self.actor_id, time.perf_counter()),))
            recorder.record(LIVE_SEND, cycle, done, time.perf_counter(),
                            n=len(out))
        self._last_done = time.perf_counter()

    def _send(self, cycle: int, dst: int, msg: Tuple) -> None:
        put = self._puts[dst]
        chaos = self.chaos
        if chaos is None:
            put(msg)
            return
        kind = MSG_FIRE if msg[0] == "fire" else MSG_TOKEN
        act_id, generation = msg[1], self.generation
        if chaos.should_drop(cycle, kind, act_id, generation):
            get_registry().counter("chaos.drops").inc()
            return
        copies = 1
        if chaos.should_duplicate(cycle, kind, act_id, generation):
            get_registry().counter("chaos.dups").inc()
            copies = 2
        delay = chaos.delay_for(cycle, kind, act_id, generation)
        if delay > 0.0:
            get_registry().counter("chaos.delays").inc()
        for _ in range(copies):
            if delay > 0.0:
                self._put_later(delay, put, msg)
            else:
                put(msg)

    def flush(self) -> None:
        """Ship what the flight recorder holds (traced runs only)."""
        if self.recorder is not None:
            self._to_control(self.recorder.drain())

    def fail(self, err: Exception) -> None:
        """Report a failure to control instead of hanging it."""
        try:
            self.flush()
        finally:
            self._to_control(("actor_error", self.actor_id, repr(err)))


class Engine:
    """One generation of match actors plus their queues.

    A restart discards the whole engine — workers, inboxes, control
    queue — so stale messages from a failed attempt (late chaos
    deliveries, half-processed cycles) can never leak into the replay.
    Transports implement :meth:`start`, :meth:`stop`, :meth:`kill`,
    :meth:`dead_actor`, :meth:`send` (control to one actor),
    :meth:`poll` and :meth:`wait` (read the control queue without and
    with blocking); the cycle protocol itself is
    :meth:`run_cycle`, shared.
    """

    def __init__(self, config: RunConfig, chaos: Optional[ChaosPolicy],
                 generation: int, collector, deadline_s: float,
                 heartbeat_s: float) -> None:
        self.config = config
        self.chaos = chaos
        self.generation = generation
        self.collector = collector
        self.deadline_s = deadline_s
        self.heartbeat_s = heartbeat_s
        self.n_procs = config.n_procs

    def start(self) -> None:
        raise NotImplementedError

    async def stop(self) -> None:
        raise NotImplementedError

    def kill(self, actor_id: int) -> None:
        raise NotImplementedError

    def dead_actor(self) -> Optional[int]:
        raise NotImplementedError

    def send(self, actor_id: int, message: Tuple) -> None:
        raise NotImplementedError

    def poll(self):
        """The next control message if one is queued, else ``None``."""
        raise NotImplementedError

    async def wait(self, timeout: float):
        """The next control message, or ``None`` after *timeout* s."""
        raise NotImplementedError

    def _wedged(self, cycle: int, start: float) -> ExecutorWedged:
        waited = time.perf_counter() - start
        return ExecutorWedged(
            f"cycle {cycle}: no quiescence progress for {waited:.3f}s",
            cycle=cycle, waited_s=waited)

    def _take(self, cycle: int, start: float):
        """A queued control message or ``None``; the deadline is
        checked on every message."""
        if time.perf_counter() - start >= self.deadline_s:
            raise self._wedged(cycle, start)
        return self.poll()

    async def _wait(self, cycle: int, start: float):
        """Block for the next control message in heartbeat slices,
        checking for dead workers after each empty slice."""
        while True:
            left = self.deadline_s - (time.perf_counter() - start)
            if left <= 0.0:
                raise self._wedged(cycle, start)
            message = await self.wait(min(self.heartbeat_s, left))
            if message is not None:
                return message
            dead = self.dead_actor()
            if dead is not None:
                raise ExecutorCrashed(
                    f"match actor {dead} died during cycle {cycle}",
                    actor=dead, cycle=cycle)

    async def run_cycle(self, plan: CyclePlan, attempt: int):
        """One attempt at *plan*; ``(CycleResult, fired)`` or a typed
        :class:`~repro.exec.errors.ExecutorError`."""
        cycle, start = plan.index, time.perf_counter()
        accumulator = CycleAccumulator(plan, self.config, self.collector)
        if self.chaos is not None:
            for i in range(self.n_procs):
                if self.chaos.should_kill(cycle, i, attempt):
                    get_registry().counter("chaos.kills").inc()
                    log_event(_LOG, "chaos.kill", cycle=cycle, actor=i,
                              attempt=attempt)
                    self.kill(i)
        traced = self.collector is not None
        for i, share in enumerate(plan.per_actor):
            message = ("cycle", share, cycle)
            if traced:
                message += ((CONTROL, time.perf_counter()),)
            self.send(i, message)
        feed, take, wait = accumulator.feed, self._take, self._wait
        while not accumulator.done:
            feed(take(cycle, start) or await wait(cycle, start))
        for i in range(self.n_procs):
            self.send(i, ("sync",))
        while accumulator.missing_stats:
            feed(take(cycle, start) or await wait(cycle, start))
        return accumulator.finish(accumulator.stats,
                                  time.perf_counter() - start)


async def run_engine(trace: SectionTrace, config: RunConfig,
                     chaos: Optional[ChaosPolicy], collector,
                     engine_cls) -> Tuple[SimResult, List[FireSet], float]:
    """Run *trace* cycle by cycle on *engine_cls*; ``(result, fires,
    wall_s)``.

    Supervision per ``config.supervise`` (``None``: no restarts).  A
    :class:`~repro.obs.trace.LiveTraceCollector` additionally records
    the committed cycle spans plus ``restart`` (failure → respawned
    engine) and ``checkpoint_replay`` (failed replay attempt) spans on
    the coordinator row, and commits each cycle under the generation
    that closed it, so actor spans of failed attempts are filtered
    from the merged timeline.
    """
    plans = build_plans(trace, config)
    # Without a policy the defaults set the heartbeat and deadline, and
    # the first failure propagates before any restart is considered.
    policy = config.supervise or SupervisePolicy()
    if chaos is not None and chaos.is_null:
        chaos = None
    deadline_s = (policy.cycle_timeout_s
                  if policy.cycle_timeout_s is not None
                  else exec_timeout_s())
    traced = collector is not None

    def spawn(generation: int) -> Engine:
        engine = engine_cls(config, chaos, generation, collector,
                            deadline_s, policy.heartbeat_s)
        engine.start()
        return engine

    engine = spawn(0)
    result = SimResult(trace_name=trace.name, n_procs=config.n_procs)
    fires: List[FireSet] = []
    section_start = time.perf_counter()
    try:
        for plan in plans:
            attempt = 0
            while True:
                attempt_start = time.perf_counter()
                try:
                    cycle_result, fired = await engine.run_cycle(
                        plan, attempt)
                    if traced:
                        collector.recorder.record(
                            LIVE_CYCLE, plan.index, attempt_start,
                            time.perf_counter(),
                            n=cycle_result.n_messages)
                        collector.commit(plan.index, engine.generation)
                    break
                except RETRYABLE as err:
                    if config.supervise is None:
                        raise
                    _count_failure(err)
                    failed_at = time.perf_counter()
                    if traced and attempt:
                        collector.recorder.record(
                            LIVE_REPLAY, plan.index, attempt_start,
                            failed_at, n=attempt)
                    if attempt >= policy.max_restarts:
                        raise _give_up(plan, attempt, err) from err
                    generation = engine.generation + 1
                    await engine.stop()
                    engine = None
                    delay = policy.delay_s(attempt)
                    if delay > 0.0:
                        await asyncio.sleep(delay)
                    attempt += 1
                    _log_restart(plan, attempt, generation, err)
                    engine = spawn(generation)
                    if traced:
                        collector.recorder.record(
                            LIVE_RESTART, plan.index, failed_at,
                            time.perf_counter(), n=attempt)
            result.cycles.append(cycle_result)
            fires.append(fired)
    finally:
        if engine is not None:
            await engine.stop()
    return result, fires, time.perf_counter() - section_start
