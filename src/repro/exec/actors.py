"""Backend ``actors``: a live actor run of the Section 3.2 protocol.

Where the simulator *prices* the paper's message protocol under a cost
model, this backend *executes* it: each bucket partition is an actor
with an inbox, the control actor broadcasts each cycle's plan, token
messages really travel between partitions, instantiations really
arrive at control, and a sync barrier really closes every
recognize-act cycle.

Two transports move the messages, each one engine
(:class:`~repro.exec.supervise.Engine`) driven by the one control loop
in :func:`~repro.exec.supervise.run_engine`:

``asyncio`` (default)
    One :mod:`asyncio` task and queue per match actor, all in one
    process (:func:`run_section_async`, here).  Cheap, runs anywhere.
``process``
    One OS process per match actor with :mod:`multiprocessing` queues
    (:func:`repro.exec.mp.run_section_mp`) — actual parallel execution.

Either way the counters come out of the same
:class:`~repro.exec.plan.MatchActorCore` state machines, so activation
counts, message counts and fire sets are equal to the simulator's for
the same ``(trace, config)`` — the ``actors_vs_sim`` oracle in
:mod:`repro.check` holds exactly.  Timing fields are measured wall
time, reported for comparison against the model, never asserted.
Supervision (``RunConfig.supervise``), chaos and live tracing are
options of that one engine, not separate code paths.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..mpc.config import RunConfig, SupervisePolicy
from ..mpc.metrics import SimResult
from ..trace.events import SectionTrace
from .base import FireSet, RunHandle, RunResult
from .chaos import ChaosPolicy
from .errors import ExecutorError
from .supervise import ActorRunner, Engine, run_engine

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs.trace import LiveTraceCollector

#: Transports accepted by :class:`ActorExecutor`.
TRANSPORTS = ("asyncio", "process")

#: What an expired :meth:`_AsyncEngine.wait` timer puts on the queue.
_TIMEOUT = ("timeout",)


class _AsyncEngine(Engine):
    """One generation of asyncio match-actor tasks and their queues."""

    def start(self) -> None:
        self.inboxes = [asyncio.Queue() for _ in range(self.n_procs)]
        self.control_q: asyncio.Queue = asyncio.Queue()
        self._puts = [q.put_nowait for q in self.inboxes] \
            + [self.control_q.put_nowait]
        self.tasks = [asyncio.create_task(self._actor_main(i))
                      for i in range(self.n_procs)]

    async def stop(self) -> None:
        for task in self.tasks:
            task.cancel()
        await asyncio.gather(*self.tasks, return_exceptions=True)
        if self.collector is not None:
            # Salvage flight-recorder drains the actors flushed on
            # cancellation: filtered from the committed timeline, but
            # kept for post-mortem dumps.
            while not self.control_q.empty():
                message = self.control_q.get_nowait()
                if message[0] == "spans":
                    self.collector.add_drain(message)

    def kill(self, actor_id: int) -> None:
        self.tasks[actor_id].cancel()

    def dead_actor(self) -> Optional[int]:
        for i, task in enumerate(self.tasks):
            if task.done():
                return i
        return None

    def send(self, actor_id: int, message: Tuple) -> None:
        self.inboxes[actor_id].put_nowait(message)

    def poll(self):
        try:
            message = self.control_q.get_nowait()
        except asyncio.QueueEmpty:
            return None
        return None if message is _TIMEOUT else message

    async def wait(self, timeout: float):
        # A timer that posts a sentinel is far cheaper than
        # asyncio.wait_for, which wraps the get in a new task; a
        # sentinel that fires late is skipped by poll/wait.
        control_q = self.control_q
        timer = asyncio.get_running_loop().call_later(
            timeout, control_q.put_nowait, _TIMEOUT)
        try:
            message = await control_q.get()
        finally:
            timer.cancel()
        return None if message is _TIMEOUT else message

    async def _actor_main(self, actor_id: int) -> None:
        runner = ActorRunner(
            actor_id, self.config, self.generation, self.chaos,
            self.collector is not None, self._puts,
            asyncio.get_running_loop().call_later)
        chaos, handle = self.chaos, runner.handle
        inbox = self.inboxes[actor_id]
        try:
            while True:
                message = await inbox.get()
                if chaos is not None:
                    stall = runner.stall_for(message)
                    if stall > 0.0:
                        await asyncio.sleep(stall)
                if not handle(message):
                    return
        except asyncio.CancelledError:
            runner.flush()
            raise
        except Exception as err:  # surface instead of hanging control
            runner.fail(err)


async def run_section_async(trace: SectionTrace, config: RunConfig,
                            chaos: Optional[ChaosPolicy] = None,
                            collector: Optional[
                                "LiveTraceCollector"] = None,
                            ) -> Tuple[SimResult, List[FireSet], float]:
    """Run *trace* on asyncio actors; ``(result, fires, wall_s)``.

    Usable directly from an existing event loop — the served backend
    runs many of these concurrently on one loop, each with its own
    queues and actor cores (per-session sharded working memory).
    Supervision follows ``config.supervise``; *chaos* and a
    :class:`~repro.obs.trace.LiveTraceCollector` are optional hooks
    (see :mod:`repro.exec.supervise`).
    """
    return await run_engine(trace, config, chaos, collector,
                            _AsyncEngine)


def _check_supported(config: RunConfig) -> None:
    if config.faulty:
        raise ValueError("the actors backend does not support fault "
                         "injection; use backend 'sim'")
    if config.recorder is not None:
        raise ValueError("the actors backend does not support timeline "
                         "recording; use backend 'sim'")


class ActorExecutor:
    """Backend ``actors``: live bucket-partition actors.

    *transport* selects how messages move: ``"asyncio"`` (tasks in
    this process) or ``"process"`` (one OS process per actor, see
    :mod:`repro.exec.mp`).

    A :class:`~repro.mpc.config.SupervisePolicy` on the config
    (``config.supervise``) grants the run worker restarts with
    checkpoint replay (see :mod:`repro.exec.supervise`).  A non-null
    :class:`~repro.exec.chaos.ChaosPolicy` without an explicit policy
    turns on default supervision: chaos without recovery would just be
    a failed run.
    """

    name = "actors"

    def __init__(self, transport: str = "asyncio",
                 chaos: Optional[ChaosPolicy] = None) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"choose from {TRANSPORTS}")
        self.transport = transport
        self.chaos = chaos

    def submit(self, trace: SectionTrace,
               config: RunConfig) -> RunHandle:
        _check_supported(config)
        chaos = self.chaos
        if chaos is not None and chaos.is_null:
            chaos = None
        if chaos is not None and config.supervise is None:
            config = config.replace(supervise=SupervisePolicy())

        def thunk() -> RunResult:
            collector = None
            if config.live_trace:
                from ..obs.trace import LiveTraceCollector
                collector = LiveTraceCollector(
                    trace.name, config.n_procs, self.transport)
            try:
                if self.transport == "process":
                    from .mp import run_section_mp
                    result, fires, wall_s = run_section_mp(
                        trace, config, chaos, collector)
                else:
                    result, fires, wall_s = asyncio.run(
                        run_section_async(trace, config, chaos,
                                          collector))
            except ExecutorError as err:
                if collector is not None:
                    from ..obs.trace import dump_flight
                    from ..obs import get_logger, log_event
                    path = dump_flight(collector,
                                       reason=type(err).__name__)
                    log_event(get_logger("repro.exec.actors"),
                              "trace_live.dump", path=path,
                              reason=type(err).__name__)
                raise
            live = collector.build() if collector is not None else None
            return RunResult(backend=self.name, result=result,
                             fires=fires, wall_s=wall_s, live=live)
        return RunHandle(thunk)
