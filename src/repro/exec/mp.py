"""The multiprocessing transport for the ``actors`` backend.

Same protocol, same :class:`~repro.exec.plan.MatchActorCore` state
machines and the same control loop
(:func:`~repro.exec.supervise.run_engine`) as the asyncio transport —
but each match actor is an OS process with a
:class:`multiprocessing.Queue` inbox, so activations in different
bucket partitions really execute in parallel.  The control actor runs
in the parent process on a private event loop that has nothing else to
schedule, so its blocking queue reads stall nobody (the paper's
control processor is serialized by the barrier anyway).

Each process flushes its queue writes through its own feeder thread,
so messages from different senders arrive in no particular order:
a peer's token can beat control's cycle broadcast into an inbox.
:class:`~repro.exec.plan.MatchActorCore` buffers such tokens by cycle
index, which is what makes this transport agree with the simulator.

Everything crossing a process boundary is a plain picklable tuple; the
``fork`` start method is preferred when available (no module re-import
per actor), with the platform default as fallback.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue as queue_mod
import time
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..mpc.config import RunConfig
from ..mpc.metrics import SimResult
from ..trace.events import SectionTrace
from .base import FireSet
from .chaos import ChaosPolicy
from .errors import ExecutorCrashed
from .supervise import ActorRunner, Engine, run_engine

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs.trace import LiveTraceCollector

#: Seconds a stopping engine waits for its workers to exit on their
#: own before killing them.
STOP_GRACE_S = 2.0


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def _put_later(delay: float, put, msg: Tuple) -> None:
    time.sleep(delay)
    put(msg)


def _actor_process(actor_id: int, config: RunConfig,
                   chaos: Optional[ChaosPolicy], generation: int,
                   inboxes, control_q, traced: bool) -> None:
    """Child-process main loop: one match actor until shutdown."""
    puts = [q.put for q in inboxes] + [control_q.put]
    runner = ActorRunner(actor_id, config, generation, chaos, traced,
                         puts, _put_later)
    inbox = inboxes[actor_id]
    try:
        while True:
            message = inbox.get()
            if chaos is not None:
                time.sleep(runner.stall_for(message))
            if not runner.handle(message):
                return
    except Exception as err:  # surface instead of wedging control
        runner.fail(err)


class _MpEngine(Engine):
    """One generation of worker processes plus their queues."""

    def start(self) -> None:
        ctx = _mp_context()
        self.inboxes = [ctx.Queue() for _ in range(self.n_procs)]
        self.control_q = ctx.Queue()
        self.workers = [
            ctx.Process(target=_actor_process,
                        args=(i, self.config, self.chaos,
                              self.generation, self.inboxes,
                              self.control_q, self.collector is not None),
                        daemon=True)
            for i in range(self.n_procs)
        ]
        for worker in self.workers:
            worker.start()

    async def stop(self) -> None:
        for inbox in self.inboxes:
            inbox.put(("shutdown",))
        deadline = time.perf_counter() + STOP_GRACE_S
        for worker in self.workers:
            # Keep reading control while waiting: a worker cannot exit
            # before its feeder thread has flushed into the pipe.
            while worker.is_alive() and time.perf_counter() < deadline:
                self._salvage()
                worker.join(0.01)
            if worker.is_alive():
                worker.kill()
                worker.join()
        self._salvage()
        for q in self.inboxes + [self.control_q]:
            q.close()
            q.cancel_join_thread()

    def _salvage(self) -> None:
        """Drain the control queue, keeping flight-recorder drains."""
        try:
            while True:
                message = self.control_q.get_nowait()
                if message[0] == "spans" and self.collector is not None:
                    self.collector.add_drain(message)
        except (queue_mod.Empty, EOFError, OSError):
            pass

    def kill(self, actor_id: int) -> None:
        self.workers[actor_id].kill()

    def dead_actor(self) -> Optional[int]:
        for i, worker in enumerate(self.workers):
            if not worker.is_alive():
                return i
        return None

    def send(self, actor_id: int, message: Tuple) -> None:
        self.inboxes[actor_id].put(message)

    def poll(self):
        try:
            return self.control_q.get_nowait()
        except queue_mod.Empty:
            return None
        except (EOFError, OSError) as err:
            raise _broken(err) from err

    async def wait(self, timeout: float):
        try:
            return self.control_q.get(timeout=timeout)
        except queue_mod.Empty:
            return None
        except (EOFError, OSError) as err:
            raise _broken(err) from err


def _broken(err: Exception) -> ExecutorCrashed:
    # A SIGKILLed worker can tear the queue's pipe mid-write; the whole
    # queue set is discarded on restart.
    return ExecutorCrashed(f"control queue broken: {err!r}")


def run_section_mp(trace: SectionTrace, config: RunConfig,
                   chaos: Optional[ChaosPolicy] = None,
                   collector: Optional["LiveTraceCollector"] = None,
                   ) -> Tuple[SimResult, List[FireSet], float]:
    """Run *trace* on one worker process per match actor.

    ``(result, fires, wall_s)``, like
    :func:`repro.exec.actors.run_section_async`, with the same
    supervision, chaos and tracing options.
    """
    return asyncio.run(run_engine(trace, config, chaos, collector,
                                  _MpEngine))
