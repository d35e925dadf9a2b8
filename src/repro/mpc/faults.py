"""Deterministic fault injection and a reliable-delivery protocol layer.

The paper's simulation assumes a perfect Nectar-class network: every
message arrives exactly once, in bounded time, and every processor is
always available.  Real message-passing machines buy that abstraction
with protocol machinery — explicit acknowledgements, timeouts and
retransmissions (cf. the QCDSP message-passing system, which budgets an
ack/retransmit engine per link).  This module prices that machinery so
the degradation of the paper's speedups under network and processor
faults becomes a measurable axis:

* :class:`FaultModel` — a *seeded, fully deterministic* description of
  what goes wrong: per-message loss and duplication probabilities,
  latency jitter, per-processor stall windows, and fail-stop cycles
  (a processor crashes at a cycle boundary and restarts after a fixed
  recovery time, its hash-table partition restored from checkpoint).
* :class:`ProtocolModel` — the reliable-delivery layer on top of the
  :class:`~repro.mpc.costmodel.OverheadModel`: positive acks per data
  copy, a retransmit timeout with exponential backoff, and a bounded
  retry budget (the final attempt is carried by a link-level reliable
  fallback, so the simulation always terminates).
* :func:`plan_delivery` — the deterministic fate of one data message.
  The simulator's one event loop
  (:func:`repro.mpc.simulator.simulate_cycle`) calls it through its
  reliable-delivery hook, charging send/receive overheads for every
  ack and retry so degradation shows up in the
  :class:`~repro.mpc.metrics.SimResult` counters (``retransmits``,
  ``duplicate_drops``, ``acks``, ``timeout_wait_us``, ``stall_us``,
  ``recovery_us``).

Determinism
-----------
All randomness is *counter-based*, not sequential: each draw hashes
``(seed, cycle index, message id, attempt, stream)`` through a
splitmix64 finalizer.  A message's fate therefore depends only on its
identity — the activation id it carries — never on the order the event
loop happens to process it, so the same seed always yields bit-identical
results, and raising ``loss_prob`` can only lose a *superset* of the
messages lost at a lower rate (which is what makes degradation curves
monotone).

A null model changes nothing: :func:`repro.mpc.simulator
.iter_cycle_results` switches the loop's reliable-delivery hook on only
for a non-null fault model, so ``FaultModel()`` (all-zero) reproduces
the fault-free run bit for bit (the ``fault_null_dispatch`` oracle).

Model simplifications (documented, deliberate):

* The cycle's wme broadcast and the ack channel are reliable — only
  data messages (inter-processor tokens and instantiation sends) are
  subject to loss/duplication/jitter.
* Retransmit sends are charged to the sender inline at the original
  send point (a protocol engine would charge them asynchronously; the
  totals are identical and the accounting stays deterministic).
* Stalls and recoveries are non-preemptive: work that would *start*
  inside a stall window is pushed past it, work already started runs to
  completion.  The control processor is assumed fault-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

_MASK64 = (1 << 64) - 1
_INV_2_64 = 1.0 / float(1 << 64)

#: Independent draw streams (fold into the counter hash so that loss,
#: duplication and jitter decisions for one message never correlate).
_STREAM_LOSS = 1
_STREAM_DUP = 2
_STREAM_JITTER = 3


def _mix64(x: int) -> int:
    """The splitmix64 finalizer: a high-quality 64-bit mixing function."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def counter_u01(seed: int, *counters: int) -> float:
    """A uniform draw in [0, 1) determined entirely by its arguments."""
    x = _mix64(seed ^ 0x9E3779B97F4A7C15)
    for c in counters:
        x = _mix64(x ^ ((c * 0x9E3779B97F4A7C15) & _MASK64))
    return x * _INV_2_64


@dataclass(frozen=True)
class StallWindow:
    """Processor *proc* cannot start work in [start_us, end_us).

    ``cycle`` restricts the window to one cycle index; ``None`` applies
    it to every cycle (times are cycle-relative, measured from the
    broadcast that opens the cycle).
    """

    proc: int
    start_us: float
    end_us: float
    cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError("stall window ends before it starts")


@dataclass(frozen=True)
class FailStop:
    """Processor *proc* fail-stops at the start of cycle *cycle*.

    The processor restarts and has its hash-table partition restored
    from checkpoint after ``recovery_us``; messages addressed to it
    queue up meanwhile.  Modelled as a stall window [0, recovery_us)
    in that cycle, plus the ``recovery_us`` result counter.
    """

    proc: int
    cycle: int
    recovery_us: float = 10_000.0

    def __post_init__(self) -> None:
        if self.recovery_us < 0:
            raise ValueError("recovery_us must be >= 0")


@dataclass(frozen=True)
class FaultModel:
    """Seeded deterministic fault injection for one simulation run.

    Attributes
    ----------
    seed:
        Root of every counter-based draw; the same seed always produces
        bit-identical :class:`~repro.mpc.metrics.SimResult`\\ s.
    loss_prob / dup_prob:
        Per-data-message-attempt probability of loss in transit, and
        per-delivery probability of a duplicate copy arriving.
    jitter_us:
        Maximum extra transit latency per delivery, drawn uniformly
        from [0, jitter_us).
    stalls / failures:
        Deterministic processor unavailability (see
        :class:`StallWindow` / :class:`FailStop`).
    """

    seed: int = 0
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    jitter_us: float = 0.0
    stalls: Tuple[StallWindow, ...] = ()
    failures: Tuple[FailStop, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be in [0, 1]")
        if not 0.0 <= self.dup_prob <= 1.0:
            raise ValueError("dup_prob must be in [0, 1]")
        if self.jitter_us < 0.0:
            raise ValueError("jitter_us must be >= 0")

    @property
    def is_null(self) -> bool:
        """True when this model can never perturb a run.

        The simulator uses this to keep the zero-fault configuration on
        the exact fault-free code path (bit-identical results).
        """
        return (self.loss_prob == 0.0 and self.dup_prob == 0.0
                and self.jitter_us == 0.0 and not self.stalls
                and not self.failures)

    # -- counter-based draws (message id = the carried activation id) --

    def lost(self, cycle: int, msg_id: int, attempt: int) -> bool:
        return counter_u01(self.seed, cycle, msg_id, attempt,
                           _STREAM_LOSS) < self.loss_prob

    def duplicated(self, cycle: int, msg_id: int) -> bool:
        return counter_u01(self.seed, cycle, msg_id, 0,
                           _STREAM_DUP) < self.dup_prob

    def jitter(self, cycle: int, msg_id: int, attempt: int) -> float:
        if self.jitter_us == 0.0:
            return 0.0
        return self.jitter_us * counter_u01(self.seed, cycle, msg_id,
                                            attempt, _STREAM_JITTER)

    def windows_for_cycle(self, cycle_index: int,
                          n_procs: int) -> Dict[int, List[Tuple[float,
                                                                float]]]:
        """Per-processor sorted stall intervals applying to one cycle."""
        windows: Dict[int, List[Tuple[float, float]]] = {}
        for stall in self.stalls:
            if stall.cycle is not None and stall.cycle != cycle_index:
                continue
            if not 0 <= stall.proc < n_procs:
                continue
            windows.setdefault(stall.proc, []).append(
                (stall.start_us, stall.end_us))
        for failure in self.failures:
            if failure.cycle != cycle_index:
                continue
            if not 0 <= failure.proc < n_procs:
                continue
            windows.setdefault(failure.proc, []).append(
                (0.0, failure.recovery_us))
        for intervals in windows.values():
            intervals.sort()
        return windows

    def recovery_in_cycle(self, cycle_index: int, n_procs: int) -> float:
        """Total restart time spent by fail-stopped processors."""
        return sum(f.recovery_us for f in self.failures
                   if f.cycle == cycle_index and 0 <= f.proc < n_procs)


@dataclass(frozen=True)
class ProtocolModel:
    """Ack/timeout/retransmit reliable-delivery parameters.

    Every data message is positively acknowledged: the receiver pays one
    send overhead per received copy (including duplicates it drops) and
    the sender one receive overhead per ack.  An unacknowledged message
    is retransmitted after ``timeout_us``, the timeout growing by
    ``backoff`` per retry.  After ``max_retries`` retransmissions the
    final attempt is carried by a link-level reliable fallback (it
    cannot be lost), bounding worst-case delivery time — and keeping
    the simulation deterministic and finite even at ``loss_prob=1``.
    """

    timeout_us: float = 500.0
    backoff: float = 2.0
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.timeout_us <= 0.0:
            raise ValueError("timeout_us must be > 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


#: The default reliable-delivery setting used by sweeps and the CLI.
DEFAULT_PROTOCOL = ProtocolModel()


@dataclass(frozen=True)
class DeliveryPlan:
    """The deterministic fate of one data message.

    ``attempts`` copies were sent (the first ``attempts - 1`` lost),
    the sender waited ``timeout_wait_us`` in retransmit timeouts, the
    surviving copy took ``latency + jitter_us`` to transit, and
    ``duplicates`` extra copies arrived to be dropped.
    """

    attempts: int
    timeout_wait_us: float
    jitter_us: float
    duplicates: int

    @property
    def retransmits(self) -> int:
        return self.attempts - 1


def plan_delivery(faults: FaultModel, protocol: ProtocolModel,
                  cycle: int, msg_id: int) -> DeliveryPlan:
    """Resolve loss/retry/duplication for one message, deterministically."""
    wait = 0.0
    timeout = protocol.timeout_us
    attempt = 0
    while attempt < protocol.max_retries and \
            faults.lost(cycle, msg_id, attempt):
        wait += timeout
        timeout *= protocol.backoff
        attempt += 1
    return DeliveryPlan(
        attempts=attempt + 1,
        timeout_wait_us=wait,
        jitter_us=faults.jitter(cycle, msg_id, attempt),
        duplicates=1 if faults.duplicated(cycle, msg_id) else 0)
