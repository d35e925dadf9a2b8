"""Recording hash-table activity traces from live Rete runs.

:class:`TraceRecorder` attaches to a :class:`~repro.rete.ReteNetwork` and
an :class:`~repro.ops5.Interpreter` and groups the network's activations
by MRA cycle, producing the :class:`~repro.trace.events.SectionTrace`
the MPC simulator consumes.  This is the path that turns a real OPS5
program into simulator input, end to end.

Recording costs one tuple per activation: the recorder hands the
network a plain list as its ``sink``, the kernel's walk appends a row
``(act_id, parent_id, ci, side, tag, key)`` per activation in ascending
act-id order, and :meth:`TraceRecorder.section` turns the rows into
trace objects once, at the end.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ops5.interpreter import Interpreter
from ..rete.hashing import BucketKey
from ..rete.network import ReteNetwork
from ..rete.stats import ActivationEvent
from .events import CycleTrace, SectionTrace, TraceActivation


class TraceRecorder:
    """Collects per-cycle activation forests from a network.

    Usage::

        network = ReteNetwork()
        interp = Interpreter(matcher=network)
        recorder = TraceRecorder(network)
        interp.load_program(program)        # recorded as cycle 0
        interp.run()                        # firings become cycles 1..n
        trace = recorder.section("my-run")

    Cycle 0 holds the activations caused by initial working-memory setup;
    experiment code usually drops it with ``trace.slice(1, None)`` since
    the paper's sections are mid-run cycles.

    A recorder attached after wmes have entered records from then on:
    earlier waves stay unrecorded and act ids continue from the
    network's counter (only recorded activations consume ids).
    """

    def __init__(self, network: ReteNetwork) -> None:
        self.network = network
        #: the network's sink: one ``(act_id, parent_id, ci, side, tag,
        #: key)`` row per activation, in ascending act-id order
        self.rows: List[tuple] = []
        #: ``(cycle index, first row)`` per :meth:`set_cycle` call
        self._marks: List[Tuple[int, int]] = [(0, 0)]
        network.sink = self.rows

    # -- wiring ------------------------------------------------------------

    def attach(self, interpreter: Interpreter) -> None:
        """Follow the interpreter's cycle numbering.

        The cycle hook fires at the start of each MRA cycle, before any
        working-memory change of that firing reaches the matcher, so
        every activation lands in the right cycle bucket.
        """
        interpreter.cycle_listeners.append(self.set_cycle)

    def set_cycle(self, cycle: int) -> None:
        """Manual cycle control for driving the network without an
        interpreter (tests, custom drivers)."""
        self._marks.append((cycle, len(self.rows)))

    # -- extraction --------------------------------------------------------------

    def section(self, name: str,
                drop_setup_cycle: bool = False) -> SectionTrace:
        """Build the finished section trace.

        Each row becomes one :class:`TraceActivation`; successor lists
        come from the rows' parent links and rows that share a node and
        bucket values share one :class:`BucketKey` (values equal under
        OPS5 equality, such as ``2`` and ``2.0``, share the first one
        seen — they are one bucket to the kernel and hash alike).
        Cycles with no activations are left out; the rest come in
        ascending cycle order.
        """
        rows = self.rows
        cycles: Dict[int, Dict[int, TraceActivation]] = {}
        if rows:
            kernel = self.network.kernel
            node_ids = kernel.node_id
            kinds = kernel.kind_str
            successors: Dict[int, List[int]] = {}
            for row in rows:
                parent = row[1]
                if parent is not None:
                    kids = successors.get(parent)
                    if kids is None:
                        successors[parent] = [row[0]]
                    else:
                        kids.append(row[0])
            keys: Dict[Tuple[int, tuple], BucketKey] = {}
            ends = [start for _, start in self._marks[1:]] + [len(rows)]
            for (index, start), end in zip(self._marks, ends):
                if start == end or (drop_setup_cycle and index == 0):
                    continue
                acts = cycles.setdefault(index, {})
                for act_id, parent, ci, side, tag, values in \
                        rows[start:end]:
                    node_id = node_ids[ci]
                    key = keys.get((node_id, values))
                    if key is None:
                        key = keys[(node_id, values)] = BucketKey(
                            node_id, values)
                    kids = successors.get(act_id)
                    acts[act_id] = TraceActivation(
                        act_id, parent, node_id, kinds[ci], side, tag,
                        key, tuple(kids) if kids else ())
        return SectionTrace(name=name, cycles=[
            CycleTrace(index, acts) for index, acts in sorted(cycles.items())])

    def events(self) -> List[ActivationEvent]:
        """The recorded activations as the reference engine reports them.

        One :class:`~repro.rete.stats.ActivationEvent` per row, in the
        reference engine's delivery order — post-order, each activation
        after its subtree — with ``n_successors`` the row's child count
        and the label/kind of the row's node.  This is how the
        conformance oracle compares the kernel's rows with the frozen
        reference engine's event stream, field for field.
        """
        rows = self.rows
        if not rows:
            return []
        kernel = self.network.kernel
        counts: Dict[int, int] = {}
        for row in rows:
            if row[1] is not None:
                counts[row[1]] = counts.get(row[1], 0) + 1
        out: List[ActivationEvent] = []
        open_: List[ActivationEvent] = []
        for act_id, parent, ci, side, tag, values in rows:
            while open_ and open_[-1].act_id != parent:
                out.append(open_.pop())
            node_id = kernel.node_id[ci]
            open_.append(ActivationEvent(
                act_id=act_id, parent_id=parent, node_id=node_id,
                node_label=kernel.label[ci], node_kind=kernel.kind_str[ci],
                side=side, tag=tag, key=BucketKey(node_id, values),
                n_successors=counts.get(act_id, 0)))
        out.extend(reversed(open_))
        return out


def record_program(program, name: str, max_cycles: int = 10_000,
                   drop_setup_cycle: bool = True) -> SectionTrace:
    """One-call convenience: run *program* under Rete and record a trace.

    The interpreter's startup wmes land in cycle 0, dropped by default.
    """
    network = ReteNetwork()
    recorder = TraceRecorder(network)
    interpreter = Interpreter(matcher=network)
    recorder.attach(interpreter)
    interpreter.load_program(program)
    interpreter.run(max_cycles=max_cycles)
    return recorder.section(name, drop_setup_cycle=drop_setup_cycle)
