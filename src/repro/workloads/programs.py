"""Real OPS5 demo programs, traced end-to-end through the full pipeline
(OPS5 parse → Rete match → trace record → MPC simulate).

These are not the paper's (unreleased) programs; they are classic
production-system workloads of the same species, small enough to run in
tests yet structurally rich: joins, negation, modify chains and
cross-products all appear.
"""

from __future__ import annotations

from ..ops5 import Program, parse_program
from ..trace.cache import (cached_trace, module_source, source_fingerprint,
                           trace_key)
from ..trace.events import SectionTrace
from ..trace.recorder import record_program

#: Blocks world: stack all blocks onto the table one by one.
BLOCKS_WORLD = """
(literalize block name on clear)
(literalize goal want)

(startup
  (make block ^name a ^on b ^clear yes)
  (make block ^name b ^on c ^clear no)
  (make block ^name c ^on table ^clear no)
  (make goal ^want flat))

(p unstack
  (goal ^want flat)
  (block ^name <top> ^on <below> ^clear yes)
  (block ^name <below>)
  -->
  (modify 2 ^on table)
  (modify 3 ^clear yes))

(p finished
  (goal ^want flat)
  -(block ^on <other> ^clear no)
  -(block ^clear no)
  -->
  (remove 1)
  (write all flat (crlf)))
"""

#: Monkey and bananas (abridged): classic means-ends OPS5 demo.
MONKEY_AND_BANANAS = """
(literalize monkey at holds)
(literalize object name at weight on)
(literalize goal status type object)

(startup
  (make monkey ^at t5-7 ^holds nil)
  (make object ^name couch ^at t7-7 ^weight heavy)
  (make object ^name ladder ^at t3-3 ^weight light ^on floor)
  (make object ^name bananas ^at t7-8 ^weight light ^on ceiling)
  (make goal ^status active ^type holds ^object bananas))

(p mb-on-floor-walk-to-ladder
  (goal ^status active ^type holds ^object bananas)
  (object ^name ladder ^at <lat> ^on floor)
  (monkey ^at { <mat> <> <lat> })
  -->
  (modify 3 ^at <lat>))

(p mb-climb-with-ladder
  (goal ^status active ^type holds ^object bananas)
  (object ^name bananas ^at <bat> ^on ceiling)
  (object ^name ladder ^at { <lat> <> <bat> } ^on floor)
  (monkey ^at <lat> ^holds nil)
  -->
  (modify 3 ^at <bat>)
  (modify 4 ^at <bat>))

(p mb-grab-bananas
  (goal ^status active ^type holds ^object bananas)
  (object ^name bananas ^at <bat> ^on ceiling)
  (object ^name ladder ^at <bat>)
  (monkey ^at <bat> ^holds nil)
  -->
  (modify 4 ^holds bananas)
  (modify 2 ^on nil))

(p mb-done
  (goal ^status active ^type holds ^object <o>)
  (monkey ^holds <o>)
  -->
  (modify 1 ^status satisfied)
  (write got <o> (crlf))
  (halt))
"""

#: A toy grid router in the spirit of Weaver: claim free channel slots
#: for pending nets, retiring each net as it is routed.
GRID_ROUTER = """
(literalize net id from to routed)
(literalize channel id row free)
(literalize route net channel)

(startup
  (make channel ^id c1 ^row 1 ^free yes)
  (make channel ^id c2 ^row 2 ^free yes)
  (make channel ^id c3 ^row 3 ^free yes)
  (make net ^id n1 ^from 1 ^to 2 ^routed no)
  (make net ^id n2 ^from 2 ^to 3 ^routed no)
  (make net ^id n3 ^from 3 ^to 1 ^routed no))

(p route-net
  (net ^id <n> ^routed no ^from <r>)
  (channel ^id <c> ^row <r> ^free yes)
  -->
  (make route ^net <n> ^channel <c>)
  (modify 1 ^routed yes)
  (modify 2 ^free no))

(p all-routed
  (net ^routed yes)
  -(net ^routed no)
  -(route ^net nil)
  -->
  (write routing complete (crlf))
  (halt))
"""


def blocks_world_program() -> Program:
    """Parsed blocks-world program."""
    return parse_program(BLOCKS_WORLD)


def monkey_program() -> Program:
    """Parsed monkey-and-bananas program."""
    return parse_program(MONKEY_AND_BANANAS)


def router_program() -> Program:
    """Parsed grid-router program."""
    return parse_program(GRID_ROUTER)


def _recorded_trace(source: str, name: str) -> SectionTrace:
    """Record *source* once; load the trace from the cache thereafter.

    The cache key covers the OPS5 program text and the source of the
    match kernel and the recorder, so editing a program or the code
    that records it re-records it, and ``REPRO_TRACE_CACHE=0`` always
    re-runs the full OPS5 → Rete → trace pipeline.
    """
    key = trace_key(f"program-{name}", name=name, source=source_fingerprint(
        source, module_source("repro.rete.kernel"),
        module_source("repro.trace.recorder")))
    return cached_trace(
        key, lambda: record_program(parse_program(source), name))


def blocks_world_trace() -> SectionTrace:
    """End-to-end recorded trace of the blocks-world run."""
    return _recorded_trace(BLOCKS_WORLD, "blocks-world")


def monkey_trace() -> SectionTrace:
    """End-to-end recorded trace of the monkey-and-bananas run."""
    return _recorded_trace(MONKEY_AND_BANANAS, "monkey-and-bananas")


def router_trace() -> SectionTrace:
    """End-to-end recorded trace of the grid-router run."""
    return _recorded_trace(GRID_ROUTER, "grid-router")
