"""The simulator's mode matrix on the paper's Section 5 workloads.

Every way of running the one event loop — faults off or on (loss,
duplicates, jitter, an every-cycle stall window, a cycle-specific stall
and fail-stops), a timeline recorder off or on, round compression off
or on — is crossed on rubik, tourney and weaver at P in {1, 16, 1024}.
The sections are padded with idle stretches so that compression has
runs to collapse and the fault model has idle cycles to break them.

* fault-free cells, expanded, equal the frozen reference loop;
* faulty cells equal the uncompressed, unrecorded faulty run;
* every recorded cell reconciles span by span with its results.
"""

import functools

import pytest

from repro.mpc import (TABLE_5_1, FailStop, FaultModel, RunConfig,
                       StallWindow, TimelineRecorder, simulate_config)
from repro.mpc._reference import simulate_reference
from repro.trace.events import CycleTrace, SectionTrace
from repro.workloads import rubik_section, tourney_section, weaver_section

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)
SECTIONS = {"rubik": rubik_section, "tourney": tourney_section,
            "weaver": weaver_section}
PROCS = (1, 16, 1024)
#: Idle cycles inserted after every cycle of a section.
IDLE_GAP = 3


@functools.lru_cache(maxsize=None)
def padded(name: str) -> SectionTrace:
    """The section with IDLE_GAP empty cycles after each cycle."""
    cycles = []
    index = 1
    for cycle in SECTIONS[name]():
        shifted = CycleTrace(index=index)
        for act in cycle.ordered():
            shifted.add(act)
        cycles.append(shifted)
        for _ in range(IDLE_GAP):
            index += 1
            cycles.append(CycleTrace(index=index))
        index += 1
    return SectionTrace(name=name, cycles=cycles)


def fault_model(n_procs: int) -> FaultModel:
    last = n_procs - 1
    return FaultModel(
        seed=7, loss_prob=0.05, dup_prob=0.03, jitter_us=12.5,
        # Every cycle: proc 0 cannot start before 150 us, so even the
        # idle template stalls; cycle 3 (idle) gets its own window.
        stalls=(StallWindow(proc=0, start_us=0.0, end_us=150.0),
                StallWindow(proc=last, start_us=0.0, end_us=400.0,
                            cycle=3)),
        # One fail-stop on an active cycle, one inside an idle stretch.
        failures=(FailStop(proc=last, cycle=5, recovery_us=2000.0),
                  FailStop(proc=0, cycle=7, recovery_us=500.0)))


@functools.lru_cache(maxsize=None)
def reference(name: str, n_procs: int):
    return simulate_reference(padded(name), n_procs, overheads=OV8)


@functools.lru_cache(maxsize=None)
def exact_faulty(name: str, n_procs: int):
    return simulate_config(padded(name), RunConfig(
        n_procs=n_procs, overheads=OV8, faults=fault_model(n_procs)))


@pytest.mark.parametrize("compress", [False, True],
                         ids=["exact", "compressed"])
@pytest.mark.parametrize("record", [False, True],
                         ids=["unrecorded", "recorded"])
@pytest.mark.parametrize("faulty", [False, True],
                         ids=["fault-free", "faulty"])
@pytest.mark.parametrize("n_procs", PROCS)
@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_mode_matrix(name, n_procs, faulty, record, compress):
    trace = padded(name)
    recorder = TimelineRecorder() if record else None
    result = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=OV8,
        faults=fault_model(n_procs) if faulty else None,
        recorder=recorder, compress_rounds=compress))

    if compress:
        # Each idle stretch collapses: IDLE_GAP cycles into one entry,
        # except where a fault index breaks it.
        assert len(result.cycles) < len(trace.cycles)
    assert result.n_cycles == len(trace.cycles)
    expanded = result.expanded()
    if faulty:
        assert expanded == exact_faulty(name, n_procs)
        assert result.retransmits == exact_faulty(name, n_procs).retransmits
    else:
        assert expanded.cycles == reference(name, n_procs).cycles
    assert result.total_us == expanded.total_us

    if record:
        timeline = recorder.timeline
        assert timeline.faulty == faulty
        repeats = result.repeats or [1] * len(result.cycles)
        assert [c.repeat for c in timeline.cycles] == repeats
        assert timeline.n_cycles() == len(trace.cycles)
        for entry, cycle in zip(timeline.cycles, result.cycles):
            # Jitter draws are arbitrary floats, so faulty sums are
            # compared to a relative tolerance.
            entry.reconcile(cycle, exact=not faulty)
