"""Tests of the opt-in timeline recorder and its exports.

The contract under test: a recorder never changes simulation results
(bit-identical SimResult, fault-free and faulty), and the spans it
produces reconcile exactly with the aggregate counters — per-processor
busy sums, control busy, network busy, and the makespan.
"""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import (FaultModel, OverheadModel, ProtocolModel,
                       RunConfig, StallWindow, TimelineRecorder, gantt,
                       gantt_section, simulate, simulate_config)
from repro.mpc.costmodel import TABLE_5_1
from repro.mpc.timeline import CATEGORIES
from repro.obs.trace import CAT_CYCLE, CONTROL, NETWORK
from repro.workloads import weaver_section

from tests.test_simulator_properties import random_traces

OV16 = next(o for o in TABLE_5_1 if o.total_us == 16)


@pytest.fixture(scope="module")
def weaver():
    return weaver_section()


def recorded(trace, n_procs, **kwargs):
    recorder = TimelineRecorder()
    result = simulate_config(trace, RunConfig(n_procs=n_procs,
                                              recorder=recorder,
                                              **kwargs))
    return result, recorder.timeline


class TestBitIdentity:
    def test_fault_free(self, weaver):
        base = simulate(weaver, n_procs=8, overheads=OV16)
        result, timeline = recorded(weaver, 8, overheads=OV16)
        assert result == base
        assert len(timeline.cycles) == len(base.cycles)

    def test_faulty(self, weaver):
        faults = FaultModel(seed=11, loss_prob=0.15, dup_prob=0.05,
                            jitter_us=3.0)
        base = simulate_config(weaver, RunConfig(
            n_procs=8, overheads=OV16, faults=faults))
        result, timeline = recorded(weaver, 8, overheads=OV16,
                                    faults=faults)
        assert result == base
        assert timeline.faulty

    def test_recorder_reusable(self, weaver):
        recorder = TimelineRecorder()
        simulate_config(weaver, RunConfig(n_procs=2, overheads=OV16,
                                          recorder=recorder))
        first = recorder.timeline
        simulate_config(weaver, RunConfig(n_procs=4, overheads=OV16,
                                          recorder=recorder))
        assert recorder.timeline is not first
        assert recorder.timeline.n_procs == 4


class TestReconciliation:
    """Span totals must equal the aggregate counters, bit for bit."""

    @pytest.mark.parametrize("n_procs", [1, 4, 16])
    def test_fault_free_exact(self, weaver, n_procs):
        result, timeline = recorded(weaver, n_procs, overheads=OV16)
        for cycle_timeline, cycle_result in zip(timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result)

    def test_faulty_exact_without_jitter(self, weaver):
        # All protocol constants are multiples of 0.5 us, so even the
        # ack/retransmit machinery reconciles exactly — only jitter
        # introduces non-dyadic floats.
        faults = FaultModel(seed=5, loss_prob=0.2, dup_prob=0.1)
        result, timeline = recorded(weaver, 8, overheads=OV16,
                                    faults=faults,
                                    protocol=ProtocolModel())
        assert result.retransmits > 0
        for cycle_timeline, cycle_result in zip(timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result)

    def test_faulty_with_jitter_close(self, weaver):
        faults = FaultModel(seed=5, loss_prob=0.1, jitter_us=2.5)
        result, timeline = recorded(weaver, 8, overheads=OV16,
                                    faults=faults)
        for cycle_timeline, cycle_result in zip(timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result, exact=False)

    def test_reconcile_detects_tampering(self, weaver):
        result, timeline = recorded(weaver, 4, overheads=OV16)
        cycle = timeline.cycles[0]
        cycle.spans[0] = type(cycle.spans[0])(
            category=cycle.spans[0].category, proc=cycle.spans[0].proc,
            start_us=cycle.spans[0].start_us,
            end_us=cycle.spans[0].end_us + 1.0)
        with pytest.raises(ValueError):
            cycle.reconcile(result.cycles[0])

    def test_stall_spans_are_not_busy(self, weaver):
        faults = FaultModel(seed=0, stalls=(
            StallWindow(proc=0, start_us=0.0, end_us=500.0),))
        result, timeline = recorded(weaver, 4, overheads=OV16,
                                    faults=faults)
        stall_spans = [s for c in timeline.cycles for s in c.spans
                      if s.category == "stall"]
        assert stall_spans
        assert not any(s.is_busy for s in stall_spans)
        for cycle_timeline, cycle_result in zip(timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result)


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=12))
def test_recorder_never_changes_results(trace, n_procs):
    """Property: recording is invisible to the simulation physics."""
    overheads = OverheadModel(send_us=5.0, recv_us=3.0)
    base = simulate(trace, n_procs=n_procs, overheads=overheads)
    recorder = TimelineRecorder()
    result = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=overheads, recorder=recorder))
    assert result == base
    for cycle_timeline, cycle_result in zip(recorder.timeline.cycles,
                                            result.cycles):
        cycle_timeline.reconcile(cycle_result)


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=8),
       loss=st.sampled_from([0.0, 0.1, 0.5]))
def test_recorder_never_changes_fault_results(trace, n_procs, loss):
    faults = FaultModel(seed=1, loss_prob=loss, dup_prob=0.1)
    base = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=OV16, faults=faults))
    recorder = TimelineRecorder()
    result = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=OV16, faults=faults,
        recorder=recorder))
    assert result == base
    if not faults.is_null:
        for cycle_timeline, cycle_result in zip(recorder.timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result)


class TestExports:
    def test_chrome_trace_cycles_do_not_overlap(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        offsets = timeline.cycle_offsets_us()
        for offset, cycle in zip(offsets, timeline.cycles):
            for span in cycle.spans:
                assert offset + span.end_us <= \
                    offset + cycle.makespan_us + 1e-9

    def test_section_spans_lay_cycles_end_to_end(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        spans = list(timeline.section_spans())
        cycles = [s for s in spans if s.category == CAT_CYCLE]
        assert [s.cycle for s in cycles] == \
            [c.index for c in timeline.cycles]
        assert [s.start_us for s in cycles] == timeline.cycle_offsets_us()
        assert cycles[-1].end_us == timeline.total_us
        assert len(spans) - len(cycles) == \
            sum(len(c.spans) for c in timeline.cycles)
        for cycle_span in cycles:
            inside = [s for s in spans if s.cycle == cycle_span.cycle
                      and s is not cycle_span]
            assert all(cycle_span.start_us <= s.start_us
                       and s.end_us <= cycle_span.end_us for s in inside)

    def test_gantt_smoke(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        chart = gantt(timeline.cycles[0], width=40)
        lines = chart.splitlines()
        # header + control + 4 procs + network + legend
        assert len(lines) == 8
        assert "control" in chart and "proc 0" in chart
        assert "network" in chart

    def test_gantt_section_selects_cycles(self, weaver):
        _, timeline = recorded(weaver, 2, overheads=OV16)
        indices = [c.index for c in timeline.cycles[:2]]
        out = gantt_section(timeline, width=32, cycles=indices)
        for index in indices:
            assert f"cycle {index}:" in out
        with pytest.raises(ValueError):
            gantt_section(timeline, cycles=[999])

    def test_gantt_rejects_narrow_width(self, weaver):
        _, timeline = recorded(weaver, 2, overheads=OV16)
        with pytest.raises(ValueError):
            gantt(timeline.cycles[0], width=4)


class TestTimelineStructure:
    def test_rows_are_well_formed(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        for cycle in timeline.cycles:
            for span in cycle.spans:
                assert span.end_us >= span.start_us
                assert span.proc in (CONTROL, NETWORK) or \
                    0 <= span.proc < cycle.n_procs
                assert span.category in CATEGORIES

    def test_envelopes_cover_activations(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        for trace_cycle, cycle in zip(weaver, timeline.cycles):
            non_terminal_roots = [a for a in trace_cycle
                                  if a.kind != "terminal"
                                  or a.parent_id is None]
            assert len(cycle.envelopes) == len(non_terminal_roots)

    def test_total_and_offsets(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        offsets = timeline.cycle_offsets_us()
        assert offsets[0] == 0.0
        assert timeline.total_us == pytest.approx(
            offsets[-1] + timeline.cycles[-1].makespan_us)
        assert timeline.longest_cycle().makespan_us == \
            max(c.makespan_us for c in timeline.cycles)
