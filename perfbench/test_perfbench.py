"""Tests of the benchmark's own checks, spans and load generator.

Run from the repository root::

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec import RunResult
from repro.mpc import RunConfig, simulate_config
from repro.workloads import tourney_match_program, weaver_section

import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent


def small_source(seed: int) -> str:
    return tourney_match_program(seed=seed, n_players=6, n_rounds=8)


@pytest.fixture(scope="module")
def pipeline_outcome():
    pipeline = workloads.Ops5Pipeline("t", small_source, 0,
                                      spans.NullTracer())
    pipeline.setup()
    return pipeline.run_op(0, traced=False)


def drop_one_fire(result: RunResult) -> RunResult:
    fires = list(result.fires)
    index = next(i for i, f in enumerate(fires) if f)
    fires[index] = fires[index][1:]
    return dataclasses.replace(result, fires=fires)


class TestOps5Checks:
    def test_correct_pass_has_no_problems(self, pipeline_outcome):
        assert workloads.check_pass(pipeline_outcome) == []

    def test_wrong_live_fires_fail(self, pipeline_outcome):
        wrong = dataclasses.replace(
            pipeline_outcome, live=drop_one_fire(pipeline_outcome.live))
        assert any("signature" in p for p in workloads.check_pass(wrong))

    def test_wrong_output_fails(self, pipeline_outcome):
        recorded = dataclasses.replace(pipeline_outcome.recorded,
                                       firings=[], cycles=0)
        wrong = dataclasses.replace(pipeline_outcome, recorded=recorded)
        problems = workloads.check_pass(wrong)
        assert any("cycles" in p for p in problems)
        assert any("output" in p for p in problems)

    def test_closed_loop_counts_a_wrong_result_as_failed(
            self, pipeline_outcome, monkeypatch):
        pipeline = workloads.Ops5Pipeline("t", small_source, 0,
                                          spans.NullTracer())
        pipeline.setup()
        run_op = pipeline.run_op
        calls = []

        def tampered(op, traced):
            outcome = run_op(op, traced)
            calls.append(op)
            if len(calls) == 2:
                outcome.live = drop_one_fire(outcome.live)
            return outcome

        monkeypatch.setattr(pipeline, "run_op", tampered)
        report = workloads.Report()
        worker.closed_loop(pipeline, 0.0, False, report)
        worker.closed_loop(pipeline, 0.0, False, report)
        assert (report.attempted, report.failed) == (2, 1)
        assert any(note.startswith("op 0 FAILED") for note in report.notes)


class TestServedChecks:
    def test_session_against_reference(self):
        trace = weaver_section(0)
        config = RunConfig(n_procs=2)
        from repro.exec import run
        reference = run(trace, config)
        live = run(trace, config, backend="actors")
        triple = (live.result, live.fires, live.wall_s)
        assert workloads.check_session(triple, reference) == []
        wrong = drop_one_fire(live)
        assert workloads.check_session(
            (wrong.result, wrong.fires, wrong.wall_s), reference)

    def test_mix_is_balanced_per_block(self):
        mix = workloads.session_mix(random.Random(3), 36)
        assert len(set(mix[:18])) == 18 and len(set(mix[18:])) == 18
        assert sum(sup for _, _, sup in mix) == 18

    def test_arrivals_are_sorted_and_seeded(self):
        one = workloads.arrival_offsets(random.Random(5), 30, 3.0)
        two = workloads.arrival_offsets(random.Random(5), 30, 3.0)
        assert one == two == sorted(one)
        assert 0.0 <= one[0] and one[-1] <= 10.0

    def test_backlog_is_growth_in_flight(self):
        steady = workloads.Phase("p", 6.0, [], inflight=[0, 2, 1] * 6)
        piling = workloads.Phase("p", 20.0, [], inflight=list(range(18)))
        assert not steady.backlog_growing()
        assert piling.backlog_growing()

    def test_capacity_interpolates_the_p90_crossing(self):
        passed = [(3.0, 200.0), (6.0, 400.0)]
        failing = _phase_with_p90(10.0, 600.0)
        assert workloads.capacity_estimate(passed, failing) \
            == pytest.approx(8.0)
        assert workloads.capacity_estimate(passed, None) == 6.0


def _phase_with_p90(rate: float, p90: float) -> workloads.Phase:
    sessions = [workloads.Session(op=i, section="rubik", n_procs=2,
                                  supervised=False, due=0.0,
                                  done=p90 / 1e3, outcome="ok")
                for i in range(3)]
    return workloads.Phase("probe", rate, sessions)


class TestSimChecks:
    def test_golden_mismatch_fails(self):
        outcome = workloads.SimOutcome(
            seconds=1.0, grid_seconds=1.0, sparse_seconds=1.0,
            activations=0, expected_activations=0, retransmits=0,
            totals=(), peaks=dict(workloads.GOLDEN_PEAKS_AT_32),
            losses=dict(workloads.GOLDEN_LOSSES_AT_32US), sparse=None,
            sparse_cycles=0)
        assert workloads.check_golden(outcome) == []
        outcome.peaks["rubik"] *= 1.0 + 1e-9
        assert len(workloads.check_golden(outcome)) == 1

    def test_activation_mismatch_fails(self):
        sim = workloads.SimSections(0, spans.NullTracer())
        trace = weaver_section(0)
        result = simulate_config(trace, RunConfig(n_procs=4))
        assert workloads._simulated(result) == trace.stats().total
        outcome = workloads.SimOutcome(
            seconds=1.0, grid_seconds=1.0, sparse_seconds=1.0,
            activations=5, expected_activations=6, retransmits=0,
            totals=(), peaks={}, losses={}, sparse=None, sparse_cycles=0)
        assert sim.check(outcome)


class TestSpans:
    def test_self_time_subtracts_children(self):
        recorded = [spans.Span("bench.op", 0.0, 10.0, None, 0),
                    spans.Span("ops5.run", 1.0, 6.0, 0, 0),
                    spans.Span("rete.add_wme", 2.0, 3.0, 1, 0),
                    spans.Span("rete.add_wme", 4.0, 5.5, 1, 0)]
        assert spans.self_times(recorded) == pytest.approx(
            [5.0, 2.5, 1.0, 1.5])
        assert spans.layer_self_ms(recorded) == pytest.approx(
            {"bench": 5000.0, "ops5": 2500.0, "rete": 2500.0})

    def test_tracer_nests_and_exports(self):
        tracer = spans.Tracer()
        with tracer.span("bench.op", 0):
            with tracer.span("mpc.dense", 0):
                pass
        assert [s.parent for s in tracer.spans] == [None, 0]
        events = spans.chrome_trace(tracer.spans, "t")["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["bench.op", "mpc.dense"]
        assert complete[1]["args"]["parent"] == 0

    def test_overlapping_roots_get_their_own_lanes(self):
        recorded = [spans.Span("exec.session", 0.0, 2.0, None, 0),
                    spans.Span("exec.session", 1.0, 3.0, None, 1),
                    spans.Span("exec.session", 2.5, 4.0, None, 2)]
        events = spans.chrome_trace(recorded, "t")["traceEvents"]
        lanes = [e["tid"] for e in events if e["ph"] == "X"]
        assert lanes == [0, 1, 0]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ops5-rubik",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
