"""Tests of the executor backends behind the one ``run()`` API.

The contracts under test:

* ``sim`` is bit-identical to calling :func:`simulate_config` directly;
* ``actors`` — a live asyncio/multiprocessing run of the Section 3.2
  message protocol — reproduces the simulator's counters and fire
  sequence exactly (timing fields excluded: they are wall time there);
* handles cache results and errors; unsupported configs are rejected
  with actionable messages rather than silently ignored.
"""

import pytest

from repro.exec import (CONTROL, ActorExecutor, BACKENDS, Executor,
                        MatchActorCore, ProtocolViolation, RunHandle,
                        SimExecutor, build_plans, expected_fires,
                        get_executor, match_signature, run)
from repro.mpc import (TABLE_5_1, FaultModel, RunConfig,
                       TimelineRecorder, simulate_config)
from repro.workloads import rubik_section, tourney_section, weaver_section

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)


@pytest.fixture(scope="module")
def rubik():
    return rubik_section()


@pytest.fixture(scope="module")
def weaver():
    return weaver_section()


class TestRegistry:
    def test_all_backends_registered(self):
        assert sorted(BACKENDS) == ["actors", "served", "sim"]
        for name, cls in BACKENDS.items():
            assert cls.name == name

    def test_executors_satisfy_protocol(self):
        assert isinstance(SimExecutor(), Executor)
        assert isinstance(ActorExecutor(), Executor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            get_executor("gpu")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            ActorExecutor(transport="carrier-pigeon")


class TestSimBackend:
    def test_bit_identical_to_simulate_config(self, rubik):
        config = RunConfig(n_procs=8, overheads=OV8)
        outcome = run(rubik, config)
        assert outcome.backend == "sim"
        assert outcome.result == simulate_config(rubik, config)
        assert outcome.total_us == outcome.result.total_us
        assert outcome.wall_s > 0.0

    def test_fires_are_the_planned_conflict_sets(self, rubik):
        config = RunConfig(n_procs=4)
        outcome = run(rubik, config)
        assert outcome.fires == expected_fires(rubik, config)
        assert len(outcome.fires) == len(rubik.cycles)
        for fire_set in outcome.fires:
            assert list(fire_set) == sorted(fire_set)

    def test_default_config_is_one_processor(self, rubik):
        assert run(rubik).result == simulate_config(rubik, RunConfig())

    def test_faulty_configs_supported(self, rubik):
        config = RunConfig(n_procs=8, overheads=OV8,
                           faults=FaultModel(seed=1, loss_prob=0.1))
        outcome = run(rubik, config)
        assert outcome.result == simulate_config(rubik, config)
        assert outcome.result.retransmits > 0


class TestActorsBackend:
    @pytest.mark.parametrize("n_procs", [1, 2, 8])
    def test_counters_match_simulator(self, rubik, weaver, n_procs):
        for trace in (rubik, weaver):
            config = RunConfig(n_procs=n_procs, overheads=OV8)
            live = run(trace, config, backend="actors")
            sim = run(trace, config)
            assert match_signature(live) == match_signature(sim)
            for lc, sc in zip(live.result.cycles, sim.result.cycles):
                assert lc.proc_busy_us == sc.proc_busy_us
                assert lc.n_messages == sc.n_messages
                assert lc.network_busy_us == sc.network_busy_us
                assert lc.control_busy_us == sc.control_busy_us

    def test_rubik_fire_sequence_exact(self, rubik):
        """The issue's acceptance pin: live actors deliver the exact
        conflict-set sequence the simulator predicts on rubik."""
        config = RunConfig(n_procs=8, overheads=OV8)
        live = run(rubik, config, backend="actors")
        assert live.fires == expected_fires(rubik, config)

    def test_process_transport_matches(self, rubik):
        config = RunConfig(n_procs=2, overheads=OV8)
        live = run(rubik, config, backend="actors",
                   transport="process")
        assert live.backend == "actors"
        assert match_signature(live) == \
            match_signature(run(rubik, config))

    @pytest.mark.parametrize("section", ["rubik", "tourney", "weaver"])
    @pytest.mark.parametrize("n_procs", [2, 4, 8])
    def test_process_transport_repeated_on_section5(self, section,
                                                    n_procs):
        """Worker processes flush through their own feeder threads, so
        message orders differ run to run; three runs of every Section
        5 trace must all match the simulator."""
        trace = {"rubik": rubik_section, "tourney": tourney_section,
                 "weaver": weaver_section}[section]()
        config = RunConfig(n_procs=n_procs)
        sim = match_signature(run(trace, config))
        for _ in range(3):
            live = run(trace, config, backend="actors",
                       transport="process")
            assert match_signature(live) == sim

    def test_rejects_fault_injection(self, rubik):
        executor = ActorExecutor()
        with pytest.raises(ValueError,
                           match="does not support fault injection"):
            executor.submit(rubik, RunConfig(
                n_procs=2, faults=FaultModel(loss_prob=0.5)))

    def test_rejects_recorder(self, rubik):
        with pytest.raises(ValueError,
                           match="does not support timeline recording"):
            ActorExecutor().submit(rubik, RunConfig(
                n_procs=2, recorder=TimelineRecorder()))

    def test_null_fault_model_is_fine(self, rubik):
        config = RunConfig(n_procs=2, faults=FaultModel())
        live = run(rubik, config, backend="actors")
        assert match_signature(live) == match_signature(run(rubik, config))


class TestMatchActorCoreOrdering:
    """A token may reach an actor before its cycle's plan does (the
    process transport orders nothing across senders)."""

    @staticmethod
    def _remote_token(rubik, config):
        """``(cycle plan, receiving actor, token act id)`` for the
        first cross-partition token rubik produces."""
        for plan in build_plans(rubik, config):
            for i, share in enumerate(plan.per_actor):
                core = MatchActorCore(i, config)
                out, _ = core.on_cycle(share, plan.index)
                for dst, msg in out:
                    if dst != CONTROL:
                        assert msg == ("token", msg[1], plan.index)
                        return plan, dst, msg[1]
        raise AssertionError("rubik produced no remote token")

    def test_early_token_is_buffered_then_processed(self, rubik):
        config = RunConfig(n_procs=4, overheads=OV8)
        plan, dst, act_id = self._remote_token(rubik, config)
        early = MatchActorCore(dst, config)
        assert early.on_token(act_id, plan.index) == ([], 0)
        assert early.activations == 0
        early_out, early_n = early.on_cycle(plan.per_actor[dst],
                                            plan.index)

        in_order = MatchActorCore(dst, config)
        out, n = in_order.on_cycle(plan.per_actor[dst], plan.index)
        token_out, token_n = in_order.on_token(act_id, plan.index)
        assert early_n == n + token_n
        assert sorted(early_out) == sorted(out + token_out)
        assert early.on_sync() == in_order.on_sync()

    def test_stale_token_raises(self, rubik):
        config = RunConfig(n_procs=4, overheads=OV8)
        plan, dst, act_id = self._remote_token(rubik, config)
        core = MatchActorCore(dst, config)
        core.on_cycle(plan.per_actor[dst], plan.index)
        core.on_token(act_id, plan.index)
        core.on_sync()
        with pytest.raises(ProtocolViolation, match="closed cycle"):
            core.on_token(act_id, plan.index)


class TestRunHandle:
    def test_result_computed_once_and_cached(self):
        calls = []

        def thunk():
            calls.append(1)
            return "outcome"

        handle = RunHandle(thunk)
        assert not handle.done
        assert handle.result() == "outcome"
        assert handle.result() == "outcome"
        assert calls == [1]
        assert handle.done

    def test_errors_cached_and_reraised(self):
        calls = []

        def thunk():
            calls.append(1)
            raise RuntimeError("wedged")

        handle = RunHandle(thunk)
        with pytest.raises(RuntimeError, match="wedged"):
            handle.result()
        with pytest.raises(RuntimeError, match="wedged"):
            handle.result()
        assert calls == [1]
        assert handle.done

    def test_from_future(self):
        import concurrent.futures

        future = concurrent.futures.Future()
        handle = RunHandle.from_future(future, lambda v: v * 2)
        assert not handle.done
        future.set_result(21)
        assert handle.result() == 42
        assert handle.done
