"""Tests for :class:`repro.mpc.RunConfig` and the ``simulate`` shim.

The config object is the one value naming a complete machine
configuration; its contracts are (a) it validates on construction with
the CLI's exact one-line messages, (b) ``from_args`` reproduces the
CLI's legacy flag handling, and (c) ``simulate()`` is only the short
form — trace, processor count, costs and overheads — which stays
silent and equals the matching ``RunConfig`` run.
"""

import warnings
from types import SimpleNamespace

import pytest

from repro.mpc import (OVERHEADS, TABLE_5_1, FaultModel, ProtocolModel,
                       RoundRobinMapping, RunConfig, TimelineRecorder,
                       ZERO_OVERHEADS, simulate, simulate_config)
from repro.workloads import rubik_section


class TestValidation:
    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError,
                           match="need at least one match processor"):
            RunConfig(n_procs=0)

    def test_rejects_mapping_proc_mismatch(self):
        with pytest.raises(ValueError,
                           match="mapping built for 8 processors, "
                                 "simulating 4"):
            RunConfig(n_procs=4, mapping=RoundRobinMapping(n_procs=8))

    def test_replace_revalidates(self):
        config = RunConfig(n_procs=4)
        with pytest.raises(ValueError):
            config.replace(n_procs=0)
        assert config.replace(n_procs=8).n_procs == 8
        assert config.n_procs == 4  # frozen: replace copies

    def test_faulty_flag(self):
        assert not RunConfig().faulty
        assert not RunConfig(faults=FaultModel()).faulty  # null model
        assert RunConfig(faults=FaultModel(loss_prob=0.1)).faulty

    def test_overheads_table_keyed_by_total(self):
        assert sorted(OVERHEADS) == [0, 8, 16, 32]
        for total, model in OVERHEADS.items():
            assert int(model.total_us) == total
        assert set(OVERHEADS.values()) <= set(TABLE_5_1)


class TestFromArgs:
    def args(self, **kw):
        return SimpleNamespace(**kw)

    def test_defaults(self):
        config = RunConfig.from_args(self.args())
        assert config.n_procs == 1
        assert config.overheads is OVERHEADS[0]
        assert config.faults is None  # null faults collapse to None
        assert config.protocol == ProtocolModel(timeout_us=500.0,
                                                max_retries=8)

    def test_overhead_row_lookup(self):
        config = RunConfig.from_args(self.args(overhead=16, procs=8))
        assert config.overheads is OVERHEADS[16]
        assert config.n_procs == 8

    def test_bad_overhead_message(self):
        with pytest.raises(ValueError) as err:
            RunConfig.from_args(self.args(overhead=7))
        assert str(err.value) == \
            "--overhead must be one of [0, 8, 16, 32]"

    def test_fault_flags_build_model(self):
        config = RunConfig.from_args(self.args(
            loss=0.1, dup=0.05, jitter=2.0, fault_seed=7))
        assert config.faults == FaultModel(seed=7, loss_prob=0.1,
                                           dup_prob=0.05, jitter_us=2.0)

    @pytest.mark.parametrize("kw, message", [
        (dict(loss=1.5), "--loss must be in [0, 1], got 1.5"),
        (dict(dup=-0.1), "--dup must be in [0, 1], got -0.1"),
        (dict(jitter=-1.0), "--jitter must be >= 0, got -1"),
        (dict(timeout=0.0), "--timeout must be > 0, got 0"),
        (dict(retries=-1), "--retries must be >= 0, got -1"),
        (dict(procs=0), "--procs must be >= 1, got 0"),
    ])
    def test_legacy_one_line_messages(self, kw, message):
        with pytest.raises(ValueError) as err:
            RunConfig.from_args(self.args(**kw))
        assert str(err.value) == message

    def test_loss_list_rejected_without_override(self):
        with pytest.raises(ValueError,
                           match="--loss must be a single rate here"):
            RunConfig.from_args(self.args(loss=[0.0, 0.1]))

    def test_loss_override_beats_args(self):
        config = RunConfig.from_args(self.args(loss=[0.0, 0.1]),
                                     loss=0.1)
        assert config.faults.loss_prob == 0.1

    def test_n_procs_override(self):
        config = RunConfig.from_args(self.args(procs=[1, 2, 4]),
                                     n_procs=4)
        assert config.n_procs == 4

    def test_recorder_passthrough(self):
        recorder = TimelineRecorder()
        config = RunConfig.from_args(self.args(), recorder=recorder)
        assert config.recorder is recorder


class TestSimulateShim:
    @pytest.fixture(scope="class")
    def rubik(self):
        return rubik_section()

    def test_sprawl_keywords_are_gone(self, rubik):
        for keyword, value in (
                ("mapping", RoundRobinMapping(n_procs=4)),
                ("mapping_factory", None), ("faults", FaultModel()),
                ("protocol", ProtocolModel()), ("recorder", None)):
            with pytest.raises(TypeError):
                simulate(rubik, n_procs=4, **{keyword: value})

    def test_short_form_stays_silent(self, rubik):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            short = simulate(rubik, n_procs=8, overheads=TABLE_5_1[1])
        assert short == simulate_config(
            rubik, RunConfig(n_procs=8, overheads=TABLE_5_1[1]))

    def test_zero_fault_config_bit_identical_to_short_form(self, rubik):
        """The acceptance pin: a plain RunConfig run equals the
        pre-redesign ``simulate()`` output, field for field."""
        old = simulate(rubik, n_procs=16, overheads=TABLE_5_1[2])
        new = simulate_config(rubik, RunConfig(n_procs=16,
                                               overheads=TABLE_5_1[2]))
        assert old == new
        assert old.total_us == new.total_us
        assert ZERO_OVERHEADS == RunConfig().overheads
