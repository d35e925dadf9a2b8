"""Tests (incl. property-based) for the parameterized section generator."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import simulate, simulate_base, speedup
from repro.trace import IdleRun, validate_trace
from repro.workloads import (SectionSpec, StreamSpec, SyntheticStream,
                             generate_section)


class TestBasics:
    def test_default_spec_generates(self):
        trace = generate_section(SectionSpec())
        stats = trace.stats()
        assert stats.left == 1000
        assert stats.right == 1000
        assert len(trace.cycles) == 4

    def test_counts_exact_for_awkward_splits(self):
        spec = SectionSpec(cycles=3, right_activations=100,
                           left_activations=77)
        stats = generate_section(spec).stats()
        assert (stats.left, stats.right) == (77, 100)

    def test_deterministic_per_seed(self):
        from repro.trace import dumps_trace
        a = generate_section(SectionSpec(seed=5))
        b = generate_section(SectionSpec(seed=5))
        assert dumps_trace(a) == dumps_trace(b)

    def test_seed_changes_layout(self):
        from repro.trace import dumps_trace
        assert dumps_trace(generate_section(SectionSpec(seed=1))) != \
            dumps_trace(generate_section(SectionSpec(seed=2)))

    def test_zero_left_activations(self):
        spec = SectionSpec(left_activations=0, terminals_per_cycle=0)
        stats = generate_section(spec).stats()
        assert stats.left == 0

    def test_zero_right_activations(self):
        spec = SectionSpec(right_activations=0)
        stats = generate_section(spec).stats()
        assert stats.right == 0


class TestValidation:
    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            generate_section(SectionSpec(cycles=0))

    def test_rejects_empty_section(self):
        with pytest.raises(ValueError):
            generate_section(SectionSpec(right_activations=0,
                                         left_activations=0))

    def test_rejects_zero_fanout(self):
        with pytest.raises(ValueError):
            generate_section(SectionSpec(fanout=0))

    def test_rejects_bad_roots_fraction(self):
        with pytest.raises(ValueError):
            generate_section(SectionSpec(left_roots_fraction=0.0))

    def test_rejects_negative_skew(self):
        with pytest.raises(ValueError):
            generate_section(SectionSpec(left_skew=-1))


class TestShapeEffects:
    """The generator's knobs move the simulated behaviour the way the
    paper's analysis says they should."""

    def test_fewer_buckets_less_speedup(self):
        wide = generate_section(SectionSpec(
            name="wide", active_left_buckets=64, right_activations=0,
            left_activations=2000, terminals_per_cycle=0))
        narrow = generate_section(SectionSpec(
            name="narrow", active_left_buckets=2, right_activations=0,
            left_activations=2000, terminals_per_cycle=0))
        s_wide = speedup(simulate_base(wide), simulate(wide, 16))
        s_narrow = speedup(simulate_base(narrow), simulate(narrow, 16))
        assert s_narrow < s_wide

    def test_higher_skew_less_speedup(self):
        def s(skew):
            trace = generate_section(SectionSpec(
                name=f"skew{skew}", left_skew=skew, right_activations=0,
                left_activations=2000, active_left_buckets=32,
                terminals_per_cycle=0))
            return speedup(simulate_base(trace), simulate(trace, 16))
        assert s(2.0) < s(0.0)

    def test_right_heavy_sections_resist_overheads(self):
        """The Table 5-2 mechanism: only left activations travel."""
        from repro.mpc import TABLE_5_1

        def loss(left, right):
            trace = generate_section(SectionSpec(
                name="x", left_activations=left,
                right_activations=right, terminals_per_cycle=0))
            base = simulate_base(trace)
            s0 = speedup(base, simulate(trace, 16))
            s32 = speedup(base, simulate(trace, 16,
                                         overheads=TABLE_5_1[3]))
            return 1 - s32 / s0

        assert loss(left=200, right=1800) < loss(left=1800, right=200)


@given(
    cycles=st.integers(min_value=1, max_value=5),
    rights=st.integers(min_value=0, max_value=800),
    lefts=st.integers(min_value=0, max_value=800),
    fanout=st.integers(min_value=1, max_value=8),
    buckets=st.integers(min_value=1, max_value=64),
    skew=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=99),
)
def test_generator_properties(cycles, rights, lefts, fanout, buckets,
                              skew, seed):
    if rights + lefts == 0:
        return
    spec = SectionSpec(cycles=cycles, right_activations=rights,
                       left_activations=lefts, fanout=fanout,
                       active_left_buckets=buckets, left_skew=skew,
                       terminals_per_cycle=min(3, max(rights, lefts)),
                       seed=seed)
    trace = generate_section(spec)
    # Valid, exact, simulatable.
    assert validate_trace(trace) == []
    stats = trace.stats()
    assert stats.left == lefts and stats.right == rights
    run = simulate(trace, n_procs=4)
    assert run.total_us > 0


class TestSyntheticStreamPinned:
    """Draw-for-draw pins of seeded :class:`SyntheticStream` output.

    The streams are benchmark data (perfbench's sparse grid, the scale
    sweep), so a faster generator must reproduce them exactly.  The
    digest covers every activation field in iteration order, and the
    idle markers are pinned both inside it and explicitly.
    """

    @staticmethod
    def _digest(stream):
        digest = hashlib.sha256()
        idle = []
        for entry in stream:
            if isinstance(entry, IdleRun):
                idle.append((entry.start_index, entry.count))
                digest.update(repr(("idle", entry.start_index,
                                    entry.count)).encode())
                continue
            for act in entry:
                digest.update(repr((
                    entry.index, act.act_id, act.parent_id, act.node_id,
                    act.kind, act.side, act.tag, act.key.node_id,
                    act.key.values, act.successors)).encode())
        return digest.hexdigest(), idle

    def test_sparse_grid_stream(self):
        # perfbench's sparse_spec(1): 50 active x 100, 200 idle between
        stream = SyntheticStream(StreamSpec(
            name="sparse", active_cycles=50, activations_per_cycle=100,
            idle_between=200, seed=1))
        digest, idle = self._digest(stream)
        assert idle == [(2 + 201 * k, 200) for k in range(50)]
        assert digest == ("1664c5d243cc7e3fcf47bf708f5019ee"
                          "a566b4bdbfc0de212e124e7b788e018d")

    def test_scale_sweep_stream_shape(self):
        # the scale sweep's shape (1000 per cycle, 2800 idle between,
        # 4 terminals), cut to its first 20 active cycles
        stream = SyntheticStream(StreamSpec(
            name="scale", active_cycles=20, activations_per_cycle=1_000,
            idle_between=2_800, terminals_per_cycle=4, seed=0))
        digest, idle = self._digest(stream)
        assert idle == [(2 + 2801 * k, 2800) for k in range(20)]
        assert digest == ("3278b65d9ba3971911d2c4e452a2c73c"
                          "f27e782185b893bd0b9f1bb98c245eb5")
