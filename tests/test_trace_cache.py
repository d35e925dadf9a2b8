"""Tests for the content-addressed on-disk trace cache."""

import dataclasses

import pytest

import repro.trace.cache as trace_cache
from repro.trace import (cache_dir, cache_enabled, cached_trace, clear_cache,
                         invalidate, module_source, set_cache_enabled,
                         source_fingerprint, trace_key)
from repro.trace.cache import TRACE_FORMAT_VERSION
from repro.workloads import (SectionSpec, generate_section, rubik_section,
                             tourney_section, weaver_section)


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    """Point the cache at a throwaway directory and start it empty."""
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(trace_cache.ENV_ENABLED, raising=False)
    trace_cache._memory.clear()
    set_cache_enabled(None)
    yield
    trace_cache._memory.clear()
    set_cache_enabled(None)


def small_trace(seed=0, name="cached"):
    return generate_section(SectionSpec(
        name=name, cycles=3, right_activations=40, left_activations=40,
        fanout=3, active_left_buckets=8, left_skew=0.5, seed=seed))


def assert_traces_equal(a, b):
    """Activation-by-activation equality, not just summary stats."""
    assert a.name == b.name
    assert len(a.cycles) == len(b.cycles)
    for ca, cb in zip(a.cycles, b.cycles):
        assert ca.index == cb.index
        acts_a, acts_b = ca.ordered(), cb.ordered()
        assert len(acts_a) == len(acts_b)
        for x, y in zip(acts_a, acts_b):
            assert dataclasses.asdict(x) == dataclasses.asdict(y)


class TestKeying:
    def test_key_depends_on_params(self):
        assert trace_key("demo", seed=0) != trace_key("demo", seed=1)

    def test_key_depends_on_kind_and_source(self):
        assert trace_key("a", source="s") != trace_key("b", source="s")
        assert (trace_key("a", source="old code")
                != trace_key("a", source="new code"))

    def test_key_is_filename_safe(self):
        key = trace_key("../../etc passwd!", seed=3)
        assert "/" not in key and " " not in key

    def test_key_folds_format_version(self, monkeypatch):
        before = trace_key("demo", seed=0)
        monkeypatch.setattr(trace_cache, "TRACE_FORMAT_VERSION",
                            TRACE_FORMAT_VERSION + 1)
        assert trace_key("demo", seed=0) != before

    def test_source_fingerprint_order_sensitive(self):
        assert source_fingerprint("a", "b") != source_fingerprint("b", "a")

    def test_module_source_reads_real_code(self):
        src = module_source("repro.workloads.rubik")
        assert "def rubik_section" in src


class TestRoundTrip:
    def test_cached_equals_fresh(self):
        key = trace_key("roundtrip", seed=7)
        built = []

        def build():
            built.append(True)
            return small_trace(seed=7)

        first = cached_trace(key, build)
        trace_cache._memory.clear()  # force the disk path
        second = cached_trace(key, build)
        assert len(built) == 1, "second call should load, not rebuild"
        assert_traces_equal(first, small_trace(seed=7))
        assert_traces_equal(second, small_trace(seed=7))

    def test_memory_layer_returns_same_object(self):
        key = trace_key("memo", seed=1)
        first = cached_trace(key, lambda: small_trace(seed=1))
        assert cached_trace(key, lambda: small_trace(seed=1)) is first

    def test_sections_identical_with_and_without_cache(self):
        for build in (rubik_section, tourney_section, weaver_section):
            cached = build()
            trace_cache._memory.clear()
            from_disk = build()
            set_cache_enabled(False)
            try:
                fresh = build()
            finally:
                set_cache_enabled(None)
            assert_traces_equal(cached, fresh)
            assert_traces_equal(from_disk, fresh)


class TestInvalidation:
    def test_source_change_triggers_rebuild(self):
        builds = []

        def build():
            builds.append(True)
            return small_trace()

        cached_trace(trace_key("prog", source="(p one ...)"), build)
        cached_trace(trace_key("prog", source="(p one MODIFIED ...)"),
                     build)
        assert len(builds) == 2, \
            "changed source must map to a different cache entry"

    @pytest.mark.parametrize("module", ["repro.rete.kernel",
                                        "repro.trace.recorder"])
    def test_program_trace_key_covers_recording_code(self, module,
                                                     monkeypatch):
        """Recorded program traces re-record when the kernel or the
        recorder changes, not only when the OPS5 text does."""
        import repro.workloads.programs as programs
        keys = []
        monkeypatch.setattr(programs, "cached_trace",
                            lambda key, build: keys.append(key))
        programs.blocks_world_trace()
        real = programs.module_source
        monkeypatch.setattr(
            programs, "module_source",
            lambda name: real(name) + ("# edited" if name == module
                                       else ""))
        programs.blocks_world_trace()
        assert keys[0] != keys[1]

    def test_explicit_invalidate(self):
        key = trace_key("inv", seed=0)
        builds = []

        def build():
            builds.append(True)
            return small_trace()

        cached_trace(key, build)
        invalidate(key)
        cached_trace(key, build)
        assert len(builds) == 2

    def test_refresh_flag_rebuilds(self):
        key = trace_key("ref", seed=0)
        builds = []

        def build():
            builds.append(True)
            return small_trace()

        cached_trace(key, build)
        cached_trace(key, build, refresh=True)
        assert len(builds) == 2

    def test_clear_cache_removes_entries(self):
        key = trace_key("clr", seed=0)
        cached_trace(key, small_trace)
        assert any(cache_dir().iterdir())
        clear_cache()
        assert not trace_cache._memory
        assert not any(cache_dir().iterdir())

    def test_corrupt_entry_falls_back_to_build(self):
        key = trace_key("corrupt", seed=0)
        cached_trace(key, small_trace)
        trace_cache._memory.clear()
        for path in cache_dir().glob("*.trace"):
            path.write_text("not a trace\n", encoding="utf-8")
        rebuilt = cached_trace(key, lambda: small_trace(seed=0))
        assert_traces_equal(rebuilt, small_trace(seed=0))


class TestQuarantine:
    def plant_truncated_entry(self, key):
        """Store a valid entry, then truncate it mid-line on disk."""
        cached_trace(key, small_trace)
        trace_cache._memory.clear()
        (path,) = cache_dir().glob("*.trace")
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2].rsplit(" ", 1)[0],
                        encoding="utf-8")
        return path

    def test_truncated_entry_quarantined_and_rebuilt(self, caplog):
        """The round trip the fault issue asks for: a truncated entry
        must be set aside as *.corrupt (with a warning) and the trace
        rebuilt transparently, bit-identical to a fresh build."""
        key = trace_key("torn", seed=3)
        path = self.plant_truncated_entry(key)
        with caplog.at_level("WARNING", logger="repro.trace.cache"):
            rebuilt = cached_trace(key, lambda: small_trace(seed=3))
        assert_traces_equal(rebuilt, small_trace(seed=3))
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists(), "corrupt entry was not quarantined"
        assert any("quarantined" in rec.message for rec in caplog.records)
        # The rebuilt entry is stored again and loads cleanly from disk.
        trace_cache._memory.clear()
        reloaded = cached_trace(
            key, lambda: pytest.fail("should load from disk"))
        assert_traces_equal(reloaded, small_trace(seed=3))

    def test_repeated_corruption_accumulates_evidence(self):
        key = trace_key("torn-again", seed=4)
        self.plant_truncated_entry(key)
        cached_trace(key, lambda: small_trace(seed=4))
        trace_cache._memory.clear()
        # Corrupt the (rebuilt) entry a second time.
        for path in cache_dir().glob("*.trace"):
            path.write_text("#repro-trace 1\nsection x\ncycle zero\n",
                            encoding="utf-8")
        cached_trace(key, lambda: small_trace(seed=4))
        corrupt = list(cache_dir().glob("*.corrupt"))
        assert len(corrupt) == 1, \
            "second quarantine should overwrite the first for one key"

    def test_clear_cache_removes_quarantined_files(self):
        key = trace_key("torn-clear", seed=5)
        self.plant_truncated_entry(key)
        cached_trace(key, lambda: small_trace(seed=5))
        assert list(cache_dir().glob("*.corrupt"))
        clear_cache()
        assert not any(cache_dir().iterdir())

    def test_missing_entry_is_not_quarantined(self):
        """A plain miss must stay a miss: no *.corrupt files appear."""
        key = trace_key("fresh-miss", seed=6)
        cached_trace(key, lambda: small_trace(seed=6))
        assert not list(cache_dir().glob("*.corrupt"))


class TestEscapeHatch:
    def test_env_var_disables(self, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_ENABLED, "0")
        set_cache_enabled(None)  # defer to the environment
        assert not cache_enabled()
        builds = []

        def build():
            builds.append(True)
            return small_trace()

        key = trace_key("off", seed=0)
        cached_trace(key, build)
        cached_trace(key, build)
        assert len(builds) == 2
        assert not cache_dir().exists()

    def test_set_cache_enabled_overrides_env(self, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_ENABLED, "0")
        set_cache_enabled(True)
        assert cache_enabled()
        set_cache_enabled(None)
        assert not cache_enabled()

    def test_cache_dir_honors_env(self, tmp_path):
        assert cache_dir() == tmp_path / "cache"


class TestMetrics:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        from repro.obs import reset_registry
        reset_registry()
        yield
        reset_registry()

    def counts(self):
        from repro.trace import cache_stats
        return cache_stats()

    def test_miss_store_and_hits_are_counted(self):
        key = trace_key("metrics", seed=0)
        cached_trace(key, small_trace)            # miss + store
        cached_trace(key, small_trace)            # memory hit
        trace_cache._memory.clear()
        cached_trace(key, small_trace)            # disk hit
        stats = self.counts()
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["memory_hits"] == 1
        assert stats["disk_hits"] == 1
        assert stats["quarantines"] == 0

    def test_quarantine_counted(self):
        key = trace_key("metrics-q", seed=1)
        cached_trace(key, small_trace)
        trace_cache._memory.clear()
        for path in cache_dir().glob("*.trace"):
            path.write_text("garbage\n", encoding="utf-8")
        cached_trace(key, lambda: small_trace(seed=1))
        stats = self.counts()
        assert stats["quarantines"] == 1
        # the rebuild after the quarantine is a miss + store again
        assert stats["misses"] == 2
        assert stats["stores"] == 2

    def test_format_cache_stats_mentions_every_counter(self):
        from repro.trace import format_cache_stats
        key = trace_key("metrics-fmt", seed=2)
        cached_trace(key, small_trace)
        text = format_cache_stats()
        for name in ("memory_hits", "disk_hits", "misses", "stores",
                     "quarantines"):
            assert name + "=" in text
