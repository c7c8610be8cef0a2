"""Tests for the persistent content-addressed compilation cache
(DESIGN.md §9): fingerprint stability, key sensitivity, two-tier
hit/miss/eviction accounting, corruption recovery, concurrent writers, and
the warm-start end-to-end path."""

import json
import os
import threading

import numpy as np
import pytest

import repro
from repro import instrumentation
from repro.cache import (CacheStore, cache_key, cached_compile, fingerprint,
                         reset_stats, stats)
from repro.cache.store import CacheEntry
from repro.config import Config
from repro.ir.serialize import sdfg_from_json

N = repro.symbol("N")


@repro.program
def saxpy(A: repro.float64[N], B: repro.float64[N]):
    for i in repro.map[0:N]:
        B[i] = 2.0 * A[i] + B[i]


@repro.program
def scale(A: repro.float64[N], B: repro.float64[N]):
    for i in repro.map[0:N]:
        B[i] = 3.0 * A[i]


@pytest.fixture
def store(tmp_path):
    reset_stats()
    st = CacheStore(directory=str(tmp_path / "cache"), max_bytes=1 << 20,
                    memory_entries=8)
    yield st
    reset_stats()


def _fresh_sdfg(program=saxpy):
    return program.to_sdfg().clone()


class TestFingerprint:
    def test_stable_across_clone(self):
        sdfg = _fresh_sdfg()
        assert fingerprint(sdfg) == fingerprint(sdfg.clone())

    def test_stable_across_serialize_round_trip(self):
        sdfg = _fresh_sdfg()
        restored = sdfg_from_json(sdfg.to_json())
        assert fingerprint(sdfg) == fingerprint(restored)

    def test_double_round_trip(self):
        sdfg = _fresh_sdfg()
        once = sdfg_from_json(sdfg.to_json())
        twice = sdfg_from_json(once.to_json())
        assert fingerprint(once) == fingerprint(twice)

    def test_different_programs_differ(self):
        assert fingerprint(_fresh_sdfg(saxpy)) != fingerprint(_fresh_sdfg(scale))

    def test_graph_edit_changes_fingerprint(self):
        sdfg = _fresh_sdfg()
        before = fingerprint(sdfg)
        edited = sdfg.clone()
        edited.add_array("extra", (4,), repro.float64, transient=True)
        assert fingerprint(edited) != before


class TestCacheKey:
    def test_key_sensitivity(self):
        sdfg = _fresh_sdfg()
        base = cache_key(sdfg)
        assert cache_key(sdfg, device="GPU") != base
        assert cache_key(sdfg, instrument=True) != base
        assert cache_key(sdfg, sanitize=True) != base
        assert cache_key(sdfg, optimize="CPU") != base
        assert cache_key(sdfg) == base  # deterministic

    def test_key_covers_optimizer_config(self):
        sdfg = _fresh_sdfg()
        base = cache_key(sdfg)
        key = next(k for k in Config.keys() if k.startswith("optimizer."))
        with Config.override(**{key.replace(".", "__"): not Config.get(key)
                                if isinstance(Config.get(key), bool)
                                else 999}):
            assert cache_key(sdfg) != base
        assert cache_key(sdfg) == base


class TestAccounting:
    def test_miss_then_memory_hit_then_disk_hit(self, store):
        sdfg = _fresh_sdfg()
        cold = cached_compile(sdfg, store=store)
        assert stats().misses == 1 and stats().hits == 0
        assert not cold.from_cache
        assert stats().stores == 1  # saxpy has no library nodes: persistable

        warm = cached_compile(_fresh_sdfg(), store=store)
        assert stats().memory_hits == 1
        assert warm is cold  # the memory tier returns the live object

        store.clear_memory()
        disk = cached_compile(_fresh_sdfg(), store=store)
        assert stats().disk_hits == 1
        assert disk.from_cache
        assert disk.codegen_seconds == 0.0 and disk.validate_seconds == 0.0

    def test_disabled_cache_bypasses_store(self, store):
        with Config.override(cache__enabled=False):
            compiled = cached_compile(_fresh_sdfg(), store=store)
        assert not compiled.from_cache
        assert stats().lookups == 0 and store.memory_size == 0

    def test_eviction_to_budget(self, store):
        cached_compile(_fresh_sdfg(saxpy), store=store)
        cached_compile(_fresh_sdfg(scale), store=store)
        assert store.disk_stats()["entries"] == 2
        store.max_bytes = 1  # force everything over budget
        evicted = store.evict_to_budget()
        assert evicted == 2 and stats().evictions == 2
        assert store.disk_stats()["entries"] == 0


class TestCorruptionRecovery:
    def test_corrupt_entry_evicted_and_recompiled(self, store):
        sdfg = _fresh_sdfg()
        cold = cached_compile(sdfg, store=store)
        key = cache_key(sdfg)
        path = store.entry_path(key)
        with open(path, "w") as fh:
            fh.write("{not json")
        store.clear_memory()

        recompiled = cached_compile(_fresh_sdfg(), store=store)
        assert stats().invalidations == 1
        assert stats().misses == 2  # corrupt load counts as a miss
        assert not recompiled.from_cache
        # the recompile re-persisted a valid entry
        assert store.load_disk(key) is not None

        A = np.arange(5, dtype=np.float64)
        B = np.ones(5)
        B2 = np.ones(5)
        cold(A=A, B=B, N=5)
        recompiled(A=A, B=B2, N=5)
        np.testing.assert_allclose(B, B2)

    def test_checksum_mismatch_detected(self, store):
        sdfg = _fresh_sdfg()
        cached_compile(sdfg, store=store)
        key = cache_key(sdfg)
        path = store.entry_path(key)
        with open(path) as fh:
            doc = json.load(fh)
        doc["source"] = doc["source"] + "\n# tampered"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert store.load_disk(key) is None
        assert not os.path.exists(path)  # evicted on detection

    def test_verify_reports_and_evicts(self, store):
        cached_compile(_fresh_sdfg(saxpy), store=store)
        cached_compile(_fresh_sdfg(scale), store=store)
        bad = store.entry_path(cache_key(_fresh_sdfg(scale)))
        with open(bad, "w") as fh:
            fh.write("garbage")
        ok, corrupted = store.verify()
        assert ok == 1 and corrupted == [bad]
        assert os.path.exists(bad)  # verify without evict keeps the file
        ok, corrupted = store.verify(evict=True)
        assert corrupted == [bad] and not os.path.exists(bad)

    def test_unknown_schema_rejected(self, store):
        entry = CacheEntry(key="k", program="p", source="", sdfg_json={},
                           closure_specs={})
        doc = entry.to_dict()
        doc["schema"] = "repro-cache-entry/999"
        with pytest.raises(ValueError):
            CacheEntry.from_dict(doc)


class TestConcurrency:
    def test_concurrent_writers_race_benignly(self, store):
        errors = []
        results = []
        barrier = threading.Barrier(4)

        def worker():
            try:
                barrier.wait()
                results.append(cached_compile(_fresh_sdfg(), store=store))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors and len(results) == 4
        ok, corrupted = store.verify()
        assert ok == 1 and not corrupted
        for compiled in results:
            A = np.arange(4, dtype=np.float64)
            B = np.zeros(4)
            compiled(A=A, B=B, N=4)
            np.testing.assert_allclose(B, 2.0 * A)


class TestWarmStartEndToEnd:
    def test_warm_start_skips_codegen_same_outputs(self, store):
        rng = np.random.default_rng(0)
        A = rng.random(16)
        B_cold = rng.random(16)
        B_warm = B_cold.copy()

        cold = cached_compile(_fresh_sdfg(), store=store, optimize="CPU")
        store.clear_memory()
        warm = cached_compile(_fresh_sdfg(), store=store, optimize="CPU")

        assert not cold.from_cache and warm.from_cache
        assert warm.codegen_seconds == 0.0
        assert warm.source == cold.source  # identical generated module
        cold(A=A, B=B_cold, N=16)
        warm(A=A, B=B_warm, N=16)
        np.testing.assert_allclose(B_cold, B_warm)

    def test_cache_events_instrumented(self, store):
        with instrumentation.profile("cache-test") as prof:
            cached_compile(_fresh_sdfg(), store=store)
        report = prof.report()
        names = {r.name for r in report.by_category("cache")}
        assert "miss" in names
        phases = {r.name for r in report.by_category("phase")}
        assert "validate" in phases and "codegen" in phases

        store.clear_memory()
        with instrumentation.profile("cache-test") as prof:
            cached_compile(_fresh_sdfg(), store=store)
        report = prof.report()
        names = {r.name for r in report.by_category("cache")}
        assert "hit-disk" in names
        # a hit skips validation and code generation entirely
        assert not report.by_category("phase")


class TestPerfGate:
    """The one committed perf baseline: the comm-volume gate's
    (``python -m repro.bench.dist --check``)."""

    BASELINE = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "BENCH_dist_baseline.json")

    def test_committed_baseline_is_valid(self):
        """The baseline the CI gate compares against must stay loadable and
        self-consistent (a result equals itself)."""
        from repro.bench import dist

        with open(self.BASELINE) as fh:
            baseline = json.load(fh)
        assert baseline["kernels"]
        assert dist.check(baseline, baseline) == []

    def test_committed_baselines_carry_their_harness_schema(self):
        """Artifact drift is a bug class: every committed baseline must be
        on the schema of the harness whose ``--check`` reads it."""
        import glob

        from repro.bench import dist

        root = os.path.dirname(self.BASELINE)
        paths = glob.glob(os.path.join(root, "BENCH_*baseline*.json"))
        assert [os.path.basename(p) for p in paths] == \
            ["BENCH_dist_baseline.json"]
        with open(self.BASELINE) as fh:
            assert json.load(fh)["schema"] == dist.SCHEMA
