"""Tests for the instrumentation & profiling subsystem (Fig. 6/7 substrate):
region timers, pass timers, attempt records, the JSON report schema, and the
zero-overhead-when-off guarantee."""

import json
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import repro
from repro import instrumentation
from repro.config import Config
from repro.instrumentation import (AttemptRecord, ProfileCollector,
                                   ProfileReport, RegionStat)
from repro.ir import SDFG, Memlet
from repro.resilience import ResilienceWarning
from repro.runtime.executor import run_sdfg

N = repro.symbol("N")


def _vecadd_sdfg():
    sdfg = SDFG("vecadd")
    sdfg.add_array("A", (N,), repro.float64)
    sdfg.add_array("B", (N,), repro.float64)
    state = sdfg.add_state("compute")
    state.add_mapped_tasklet("axpy", {"i": "0:N"},
                             {"__a": Memlet("A", "i")}, "__out = __a + 1.0",
                             {"__out": Memlet("B", "i")})
    return sdfg


# ---------------------------------------------------------------------------
# report dataclasses and serialization
# ---------------------------------------------------------------------------

class TestReportSchema:
    def test_region_stat_aggregates(self):
        stat = RegionStat("map", "axpy")
        stat.add(0.5)
        stat.add(0.25)
        assert stat.count == 2
        assert stat.total_s == pytest.approx(0.75)
        assert stat.min_s == pytest.approx(0.25)
        assert stat.max_s == pytest.approx(0.5)

    def test_schema_tag_and_shape(self):
        d = ProfileReport(program="x").to_dict()
        assert d["schema"] == "repro-profile/1"
        assert set(d) == {"schema", "program", "mode", "regions",
                          "attempts", "meta"}
        json.dumps(d)  # must be JSON-serializable as-is

    def test_queries(self):
        report = ProfileReport()
        report.regions.append(RegionStat("pass", "a", 1, 0.25, 0.25, 0.25))
        report.regions.append(RegionStat("pass", "b", 1, 0.5, 0.5, 0.5))
        report.regions.append(RegionStat("map", "m", 1, 9.0, 9.0, 9.0))
        assert report.total("pass") == pytest.approx(0.75)
        assert [r.name for r in report.by_category("pass")] == ["a", "b"]
        assert report.get("pass", "missing") is None

    def test_summary_mentions_regions_and_attempts(self):
        report = ProfileReport(program="p")
        report.regions.append(RegionStat("map", "axpy", 3, 0.3, 0.1, 0.1))
        report.attempts.append(AttemptRecord("compiled", False, 0.1, "E: x"))
        text = report.summary()
        assert "axpy" in text and "attempt compiled" in text


# ---------------------------------------------------------------------------
# collector & activation
# ---------------------------------------------------------------------------

class TestCollector:
    def test_off_by_default(self):
        assert instrumentation.current() is None
        assert not instrumentation.enabled()
        assert Config.get("instrument.mode") == "off"

    def test_profile_context_stacks_and_restores(self):
        with instrumentation.profile("outer") as outer:
            assert instrumentation.current() is outer
            with instrumentation.profile("inner") as inner:
                assert instrumentation.current() is inner
            assert instrumentation.current() is outer
        assert instrumentation.current() is None

    def test_overlapping_blocks_in_two_threads_switch_off(self):
        # A enters, B enters, A exits, B exits: a block that restored the
        # collector it saved on entry would leave A's dead one active
        a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
        seen = {}

        def thread_a():
            with instrumentation.profile("A") as coll:
                seen["A"] = coll
                a_entered.set()
                b_entered.wait(5)
            a_exited.set()

        def thread_b():
            a_entered.wait(5)
            with instrumentation.profile("B") as coll:
                seen["B"] = coll
                b_entered.set()
                a_exited.wait(5)
                seen["after_a"] = instrumentation.current()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert seen["after_a"] is seen["B"]
        assert not instrumentation.enabled()

        @repro.program(instrument="timers")
        def scale(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 2.0

        scale(A=np.arange(4.0), B=np.zeros(4))
        assert isinstance(scale.last_profile, ProfileReport)
        assert seen["A"].empty

    def test_many_threads_entering_and_exiting_leave_it_off(self):
        off_inside = []

        def churn():
            for _ in range(200):
                with instrumentation.profile("t"):
                    if not instrumentation.enabled():
                        off_inside.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not off_inside, "a live block saw instrumentation off"
        assert not instrumentation.enabled()

    def test_record_region_noop_when_off(self):
        with instrumentation.record_region("map", "m"):
            pass  # must not raise nor record anywhere

    def test_region_timer_measures(self):
        coll = ProfileCollector("p")
        with coll.region("phase", "sleep"):
            time.sleep(0.01)
        stat = coll.report().get("phase", "sleep")
        assert stat.count == 1
        assert stat.total_s >= 0.009

    def test_empty_property(self):
        coll = ProfileCollector()
        assert coll.empty
        coll.add("pass", "x", 0.1)
        assert not coll.empty


# ---------------------------------------------------------------------------
# interpreter region timers
# ---------------------------------------------------------------------------

class TestInterpreterTimers:
    def test_state_and_map_regions_recorded(self):
        sdfg = _vecadd_sdfg()
        A = np.arange(6, dtype=np.float64)
        B = np.zeros(6)
        with instrumentation.profile("vecadd") as coll:
            run_sdfg(sdfg, A=A, B=B)
        report = coll.report()
        assert np.allclose(B, A + 1)
        assert report.get("state", "compute").count == 1
        assert report.get("map", "axpy").count == 1

    def test_nothing_recorded_when_off(self):
        sdfg = _vecadd_sdfg()
        coll = ProfileCollector("witness")
        run_sdfg(sdfg, A=np.zeros(4), B=np.zeros(4))
        assert coll.empty
        assert instrumentation.current() is None


# ---------------------------------------------------------------------------
# generated-code timers & the zero-overhead-when-off guarantee
# ---------------------------------------------------------------------------

class TestCompiledTimers:
    def test_plain_module_is_hook_free(self):
        from repro.codegen import compile_sdfg

        compiled = compile_sdfg(_vecadd_sdfg())
        assert "__prof" not in compiled.source
        assert not compiled.instrumented

    def test_instrumented_module_records_regions(self):
        from repro.codegen import compile_sdfg

        compiled = compile_sdfg(_vecadd_sdfg(), instrument=True)
        assert "__prof_add" in compiled.source
        A = np.arange(8, dtype=np.float64)
        B = np.zeros(8)
        with instrumentation.profile("vecadd") as coll:
            compiled(A=A, B=B)
        report = coll.report()
        assert np.allclose(B, A + 1)
        assert report.get("state", "compute").count == 1
        assert report.get("map", "axpy").count == 1

    def test_instrumented_module_silent_without_collector(self):
        from repro.codegen import compile_sdfg

        compiled = compile_sdfg(_vecadd_sdfg(), instrument=True)
        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        compiled(A=A, B=B)  # no active collector: hooks must no-op
        assert np.allclose(B, A + 1)


# ---------------------------------------------------------------------------
# @program integration
# ---------------------------------------------------------------------------

class TestProgramIntegration:
    def test_off_by_default_records_nothing(self):
        @repro.program
        def scale(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 2.0

        A = np.arange(5, dtype=np.float64)
        B = np.zeros(5)
        scale(A=A, B=B)
        assert np.allclose(B, A * 2)
        assert scale.last_profile is None
        # the fast path compiles a hook-free module
        compiled = scale.compile(A=A, B=B)
        assert "__prof" not in compiled.source

    def test_instrument_kwarg_produces_report(self):
        @repro.program(instrument="timers")
        def scale(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 2.0

        A = np.arange(5, dtype=np.float64)
        B = np.zeros(5)
        scale(A=A, B=B)
        report = scale.last_profile
        assert isinstance(report, ProfileReport)
        assert report.program == "scale"
        phases = {r.name for r in report.by_category("phase")}
        assert {"compile", "execute"} <= phases
        assert report.by_category("state"), "generated module state timers"

    def test_config_mode_enables_globally(self):
        @repro.program
        def scale(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 3.0

        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        with Config.override(instrument__mode="timers"):
            scale(A=A, B=B)
        assert np.allclose(B, A * 3)
        assert isinstance(scale.last_profile, ProfileReport)
        # back to off: a new call leaves last_profile untouched
        before = scale.last_profile
        scale(A=A, B=B)
        assert scale.last_profile is before

    def test_enclosing_profile_block_aggregates(self):
        @repro.program(instrument="timers")
        def scale(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 2.0

        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        with instrumentation.profile("session") as coll:
            scale(A=A, B=B)
        # the outer collector got the events; last_profile is not overwritten
        assert not coll.empty
        assert coll.report().by_category("phase")


# ---------------------------------------------------------------------------
# pass-level timers (Fig. 6 analogue)
# ---------------------------------------------------------------------------

class TestPassTimers:
    def test_pass_totals_bounded_by_wall_time(self):
        from repro.autoopt import auto_optimize

        @repro.program
        def mm(A: repro.float64[N, N], B: repro.float64[N, N],
               C: repro.float64[N, N]):
            for i, j in repro.map[0:N, 0:N]:
                C[i, j] = A[i, j] + B[i, j]

        sdfg = mm.to_sdfg().clone()
        with instrumentation.profile("mm") as coll:
            start = time.perf_counter()
            sdfg.simplify()
            auto_optimize(sdfg, device="CPU")
            wall = time.perf_counter() - start
        report = coll.report()
        passes = report.by_category("pass")
        assert passes, "simplify/auto_optimize must report pass timings"
        assert any(r.name.startswith("autoopt.") for r in passes)
        # each pass ran inside the measured window: totals cannot exceed it
        total = report.total("pass")
        assert 0.0 < total <= wall + 0.05

    def test_no_pass_timing_when_off(self):
        @repro.program
        def f(A: repro.float64[N]):
            A[:] = A + 1.0

        sdfg = f.to_sdfg().clone()
        sdfg.simplify()  # must not raise with no collector active
        assert instrumentation.current() is None


# ---------------------------------------------------------------------------
# degradation attempts
# ---------------------------------------------------------------------------

class _PoisonedCompiled:
    def __call__(self, **kwargs):
        raise RuntimeError("simulated runtime crash")


class TestDegradeAttempts:
    def _poisoned_program(self):
        @repro.program
        def triple(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 3.0

        A = np.arange(6, dtype=np.float64)
        B = np.zeros(6)
        # poison every compiled variant (plain and instrumented)
        for instrument in (False, True):
            triple.compile(A=A, B=B, instrument=instrument)
        for key in list(triple._compiled_cache):
            triple._compiled_cache[key] = _PoisonedCompiled()
        return triple, A, B

    def test_attempts_recorded_in_degrade_mode(self):
        triple, A, B = self._poisoned_program()
        with Config.override(resilience__mode="degrade"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResilienceWarning)
                triple(A=A, B=B)
        assert np.allclose(B, A * 3)
        stages = [(a["stage"], a["ok"]) for a in triple.last_attempts]
        assert stages == [("compiled", False), ("interpreter", True)]
        assert triple.last_attempts[0]["error"].startswith("RuntimeError")
        assert all(a["seconds"] >= 0.0 for a in triple.last_attempts)

    def test_attempts_land_in_profile_report(self):
        triple, A, B = self._poisoned_program()
        with Config.override(resilience__mode="degrade",
                             instrument__mode="timers"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResilienceWarning)
                triple(A=A, B=B)
        report = triple.last_profile
        assert isinstance(report, ProfileReport)
        assert [a.stage for a in report.attempts] == ["compiled", "interpreter"]
        assert report.attempts[0].ok is False
        assert report.attempts[1].ok is True
        # the failure report serializes alongside (fallback tier recorded)
        dumped = triple.failure_report.to_dict()
        assert dumped and dumped[-1]["action"] == "fell-back:interpreter"
        json.dumps(dumped)
