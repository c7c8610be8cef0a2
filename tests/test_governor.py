"""Tests for the execution governor (DESIGN.md §12): budgets with deadlines
and cooperative cancellation, static memory admission control with
degrade-to-serial, per-program circuit breakers, and the governed sweep."""

import json
import threading
import time

import numpy as np
import pytest

import repro
import repro.dtypes as dt
from repro import (Budget, CircuitOpenError, ExecutionTimeout,
                   MemoryBudgetExceeded)
from repro.config import Config
from repro.governor import admission
from repro.governor.breaker import registry, reset_breakers
from repro.governor.budget import ArmedBudget, ExecutionCancelled, armed
from repro.instrumentation import profile
from repro.ir.memlet import Memlet
from repro.ir.nodes import MapEntry, ScheduleType
from repro.ir.sdfg import SDFG
from repro.runtime import context, parallel
from repro.runtime.executor import run_sdfg
from repro.symbolic import Range

N = repro.symbol("N")


@pytest.fixture(autouse=True)
def _fresh_governor_state():
    reset_breakers()
    yield
    reset_breakers()
    parallel.shutdown_pool()
    parallel.reset_stats()


@repro.program
def incr(A: repro.float64[N]):
    for i in repro.map[0:N]:
        A[i] = A[i] + 1.0


@repro.program
def slow_loop(A: repro.float64[N], T: repro.int64):
    for t in range(T):
        for i in repro.map[0:N]:
            A[i] = A[i] + 0.5


def wcr_multicore_sdfg(n=400):
    """out[0] = sum(A) through a CPU_Multicore map (priced per-chunk
    accumulators on the parallel tier, none on the serial one)."""
    sdfg = SDFG("red")
    sdfg.add_array("A", (n,), dt.float64)
    sdfg.add_array("out", (1,), dt.float64)
    st = sdfg.add_state("s")
    st.add_mapped_tasklet(
        "red", {"i": (0, n - 1, 1)},
        {"a": Memlet("A", Range.from_string("i"))}, "o = a",
        {"o": Memlet("out", Range.from_string("0"), wcr="sum")})
    for state in sdfg.states():
        scope = state.scope_dict()
        for node in state.nodes():
            if isinstance(node, MapEntry) and scope.get(node) is None:
                node.map.schedule = ScheduleType.CPU_Multicore
    return sdfg


class _Machine:
    """Stand-in SDFG for boundary calls: states s0, s1, ... by index."""

    class _State:
        def __init__(self, label):
            self.label = label

    def __init__(self, n=4):
        self._states = [self._State(f"s{i}") for i in range(n)]

    def topological_states(self):
        return self._states


def armed_budget():
    """The budget armed on the calling thread, or None."""
    ctx = context.current()
    return ctx.budget if ctx is not None else None


# ---------------------------------------------------------------------------
# Budget and ArmedBudget semantics
# ---------------------------------------------------------------------------

class TestBudget:
    def test_nonpositive_bounds_are_null(self):
        assert Budget().is_null
        assert Budget(deadline_s=0, max_bytes=0).is_null
        assert Budget(deadline_s=-1.0, max_bytes=-5).is_null
        assert not Budget(deadline_s=1.0).is_null
        assert not Budget(max_bytes=1).is_null

    def test_resolve_prefers_explicit_over_config(self):
        with Config.override(governor__deadline_s=9.0):
            assert Budget.resolve(Budget(deadline_s=2.0)).deadline_s == 2.0
            assert Budget.resolve(None).deadline_s == 9.0
        assert Budget.resolve(None).is_null  # defaults are off

    def test_per_rank_divides_memory_shares_deadline(self):
        b = Budget(deadline_s=4.0, max_bytes=1000).per_rank(4)
        assert b.deadline_s == 4.0 and b.max_bytes == 250
        assert Budget(deadline_s=4.0).per_rank(4).max_bytes is None

    def test_armed_null_budget_yields_none(self):
        with armed(None) as a:
            assert a is None and context.current() is None
        with armed(Budget()) as a:
            assert a is None and context.current() is None

    def test_armed_sets_and_restores_thread_local(self):
        assert context.current() is None
        with armed(Budget(deadline_s=60.0), program="p") as a:
            assert armed_budget() is a and a.program == "p"
            with armed(Budget(deadline_s=30.0), program="inner") as b:
                assert armed_budget() is b
            assert armed_budget() is a  # nesting restores
        assert context.current() is None

    def test_armed_keeps_the_rest_of_the_context(self):
        hook = lambda i, c, s: None  # noqa: E731
        outer = context.ExecutionContext(hook=hook, in_worker=True)
        with context.installed(outer):
            with armed(Budget(deadline_s=60.0)) as a:
                ctx = context.current()
                assert ctx.budget is a
                assert ctx.hook is hook and ctx.in_worker
            assert context.current() is outer and outer.budget is None

    def test_boundary_promotes_then_checks(self):
        m = _Machine()
        a = ArmedBudget(Budget(deadline_s=60.0), program="p")
        a.boundary(m, 0)
        assert a.last_state is None       # s0 only *entered*
        a.boundary(m, m.topological_states()[1])   # index or state object
        assert a.last_state == "s0"       # now s0 has completed
        a.boundary(m, 2)
        assert a.last_state == "s1"

    def test_expired_deadline_raises_at_tick(self):
        with armed(Budget(deadline_s=0.01), program="p") as a:
            a.boundary(_Machine(), 0)
            time.sleep(0.03)
            with pytest.raises(ExecutionTimeout) as ei:
                context.tick()
        err = ei.value
        assert err.program == "p" and err.deadline_s == 0.01
        assert err.elapsed_s >= 0.01
        json.dumps(err.to_dict())         # structured payload serializes

    def test_cancel_raises_at_next_boundary(self):
        m = _Machine()
        with armed(Budget(deadline_s=60.0), program="p") as a:
            a.boundary(m, 0)
            a.boundary(m, 1)
            a.cancel("operator request")
            with pytest.raises(ExecutionCancelled) as ei:
                a.boundary(m, 2)
        assert ei.value.reason == "operator request"
        assert ei.value.last_state == "s1"

    def test_adopt_carries_budget_across_threads(self):
        hit = []

        with armed(Budget(deadline_s=0.01), program="p"):
            time.sleep(0.03)
            dispatcher = context.current()

            def worker():
                assert context.current() is None  # fresh thread: no context
                with context.installed(context.worker_view(dispatcher)):
                    try:
                        context.tick()
                    except ExecutionTimeout:
                        hit.append(True)
                assert context.current() is None

            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
        assert hit == [True]

    def test_watchdog_flips_expired_without_a_tick(self):
        with armed(Budget(deadline_s=0.02), program="p") as a:
            deadline = time.monotonic() + 2.0
            while not a.expired:
                assert time.monotonic() < deadline, "watchdog never fired"
                time.sleep(0.005)


# ---------------------------------------------------------------------------
# deadlines end to end (acceptance criterion: both backends, 2x bound,
# last-completed state named)
# ---------------------------------------------------------------------------

class TestDeadlineEnforcement:
    DEADLINE = 0.25

    def test_compiled_timeout_within_bound_names_state(self):
        A = np.zeros(2000)
        slow_loop(A, 3)  # warm the compile caches outside the timed window
        start = time.perf_counter()
        with pytest.raises(ExecutionTimeout) as ei:
            slow_loop(A, 2_000_000, __budget=Budget(deadline_s=self.DEADLINE))
        elapsed = time.perf_counter() - start
        assert elapsed < 2 * self.DEADLINE + 0.25, elapsed
        assert ei.value.last_state is not None
        assert ei.value.program == "slow_loop"

    def test_interpreter_timeout_within_bound_names_state(self):
        A = np.zeros(2000)
        sdfg = slow_loop.to_sdfg()
        start = time.perf_counter()
        with pytest.raises(ExecutionTimeout) as ei:
            run_sdfg(sdfg, A=A, T=2_000_000,
                     budget=Budget(deadline_s=self.DEADLINE))
        elapsed = time.perf_counter() - start
        assert elapsed < 2 * self.DEADLINE + 0.25, elapsed
        assert ei.value.last_state is not None

    def test_config_budget_governs_ambiently(self):
        A = np.zeros(2000)
        slow_loop(A, 3)
        with Config.override(governor__deadline_s=0.05):
            with pytest.raises(ExecutionTimeout):
                slow_loop(A, 2_000_000)

    def test_timeout_is_a_terminal_failure_not_degraded(self):
        # the degrade chain must re-raise GovernorError instead of retrying
        # the timed-out run on a slower tier
        A = np.zeros(2000)
        slow_loop(A, 3)
        with Config.override(resilience__mode="degrade"):
            with pytest.raises(ExecutionTimeout):
                slow_loop(A, 2_000_000, __budget=Budget(deadline_s=0.1))
        recs = [r for r in slow_loop.failure_report.records
                if r.kind == "governor"]
        assert recs and recs[-1].action == "terminal-failure"

    def test_parallel_chunks_check_the_adopted_budget(self):
        def body(lo, hi, acc):
            pass

        with Config.override(device__cpu_threads=2, parallel__min_work=0):
            with armed(Budget(deadline_s=0.01), program="par"):
                time.sleep(0.03)
                with pytest.raises(ExecutionTimeout):
                    parallel.parallel_map(body, 0, 99, 1, 10**9, {})

    def test_timeout_emits_governor_instrumentation(self):
        with profile("t") as prof:
            with armed(Budget(deadline_s=0.01), program="p") as a:
                time.sleep(0.03)
                with pytest.raises(ExecutionTimeout):
                    a.check()
        assert prof.report().get("governor", "timeout:p") is not None

    def test_generous_budget_completes_and_is_correct(self):
        A = np.zeros(64)
        incr(A, __budget=Budget(deadline_s=60.0, max_bytes=1 << 30))
        np.testing.assert_array_equal(A, np.ones(64))


# ---------------------------------------------------------------------------
# memory admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_plan_prices_arguments_and_transients(self):
        sdfg = SDFG("planned")
        sdfg.add_array("A", (N,), dt.float64)
        sdfg.add_array("tmp", (N,), dt.float64, transient=True)
        sdfg.add_state("s")
        plan = admission.plan_memory(sdfg, {"N": 100}, threads=1)
        by_name = {i.name: i for i in plan.items}
        assert by_name["A"].kind == "argument" and by_name["A"].bytes == 800
        assert by_name["tmp"].kind == "transient" and by_name["tmp"].bytes == 800
        assert plan.peak_bytes == 1600

    def test_unevaluated_shapes_are_itemized_not_dropped(self):
        sdfg = SDFG("unbound")
        sdfg.add_array("A", (N,), dt.float64)
        sdfg.add_state("s")
        plan = admission.plan_memory(sdfg, {}, threads=1)  # N unbound
        (item,) = plan.items
        assert item.bytes == 0 and "unevaluated" in item.note

    def test_multicore_wcr_accumulators_priced_per_thread(self):
        sdfg = wcr_multicore_sdfg(400)
        plan4 = admission.plan_memory(sdfg, {}, threads=4)
        accums = plan4.by_kind("wcr-accumulator")
        assert len(accums) == 1 and accums[0].bytes == 8 * 4
        plan1 = admission.plan_memory(sdfg, {}, threads=1)
        assert not plan1.by_kind("wcr-accumulator")
        assert plan4.peak_bytes == plan1.peak_bytes + 32

    def test_rejection_is_itemized(self):
        A = np.zeros(64)
        with pytest.raises(MemoryBudgetExceeded) as ei:
            incr(A, __budget=Budget(max_bytes=8))
        err = ei.value
        assert "exceeds governor budget of 8 bytes" in str(err)
        assert any(i.name == "A" and i.bytes == 512 for i in err.plan.items)
        json.dumps(err.to_dict())
        np.testing.assert_array_equal(A, np.zeros(64))  # rejected untouched

    def test_degrade_to_serial_when_only_that_tier_fits(self):
        sdfg = wcr_multicore_sdfg(400)
        serial_peak = admission.plan_memory(sdfg, {}, threads=1).peak_bytes
        with Config.override(device__cpu_threads=4):
            decision = admission.admit(sdfg, {},
                                       Budget(max_bytes=serial_peak))
        assert decision.action == "degrade-serial"
        assert decision.plan.threads == 1
        assert decision.rejected is not None
        assert decision.rejected.peak_bytes > serial_peak

    def test_strict_mode_rejects_instead_of_degrading(self):
        sdfg = wcr_multicore_sdfg(400)
        serial_peak = admission.plan_memory(sdfg, {}, threads=1).peak_bytes
        with Config.override(device__cpu_threads=4,
                             governor__admission="strict"):
            with pytest.raises(MemoryBudgetExceeded):
                admission.admit(sdfg, {}, Budget(max_bytes=serial_peak))

    def test_run_sdfg_degrades_and_stays_correct(self):
        sdfg = wcr_multicore_sdfg(400)
        serial_peak = admission.plan_memory(sdfg, {}, threads=1).peak_bytes
        A = np.random.default_rng(0).random(400)
        out = np.zeros(1)
        parallel.reset_stats()
        with Config.override(device__cpu_threads=4, parallel__min_work=0):
            with profile("deg") as prof:
                run_sdfg(sdfg, A=A, out=out,
                         budget=Budget(max_bytes=serial_peak))
        np.testing.assert_allclose(out[0], A.sum())
        assert parallel.stats().parallel_regions == 0  # ran on the serial tier
        events = prof.report().by_category("governor")
        assert any(e.name.startswith("degrade-serial:") for e in events)

    def test_run_sdfg_rejects_oversized_program(self):
        sdfg = wcr_multicore_sdfg(400)
        A = np.zeros(400)
        out = np.zeros(1)
        with pytest.raises(MemoryBudgetExceeded):
            run_sdfg(sdfg, A=A, out=out, budget=Budget(max_bytes=16))


# ---------------------------------------------------------------------------
# circuit breakers
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def _trip(self, A, times=3):
        for _ in range(times):
            with pytest.raises(MemoryBudgetExceeded):
                incr(A, __budget=Budget(max_bytes=8))

    def test_three_failures_open_fast_fail_then_recover(self):
        A = np.zeros(64)
        with Config.override(governor__breaker_threshold=3,
                             governor__cooldown_s=0.1):
            self._trip(A)
            # open: even a generous budget fast-fails with cached history
            with pytest.raises(CircuitOpenError) as ei:
                incr(A, __budget=Budget(max_bytes=1 << 30))
            assert ei.value.failures == 3
            assert len(ei.value.history) == 3
            assert "MemoryBudgetExceeded" in ei.value.history[-1]["error"]
            time.sleep(0.12)
            # half-open probe succeeds and closes the circuit
            incr(A, __budget=Budget(max_bytes=1 << 30))
            (st,) = registry().circuits()
            assert st["state"] == "closed" and st["failures"] == 0

    def test_fast_fail_skips_compilation(self):
        A = np.zeros(64)
        with Config.override(governor__breaker_threshold=3,
                             governor__cooldown_s=60.0):
            self._trip(A)
            compiles = []
            orig = incr._compile
            incr._compile = lambda *a, **k: (compiles.append(1),
                                             orig(*a, **k))[1]
            try:
                with pytest.raises(CircuitOpenError):
                    incr(A, __budget=Budget(deadline_s=60.0,
                                            max_bytes=1 << 30))
            finally:
                del incr._compile
            assert compiles == []  # no re-parse, no recompile

    def test_fast_fails_do_not_count_as_failures(self):
        A = np.zeros(64)
        with Config.override(governor__breaker_threshold=3,
                             governor__cooldown_s=60.0):
            self._trip(A)
            for _ in range(2):
                with pytest.raises(CircuitOpenError):
                    incr(A, __budget=Budget(max_bytes=1 << 30))
            (st,) = registry().circuits()
            assert st["failures"] == 3  # unchanged by the fast-fails

    def test_half_open_failure_reopens(self):
        A = np.zeros(64)
        with Config.override(governor__breaker_threshold=3,
                             governor__cooldown_s=0.05):
            self._trip(A)
            time.sleep(0.06)
            # the probe itself fails -> straight back to open
            with pytest.raises(MemoryBudgetExceeded):
                incr(A, __budget=Budget(max_bytes=8))
            (st,) = registry().circuits()
            assert st["state"] == "open" and st["opens"] == 2

    def test_ungoverned_calls_bypass_the_breaker(self):
        A = np.zeros(64)
        with Config.override(governor__breaker_threshold=3,
                             governor__cooldown_s=60.0):
            self._trip(A)
            incr(A)  # no budget: flows, and correctness is preserved
        np.testing.assert_array_equal(A, np.ones(64))

    def test_transitions_emit_instrumentation(self):
        A = np.zeros(64)
        with Config.override(governor__breaker_threshold=2,
                             governor__cooldown_s=0.05):
            with profile("brk") as prof:
                self._trip(A, times=2)
                with pytest.raises(CircuitOpenError):
                    incr(A, __budget=Budget(max_bytes=1 << 30))
                time.sleep(0.06)
                incr(A, __budget=Budget(max_bytes=1 << 30))
        names = [e.name for e in prof.report().by_category("governor")]
        for prefix in ("breaker-open:", "breaker-fast-fail:",
                       "breaker-probe:", "breaker-close:"):
            assert any(n.startswith(prefix) for n in names), (prefix, names)


# ---------------------------------------------------------------------------
# one module for governed and plain runs: the budget is ticked by the state
# boundary every module already calls
# ---------------------------------------------------------------------------

class TestGovernedCodegen:
    def test_plain_module_has_no_tick(self):
        compiled = incr.compile(np.zeros(64))
        assert "__tick" not in compiled.source
        assert compiled.source.count("__boundary(") == 1

    def test_governed_module_ticks_at_state_boundaries(self):
        A = np.zeros(8)
        compiled = slow_loop.compile(A, 3)
        with armed(Budget(deadline_s=60.0), program="p") as a:
            compiled(A=A, T=3)
            ticked = a.last_state
        assert ticked is not None
        assert ticked in {s.label for s in compiled.sdfg.states()}

    def test_governed_and_plain_runs_share_one_cache_entry(self):
        from repro.cache import cache_key, stats

        sdfg = incr.to_sdfg()
        with pytest.raises(TypeError):
            cache_key(sdfg, govern=True)
        A = np.zeros(64)
        incr(A)
        modules, misses = len(incr._compiled_cache), stats().to_dict()["misses"]
        incr(A, __budget=Budget(deadline_s=60.0))
        assert len(incr._compiled_cache) == modules
        assert stats().to_dict()["misses"] == misses

    def test_governed_variant_is_correct(self):
        A = np.zeros(64)
        compiled = incr.compile(A)
        compiled(A=A)  # no budget armed: the boundary is a no-op
        np.testing.assert_array_equal(A, np.ones(64))
        with armed(Budget(deadline_s=60.0)):
            compiled(A=A)
        np.testing.assert_array_equal(A, np.full(64, 2.0))

    def test_same_module_times_out_under_an_expired_deadline(self):
        # the *same* CompiledSDFG object, ungoverned then governed
        A = np.zeros(16)
        compiled = slow_loop.compile(A, 3)
        compiled(A=A, T=3)
        np.testing.assert_array_equal(A, np.full(16, 1.5))
        with armed(Budget(deadline_s=0.05), program="late"):
            with pytest.raises(ExecutionTimeout) as ei:
                compiled(A=A, T=2_000_000)
        assert ei.value.program == "late"
        assert ei.value.last_state in {s.label for s in compiled.sdfg.states()}


class TestGovernorSweep:
    def test_single_case_sweep_is_fully_structured(self, tmp_path):
        from repro.governor.sweep import governor_sweep

        out = str(tmp_path / "GOVERNOR.json")
        report = governor_sweep(case_names=["gemm"], out=out, verbose=False)
        assert report["schema"] == "repro-governor/1"
        summary = report["summary"]
        assert summary["programs"] == 1 and summary["trials"] == 3
        assert summary["failed"] == 0 and summary["unstructured"] == 0
        assert summary["breaker_demo_ok"]
        with open(out) as fh:
            assert json.load(fh)["summary"] == summary

    def test_cli_exit_code(self, tmp_path):
        from repro.governor.__main__ import main

        out = str(tmp_path / "GOVERNOR.json")
        assert main(["sweep", "--cases", "gemm", "--out", out, "-q"]) == 0
