"""Tests for the SDFG sanitizer: static race/bounds analysis, runtime
guards, the differential-testing oracle with pass bisection, and the
static gate wired into the transactional transformation machinery."""

import json

import numpy as np
import pytest

import repro
from repro.config import Config
from repro.ir import SDFG, AccessNode, Memlet, Tasklet
from repro.ir.validation import collect_validation_errors
from repro.runtime.executor import run_sdfg
from repro.runtime.wcr import WCR_APPLY
from repro.sanitizer import (IN_BOUNDS, OUT_OF_BOUNDS, RACE, RACE_FREE,
                             UNPROVED, SanitizerError, check_bounds,
                             check_races, static_issue_keys)
from repro.sanitizer import guards
from repro.sanitizer.races import analyze_map
from repro.symbolic import Symbol

N = Symbol("N")


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------

def elementwise_sdfg(rng="0:N", out_subset="i"):
    sdfg = SDFG("elementwise")
    sdfg.add_array("A", (N,), repro.float64)
    sdfg.add_array("B", (N,), repro.float64)
    state = sdfg.add_state("s0")
    state.add_mapped_tasklet(
        "scale", {"i": rng},
        {"__in": Memlet("A", "i")}, "__out = 2 * __in",
        {"__out": Memlet("B", out_subset)})
    return sdfg


def reduction_sdfg(wcr):
    """Map over 0:8 accumulating (or plainly writing) into B[0]."""
    sdfg = SDFG("reduce")
    sdfg.add_array("A", (8,), repro.float64)
    sdfg.add_array("B", (1,), repro.float64)
    state = sdfg.add_state("s0")
    state.add_mapped_tasklet(
        "acc", {"i": "0:8"},
        {"__in": Memlet("A", "i")}, "__out = __in",
        {"__out": Memlet("B", "0", wcr=wcr)})
    return sdfg


def single_map_verdict(sdfg):
    verdicts = check_races(sdfg)
    assert len(verdicts) == 1
    return verdicts[0]


# ---------------------------------------------------------------------------
# static race detection
# ---------------------------------------------------------------------------

class TestRaceDetector:
    def test_elementwise_map_race_free(self):
        assert single_map_verdict(elementwise_sdfg()).verdict == RACE_FREE

    @pytest.mark.parametrize("wcr", sorted(WCR_APPLY))
    def test_every_wcr_op_race_free(self, wcr):
        # satellite: every runtime WCR reduction op must be proven safe
        verdict = single_map_verdict(reduction_sdfg(wcr))
        assert verdict.verdict == RACE_FREE
        assert verdict.conflicts == []

    def test_same_map_without_wcr_is_race(self):
        verdict = single_map_verdict(reduction_sdfg(None))
        assert verdict.verdict == RACE
        assert any(c.kind == "self" for c in verdict.conflicts)

    def test_injected_write_write_conflict(self):
        sdfg = SDFG("dual_writer")
        sdfg.add_array("A", (8,), repro.float64)
        sdfg.add_array("B", (8,), repro.float64)
        state = sdfg.add_state("s0")
        state.add_mapped_tasklet(
            "dup", {"i": "0:8"},
            {"__in": Memlet("A", "i")}, "__o1 = __in\n__o2 = -__in",
            {"__o1": Memlet("B", "i"), "__o2": Memlet("B", "i")})
        verdict = single_map_verdict(sdfg)
        assert verdict.verdict == RACE
        assert any(c.kind == "write-write" for c in verdict.conflicts)

    def test_stencil_shift_read_write_race(self):
        sdfg = SDFG("shift")
        sdfg.add_array("B", (9,), repro.float64)
        state = sdfg.add_state("s0")
        state.add_mapped_tasklet(
            "sh", {"i": "0:8"},
            {"__in": Memlet("B", "i + 1")}, "__out = __in",
            {"__out": Memlet("B", "i")})
        verdict = single_map_verdict(sdfg)
        assert verdict.verdict == RACE
        assert any(c.kind == "read-write" for c in verdict.conflicts)

    def test_dynamic_write_unproved(self):
        sdfg = SDFG("dynamic")
        sdfg.add_array("A", (8,), repro.float64)
        sdfg.add_array("B", (8,), repro.float64)
        state = sdfg.add_state("s0")
        state.add_mapped_tasklet(
            "dyn", {"i": "0:8"},
            {"__in": Memlet("A", "i")}, "__out = __in",
            {"__out": Memlet("B", "i", dynamic=True)})
        assert single_map_verdict(sdfg).verdict == UNPROVED

    @pytest.mark.parametrize("name", ["atax", "bicg", "gemm", "mvt"])
    def test_corpus_native_reductions_race_free(self, name):
        # acceptance: all WCR-based reductions in the corpus prove race-free
        from repro.bench import registry

        bench = registry.get(name)
        sdfg = bench.program.to_sdfg().clone()
        sdfg.simplify()
        sdfg.expand_library_nodes(implementation="native")
        wcr_maps = 0
        from repro.ir.nodes import MapEntry

        for state in sdfg.states():
            for node in state.nodes():
                if not isinstance(node, MapEntry):
                    continue
                verdict = analyze_map(state, node, sdfg)
                writes_wcr = any(
                    e.memlet is not None and e.memlet.wcr is not None
                    for e in state.in_edges(node.exit_node))
                if writes_wcr:
                    wcr_maps += 1
                assert verdict.verdict == RACE_FREE, (
                    f"{name}/{node.map.label}: {verdict.conflicts}")
        assert wcr_maps >= 1, f"{name}: native expansion produced no WCR maps"


# ---------------------------------------------------------------------------
# static bounds checking
# ---------------------------------------------------------------------------

class TestBoundsChecker:
    def test_elementwise_all_in_bounds(self):
        verdicts = check_bounds(elementwise_sdfg())
        assert verdicts and all(v.verdict == IN_BOUNDS for v in verdicts)

    def test_provable_out_of_bounds(self):
        sdfg = SDFG("oob")
        sdfg.add_array("A", (4,), repro.float64)
        sdfg.add_array("B", (8,), repro.float64)
        state = sdfg.add_state("s0")
        state.add_mapped_tasklet(
            "over", {"i": "0:8"},
            {"__in": Memlet("A", "i")}, "__out = __in",
            {"__out": Memlet("B", "i")})
        oob = [v for v in check_bounds(sdfg) if v.verdict == OUT_OF_BOUNDS]
        assert oob and all(v.container == "A" for v in oob)

    def test_unbounded_symbol_unproved(self):
        sdfg = SDFG("symidx")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("b", (1,), repro.float64)
        state = sdfg.add_state("s0")
        read = state.add_access("A")
        write = state.add_access("b")
        tasklet = state.add_tasklet("pick", {"__in"}, {"__out"},
                                    "__out = __in")
        state.add_edge(read, None, tasklet, "__in", Memlet("A", "S"))
        state.add_edge(tasklet, "__out", write, None, Memlet("b", "0"))
        verdicts = {v.subset: v.verdict for v in check_bounds(sdfg)}
        assert verdicts["S"] == UNPROVED

    def test_oob_feeds_collect_validation_errors(self):
        sdfg = SDFG("oob_collect")
        sdfg.add_array("A", (4,), repro.float64)
        sdfg.add_array("B", (8,), repro.float64)
        state = sdfg.add_state("s0")
        state.add_mapped_tasklet(
            "over", {"i": "0:8"},
            {"__in": Memlet("A", "i")}, "__out = __in",
            {"__out": Memlet("B", "i")})
        errors = collect_validation_errors(sdfg)
        assert any("provably out of bounds" in str(e) for e in errors)
        # ... but plain validation stays structural: the graph is well-formed
        sdfg.validate()


# ---------------------------------------------------------------------------
# validation satellites: full collection + symmetric connector checks
# ---------------------------------------------------------------------------

class TestValidationSatellites:
    def test_collects_multiple_faults_in_one_state(self):
        sdfg = SDFG("multi_fault")
        state = sdfg.add_state("s0")
        state.add_node(AccessNode("ghost1"))
        state.add_node(AccessNode("ghost2"))
        state.add_node(Tasklet("t", set(), set(), ""))
        errors = collect_validation_errors(sdfg)
        messages = " ".join(str(e) for e in errors)
        assert len(errors) == 3
        assert "ghost1" in messages and "ghost2" in messages
        assert "empty code" in messages

    def test_mapexit_out_connector_prefix_checked(self):
        from repro.symbolic import Range

        sdfg = SDFG("bad_exit_conn")
        sdfg.add_state("s0")
        state = next(iter(sdfg.states()))
        _entry, exit_ = state.add_map("m", ["i"], Range([(0, 7, 1)]))
        exit_.add_out_connector("B_out")  # wrong: must be OUT_*
        errors = collect_validation_errors(sdfg)
        assert any("must start with OUT_" in str(e) for e in errors)

    def test_scope_connector_pairing_checked(self):
        from repro.symbolic import Range

        sdfg = SDFG("unpaired_conn")
        sdfg.add_state("s0")
        state = next(iter(sdfg.states()))
        entry, exit_ = state.add_map("m", ["i"], Range([(0, 7, 1)]))
        entry.add_in_connector("IN_A")    # no matching OUT_A
        exit_.add_out_connector("OUT_B")  # no matching IN_B
        messages = " ".join(str(e) for e in collect_validation_errors(sdfg))
        assert "IN_A has no matching OUT_A" in messages
        assert "OUT_B has no matching IN_B" in messages

    def test_validate_still_raises_first_error(self):
        from repro.ir.validation import InvalidSDFGError

        sdfg = SDFG("multi_fault2")
        state = sdfg.add_state("s0")
        state.add_node(AccessNode("ghost1"))
        state.add_node(AccessNode("ghost2"))
        with pytest.raises(InvalidSDFGError, match="ghost1"):
            sdfg.validate()


# ---------------------------------------------------------------------------
# runtime guards
# ---------------------------------------------------------------------------

class TestGuardPrimitives:
    def test_parse_modes(self):
        assert guards.parse_modes(None) == frozenset()
        assert guards.parse_modes("off") == frozenset()
        assert guards.parse_modes(True) == frozenset(guards.GUARD_MODES)
        assert guards.parse_modes("bounds,nan") == frozenset({"bounds", "nan"})
        with pytest.raises(ValueError):
            guards.parse_modes("bounds,telepathy")

    def test_check_index_raises_outside_shape(self):
        with pytest.raises(SanitizerError) as info:
            guards.check_index("A", (4,), (4,))
        assert info.value.kind == "bounds"
        with pytest.raises(SanitizerError):
            guards.check_index("A", (4, 4), (slice(0, 4), slice(2, 6)))
        guards.check_index("A", (4,), (3,))  # in bounds: no raise

    def test_check_value_raises_on_nonfinite(self):
        with pytest.raises(SanitizerError) as info:
            guards.check_value("B", float("inf"))
        assert info.value.kind == "nan"
        guards.check_value("B", 1.5)
        guards.check_value("B", np.arange(3))  # ints: never flagged

    def test_guards_inactive_by_default(self):
        assert guards._ACTIVE is None
        # fast path: no exception even for a wildly bad access
        guards.guard_read("A", np.zeros(2), (99,))

    def test_sanitize_context_restores_state(self):
        with guards.sanitize("bounds", program="p"):
            assert guards._ACTIVE is not None
            assert guards._ACTIVE.modes == frozenset({"bounds"})
        assert guards._ACTIVE is None


class TestInterpreterGuards:
    def test_nan_guard_raises(self):
        sdfg = SDFG("poison")
        sdfg.add_array("A", (4,), repro.float64)
        sdfg.add_array("B", (4,), repro.float64)
        state = sdfg.add_state("s0")
        state.add_mapped_tasklet(
            "div", {"i": "0:4"},
            {"__in": Memlet("A", "i")}, "__out = __in / 0.0",
            {"__out": Memlet("B", "i")})
        with guards.sanitize("nan", program="poison"):
            with pytest.raises(SanitizerError) as info:
                with np.errstate(divide="ignore"):
                    run_sdfg(sdfg, A=np.ones(4), B=np.zeros(4))
        assert info.value.kind == "nan"

    def test_bounds_guard_raises(self):
        sdfg = SDFG("overrun")
        sdfg.add_array("A", (4,), repro.float64)
        sdfg.add_array("B", (8,), repro.float64)
        state = sdfg.add_state("s0")
        state.add_mapped_tasklet(
            "over", {"i": "0:8"},
            {"__in": Memlet("A", "i")}, "__out = __in",
            {"__out": Memlet("B", "i")})
        with guards.sanitize("bounds", program="overrun"):
            with pytest.raises(SanitizerError) as info:
                run_sdfg(sdfg, A=np.zeros(4), B=np.zeros(8))
        assert info.value.kind == "bounds"
        assert info.value.container == "A"

    def test_guards_off_no_interference(self):
        sdfg = elementwise_sdfg()
        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        run_sdfg(sdfg, A=A, B=B, N=4)
        assert np.allclose(B, 2 * A)


class TestCompiledGuards:
    def test_plain_module_is_guard_free(self):
        from repro.codegen import compile_sdfg

        compiled = compile_sdfg(elementwise_sdfg())
        assert "__guard" not in compiled.source
        assert not compiled.sanitized

    def test_sanitized_module_checks_writes(self):
        from repro.codegen import compile_sdfg

        sdfg = SDFG("poisonc")
        sdfg.add_array("A", (4,), repro.float64)
        sdfg.add_array("B", (4,), repro.float64)
        state = sdfg.add_state("s0")
        state.add_mapped_tasklet(
            "div", {"i": "0:4"},
            {"__in": Memlet("A", "i")}, "__out = __in / 0.0",
            {"__out": Memlet("B", "i")})
        compiled = compile_sdfg(sdfg, sanitize=True)
        assert "__guard_write" in compiled.source
        with guards.sanitize("nan", program="poisonc"):
            with pytest.raises(SanitizerError):
                with np.errstate(divide="ignore"):
                    compiled(A=np.ones(4), B=np.zeros(4))
        # without an active guard context the hooks are no-ops
        with np.errstate(divide="ignore"):
            compiled(A=np.ones(4), B=np.zeros(4))


# ---------------------------------------------------------------------------
# @program integration + degrade chain
# ---------------------------------------------------------------------------

class TestProgramIntegration:
    def test_sanitize_kwarg_clean_run(self):
        @repro.program(sanitize="bounds,nan")
        def scale(A: repro.float64[8], B: repro.float64[8]):
            for i in repro.map[0:8]:
                B[i] = A[i] * 2.0

        A = np.arange(8, dtype=np.float64)
        B = np.zeros(8)
        scale(A, B)
        assert np.allclose(B, 2 * A)
        compiled = scale.compile()
        assert compiled.sanitized and "__guard" in compiled.source

    def test_off_by_default_compiles_guard_free(self):
        @repro.program
        def scale(A: repro.float64[8], B: repro.float64[8]):
            for i in repro.map[0:8]:
                B[i] = A[i] * 2.0

        compiled = scale.compile()
        assert "__guard" not in compiled.source
        assert guards._ACTIVE is None

    def test_config_key_enables_guards(self):
        @repro.program
        def scale(A: repro.float64[8], B: repro.float64[8]):
            for i in repro.map[0:8]:
                B[i] = A[i] * 2.0

        with Config.override(sanitize__mode="bounds,nan"):
            compiled = scale.compile()
            assert compiled.sanitized

    def test_sanitizer_error_triggers_degrade_chain(self):
        @repro.program(sanitize="nan")
        def poison(A: repro.float64[4], B: repro.float64[4]):
            for i in range(4):
                B[i] = A[i] / 0.0

        A = np.ones(4)
        B = np.zeros(4)
        with Config.override(resilience__mode="degrade"):
            with np.errstate(divide="ignore"), pytest.warns(RuntimeWarning):
                poison(A, B)
        # compiled and interpreter tiers both tripped the NaN guard; the
        # pure-Python tier (no guard hooks) completed the call
        stages = [a["stage"] for a in poison.last_attempts]
        assert stages == ["compiled", "interpreter", "python"]
        assert poison.last_attempts[-1]["ok"]
        errors = [r.error for r in poison.failure_report.degradations]
        assert errors and all(isinstance(e, SanitizerError) for e in errors)
        assert np.all(np.isinf(B))


# ---------------------------------------------------------------------------
# static gate on transactional transformation application
# ---------------------------------------------------------------------------

class _DropWCR:
    """A deliberately unsound 'optimization': strips WCR off every memlet
    (turning a safe reduction into a write-write race)."""

    name = "DropWCR"

    @classmethod
    def matches(cls, sdfg, **options):
        for state in sdfg.states():
            for edge in state.edges():
                if edge.memlet is not None and edge.memlet.wcr is not None:
                    yield edge

    @classmethod
    def apply_repeated(cls, sdfg, max_applications=None, **options):
        count = 0
        for edge in list(cls.matches(sdfg)):
            edge.memlet.wcr = None
            count += 1
        return count


def _wcr_edges(sdfg):
    return [e for state in sdfg.states() for e in state.edges()
            if e.memlet is not None and e.memlet.wcr is not None]


class TestTransactionalGate:
    def test_static_issue_keys(self):
        assert static_issue_keys(reduction_sdfg("sum")) == frozenset()
        keys = static_issue_keys(reduction_sdfg(None))
        assert any(k.startswith("race:") for k in keys)

    def test_race_introducing_pass_rolled_back(self):
        from repro.resilience import (FailureReport, ResilienceWarning,
                                      transactional_apply)

        sdfg = reduction_sdfg("sum")
        report = FailureReport()
        with pytest.warns(ResilienceWarning):
            applied = transactional_apply(sdfg, _DropWCR, report=report)
        assert applied == 0
        assert _wcr_edges(sdfg), "rollback must restore the WCR edges"
        assert len(report.transformation_failures) == 1
        assert isinstance(report.transformation_failures[0].error,
                          SanitizerError)

    def test_rollback_reinstates_the_remembered_issue_set(self, monkeypatch):
        # _DropWCR overrides apply_repeated, so nothing validates or checks
        # it per application: only the transaction's gate stands in its way
        from repro.resilience import ResilienceWarning
        from repro.transformations import pipeline

        analyses = []
        real = pipeline.static_issue_keys

        def counting(sdfg):
            analyses.append(sdfg.name)
            return real(sdfg)

        monkeypatch.setattr(pipeline, "static_issue_keys", counting)
        sdfg = reduction_sdfg("sum")
        txn = pipeline.PassTransaction(sdfg)
        with pytest.warns(ResilienceWarning, match="DropWCR"):
            assert txn.apply(_DropWCR) == 0
        assert _wcr_edges(sdfg)
        assert len(analyses) == 2              # baseline + after-check
        # the set the transaction now trusts is the restored graph's: no
        # third analysis, and it equals a fresh one
        assert txn.issues() == real(sdfg)
        assert len(analyses) == 2

    def test_nested_pass_not_blamed_for_its_step_bodys_own_race(
            self, monkeypatch):
        # the LoopToMap-step shape: change, simplify, change again, simplify
        # again.  The second simplify must analyse its own baseline (the
        # racy graph) rather than trust the set its predecessor left, or
        # its passes would be rolled back for a race they did not introduce.
        from repro.resilience import FailureReport, ResilienceWarning
        from repro.transformations import pipeline

        class AddMarker:
            name = "AddMarker"
            limit = 0

            @classmethod
            def matches(cls, sdfg, **options):
                if sum(n.startswith("__mark") for n in sdfg.arrays) < cls.limit:
                    yield True

            @classmethod
            def apply_repeated(cls, sdfg, max_applications=None, **options):
                sdfg.add_transient(f"__mark{cls.limit}", (1,), repro.float64)
                return 1

        monkeypatch.setattr(pipeline, "SIMPLIFY_TRANSFORMATIONS", [AddMarker])
        sdfg = reduction_sdfg("sum")
        report = FailureReport()
        txn = pipeline.PassTransaction(sdfg, report=report)

        def body():
            AddMarker.limit = 1
            applied = txn.simplify()
            for edge in _wcr_edges(sdfg):
                edge.memlet.wcr = None
            AddMarker.limit = 2
            return applied + txn.simplify()

        with pytest.warns(ResilienceWarning, match="step"):
            assert txn.run("step", body) == 0
        assert [(r.kind, r.subject) for r in report.records] == [
            ("optimization", "step")]
        assert _wcr_edges(sdfg) and "__mark1" not in sdfg.arrays

    def test_step_thunk_bypassing_apply_once_rolled_back(self):
        from repro.resilience import FailureReport, ResilienceWarning
        from repro.transformations.pipeline import PassTransaction

        sdfg = reduction_sdfg("sum")
        report = FailureReport()
        txn = PassTransaction(sdfg, report=report)

        def strip_wcr():  # counts nothing: assumed to have changed the graph
            for edge in _wcr_edges(sdfg):
                edge.memlet.wcr = None

        with pytest.warns(ResilienceWarning, match="strip"):
            assert txn.run("strip", strip_wcr) == 0
        assert _wcr_edges(sdfg), "rollback must restore the WCR edges"
        (record,) = report.records
        assert (record.kind, record.subject, record.action) == \
            ("optimization", "strip", "rolled-back")
        assert isinstance(record.error, SanitizerError)
        assert txn.issues() == static_issue_keys(sdfg) == frozenset()


# ---------------------------------------------------------------------------
# differential oracle + bisection
# ---------------------------------------------------------------------------

class TestOracle:
    def test_lazy_oracle_export_fresh_process(self):
        # regression: the PEP 562 hook must not recurse when the from-import
        # machinery probes the package for the not-yet-imported submodule
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.sanitizer import run_oracle, AUTOOPT_STEPS\n"
             "import repro.sanitizer\n"
             "assert repro.sanitizer.oracle.run_oracle is run_oracle\n"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr[-1000:]

    def test_tolerances(self):
        from repro.sanitizer.oracle import compare_values, tolerance_for

        assert tolerance_for(np.int64) == (0.0, 0.0)
        rtol32, _ = tolerance_for(np.float32)
        rtol64, _ = tolerance_for(np.float64)
        assert rtol64 < rtol32
        assert compare_values(np.ones(3), np.ones(3)) is None
        assert compare_values(np.ones(3), np.zeros(3)) is not None
        assert "shape" in compare_values(np.ones(3), np.ones(4))

    def test_generate_inputs_seeded(self):
        from repro.sanitizer.oracle import generate_inputs

        sdfg = elementwise_sdfg()
        one = generate_inputs(sdfg, {"N": 6}, seed=3)
        two = generate_inputs(sdfg, {"N": 6}, seed=3)
        other = generate_inputs(sdfg, {"N": 6}, seed=4)
        assert np.array_equal(one["A"], two["A"])
        assert not np.array_equal(one["A"], other["A"])
        assert one["A"].shape == (6,)

    def test_bisect_passes_names_breaker(self):
        from repro.sanitizer.oracle import bisect_passes

        def nop(obj):
            pass

        def breaker(obj):
            obj["v"] = 3

        steps = [("first", nop), ("breaker", breaker), ("last", nop)]
        culprit = bisect_passes(lambda: {"v": 2}, steps,
                                lambda obj: obj["v"] == 2)
        assert culprit == "breaker"
        assert bisect_passes(lambda: {"v": 2}, [("a", nop)],
                             lambda obj: True) is None
        assert bisect_passes(lambda: {"v": 3}, steps,
                             lambda obj: obj["v"] == 2) == "<base>"

    def test_run_oracle_ok(self):
        @repro.program
        def double(A: repro.float64[8], B: repro.float64[8]):
            for i in repro.map[0:8]:
                B[i] = A[i] * 2.0

        from repro.sanitizer.oracle import run_oracle

        report = run_oracle(double, seed=0)
        assert report.verdict == "ok", report.stages
        assert report.culprit is None

    def test_run_oracle_bisects_broken_transformation(self):
        @repro.program
        def double(A: repro.float64[8], B: repro.float64[8]):
            for i in repro.map[0:8]:
                B[i] = A[i] * 2.0

        from repro.sanitizer.oracle import run_oracle

        def miscompile(sdfg):
            # deliberately breaking 'transformation': rewrites the tasklet
            for state in sdfg.states():
                for node in state.nodes():
                    if isinstance(node, Tasklet):
                        node.code = node.code.replace("2.0", "3.0")

        steps = [("harmless", lambda s: None),
                 ("bad_rewrite", miscompile),
                 ("harmless_too", lambda s: None)]
        report = run_oracle(double, seed=0, steps=steps)
        assert report.verdict == "mismatch"
        assert report.culprit == "bad_rewrite"
        assert report.stages["compiled"] == "ok"


# ---------------------------------------------------------------------------
# CLI sweep
# ---------------------------------------------------------------------------

class TestSweepCLI:
    def test_sweep_writes_verdict_json(self, tmp_path):
        from repro.sanitizer.__main__ import SCHEMA, main

        out = tmp_path / "SANITIZER.json"
        rc = main(["--seed", "0", "--corpus", "gemm", "--output", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["schema"] == SCHEMA
        entry = document["programs"]["gemm"]
        assert entry["oracle"]["verdict"] == "ok"
        assert entry["races"]["counts"][RACE] == 0
        assert entry["races_native"]["counts"][RACE] == 0
        assert entry["bounds"]["counts"][OUT_OF_BOUNDS] == 0
        assert document["summary"]["races"] == 0
