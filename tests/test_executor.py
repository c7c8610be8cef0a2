"""Unit tests for the reference interpreter (hand-built SDFGs)."""

import numpy as np
import pytest

import repro
from repro.ir import SDFG, InterstateEdge, Memlet
from repro.runtime.executor import ExecutionError, run_sdfg
from repro.runtime.wcr import WCR_IDENTITY, apply_wcr
from repro.symbolic import Symbol

N = Symbol("N")


class TestMaps:
    def test_elementwise_map(self):
        sdfg = SDFG("scale")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("B", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("m", {"i": "0:N"},
                                 {"__in": Memlet("A", "i")},
                                 "__out = __in + 1",
                                 {"__out": Memlet("B", "i")})
        A = np.arange(5, dtype=np.float64)
        B = np.zeros(5)
        run_sdfg(sdfg, A=A, B=B)
        assert np.allclose(B, A + 1)

    def test_2d_map_transpose(self):
        sdfg = SDFG("t")
        sdfg.add_array("A", (N, N), repro.float64)
        sdfg.add_array("B", (N, N), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("m", {"i": "0:N", "j": "0:N"},
                                 {"__in": Memlet("A", "j, i")},
                                 "__out = __in",
                                 {"__out": Memlet("B", "i, j")})
        A = np.arange(9, dtype=np.float64).reshape(3, 3)
        B = np.zeros((3, 3))
        run_sdfg(sdfg, A=A, B=B)
        assert np.allclose(B, A.T)

    def test_empty_range_map(self):
        sdfg = SDFG("empty")
        sdfg.add_array("A", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("m", {"i": "2:2"},
                                 {"__in": Memlet("A", "i")},
                                 "__out = 99.0",
                                 {"__out": Memlet("A", "i")})
        A = np.ones(4)
        run_sdfg(sdfg, A=A)
        assert np.allclose(A, 1)

    def test_wcr_sum_reduction(self):
        sdfg = SDFG("red")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_scalar("out", repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("m", {"i": "0:N"},
                                 {"__v": Memlet("A", "i")}, "__out = __v",
                                 {"__out": Memlet("out", "0", wcr="sum")})
        A = np.arange(6, dtype=np.float64)
        result = np.zeros(1)
        containers, symbols = {}, {}
        run_sdfg(sdfg, A=A, out=0.0)

    def test_wcr_max(self):
        sdfg = SDFG("redmax")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("out", (1,), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("m", {"i": "0:N"},
                                 {"__v": Memlet("A", "i")}, "__out = __v",
                                 {"__out": Memlet("out", "0", wcr="max")})
        A = np.array([3.0, 9.0, 1.0])
        out = np.full(1, -np.inf)
        run_sdfg(sdfg, A=A, out=out)
        assert out[0] == 9.0


class TestTaskletCode:
    def test_mapped_tasklet_compiles_once(self, monkeypatch):
        """The interpreter compiles a tasklet's code once, not per point."""
        from repro.runtime import executor

        calls = []

        def counting_compile(*args, **kwargs):
            calls.append(args[0])
            return compile(*args, **kwargs)

        executor._tasklet_code.cache_clear()
        monkeypatch.setattr(executor, "compile", counting_compile,
                            raising=False)
        sdfg = SDFG("compile_once")
        sdfg.add_array("A", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("m", {"i": "0:N"}, {},
                                 "__out = 0.5 * i + 0.25",
                                 {"__out": Memlet("A", "i")})
        A = np.zeros(64)
        run_sdfg(sdfg, A=A)
        np.testing.assert_array_equal(A, 0.5 * np.arange(64) + 0.25)
        assert calls == ["__out = 0.5 * i + 0.25"]


class TestControlFlow:
    def _loop_sdfg(self):
        sdfg = SDFG("loop")
        sdfg.add_array("C", (N,), repro.float64)
        sdfg.add_symbol("i")
        init = sdfg.add_state("init", is_start_state=True)
        guard = sdfg.add_state("guard")
        body = sdfg.add_state("body")
        end = sdfg.add_state("end")
        sdfg.add_edge(init, guard, InterstateEdge(assignments={"i": "0"}))
        sdfg.add_edge(guard, body, InterstateEdge("i < N"))
        sdfg.add_edge(body, guard, InterstateEdge(assignments={"i": "i + 1"}))
        sdfg.add_edge(guard, end, InterstateEdge("i >= N"))
        tasklet = body.add_tasklet("inc", {"__in"}, {"__out"},
                                   "__out = __in + i")
        body.add_edge(body.add_read("C"), None, tasklet, "__in", Memlet("C", "i"))
        body.add_edge(tasklet, "__out", body.add_write("C"), None, Memlet("C", "i"))
        return sdfg

    def test_loop_executes_n_times(self):
        sdfg = self._loop_sdfg()
        C = np.zeros(5)
        run_sdfg(sdfg, C=C, N=5)
        assert np.allclose(C, np.arange(5))

    def test_zero_trip_loop(self):
        sdfg = self._loop_sdfg()
        C = np.zeros(0)
        run_sdfg(sdfg, C=C, N=0)

    def test_branch_on_scalar_container(self):
        sdfg = SDFG("branch")
        sdfg.add_scalar("x", repro.float64)
        sdfg.add_array("out", (1,), repro.float64)
        start = sdfg.add_state()
        then = sdfg.add_state()
        other = sdfg.add_state()
        sdfg.add_edge(start, then, InterstateEdge("x > 0"))
        sdfg.add_edge(start, other, InterstateEdge("x <= 0"))
        for state, value in ((then, "1.0"), (other, "-1.0")):
            tasklet = state.add_tasklet("w", set(), {"__out"}, f"__out = {value}")
            state.add_edge(tasklet, "__out", state.add_write("out"), None,
                           Memlet("out", "0"))
        out = np.zeros(1)
        run_sdfg(sdfg, x=5.0, out=out)
        assert out[0] == 1.0
        run_sdfg(sdfg, x=-5.0, out=out)
        assert out[0] == -1.0


class TestCopiesAndArguments:
    def test_subset_copy_with_other_subset(self):
        sdfg = SDFG("copy")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("B", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_nedge(state.add_read("A"), state.add_write("B"),
                        Memlet("A", "0:4", other_subset="2:6"))
        A = np.arange(8, dtype=np.float64)
        B = np.zeros(8)
        run_sdfg(sdfg, A=A, B=B)
        assert np.allclose(B[2:6], A[0:4])
        assert B[0] == 0 and B[6] == 0

    def test_dtype_mismatch_rejected(self):
        sdfg = SDFG("typed")
        sdfg.add_array("A", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_access("A")
        with pytest.raises(ExecutionError):
            run_sdfg(sdfg, A=np.zeros(4, dtype=np.float32))

    def test_missing_argument(self):
        sdfg = SDFG("missing")
        sdfg.add_array("A", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_access("A")
        with pytest.raises(ExecutionError):
            run_sdfg(sdfg, N=4)

    def test_unknown_argument(self):
        sdfg = SDFG("unknown")
        sdfg.add_state()
        with pytest.raises(ExecutionError):
            run_sdfg(sdfg, bogus=1)

    def test_inconsistent_symbol(self):
        sdfg = SDFG("sym")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("B", (N,), repro.float64)
        sdfg.add_state()
        with pytest.raises(ExecutionError):
            run_sdfg(sdfg, A=np.zeros(3), B=np.zeros(4))

    def test_shape_expression_verified(self):
        sdfg = SDFG("expr")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("B", (N + 2,), repro.float64)
        sdfg.add_state()
        with pytest.raises(ExecutionError):
            run_sdfg(sdfg, A=np.zeros(4), B=np.zeros(4))


class TestWCRPrimitives:
    @pytest.mark.parametrize("wcr,expected", [
        ("sum", 7.0), ("prod", 12.0), ("min", 3.0), ("max", 4.0)])
    def test_apply_wcr_scalar(self, wcr, expected):
        storage = np.array([3.0])
        apply_wcr(storage, 0, 4.0, wcr)
        assert storage[0] == expected

    def test_identity_elements(self):
        assert WCR_IDENTITY["sum"] == 0.0
        assert WCR_IDENTITY["prod"] == 1.0
        assert WCR_IDENTITY["min"] == float("inf")

    def test_apply_wcr_repeated_indices(self):
        """ufunc.at semantics: repeated indices accumulate."""
        storage = np.zeros(3)
        apply_wcr(storage, np.array([0, 0, 1]), np.array([1.0, 2.0, 5.0]), "sum")
        assert np.allclose(storage, [3.0, 5.0, 0.0])


class TestStreams:
    def test_stream_fifo_semantics(self):
        sdfg = SDFG("stream")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("B", (N,), repro.float64)
        sdfg.add_stream("fifo", repro.float64)
        push = sdfg.add_state("push")
        pop = sdfg.add_state_after(push, "pop")
        push.add_mapped_tasklet("p", {"i": "0:N"},
                                {"__in": Memlet("A", "i")}, "__out = __in",
                                {"__out": Memlet("fifo", "0")})
        pop.add_mapped_tasklet("q", {"i": "0:N"},
                               {"__in": Memlet("fifo", "0")}, "__out = __in",
                               {"__out": Memlet("B", "i")})
        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        run_sdfg(sdfg, A=A, B=B)
        assert np.allclose(B, A)  # FIFO order preserved


class TestInferSymbolErrors:
    """Error paths of symbol inference (static symbolic typing, §2.3)."""

    def _sdfg(self, shapes):
        sdfg = SDFG("sym")
        for name, shape in shapes.items():
            sdfg.add_array(name, shape, repro.float64)
        sdfg.add_state("s0")
        return sdfg

    def test_rank_mismatch(self):
        from repro.runtime.executor import infer_symbols

        sdfg = self._sdfg({"A": (N,)})
        with pytest.raises(ExecutionError, match="dimensions"):
            infer_symbols(sdfg, {"A": np.zeros((2, 2))})

    def test_inconsistent_symbol_bindings(self):
        from repro.runtime.executor import infer_symbols

        sdfg = self._sdfg({"A": (N,), "B": (N,)})
        with pytest.raises(ExecutionError, match="inconsistent value for symbol N"):
            infer_symbols(sdfg, {"A": np.zeros(3), "B": np.zeros(4)})

    def test_composite_dimension_mismatch(self):
        from repro.runtime.executor import infer_symbols

        sdfg = self._sdfg({"A": (N, N * 2)})
        with pytest.raises(ExecutionError, match="evaluates to"):
            infer_symbols(sdfg, {"A": np.zeros((3, 5))})

    def test_composite_dimension_match(self):
        from repro.runtime.executor import infer_symbols

        sdfg = self._sdfg({"A": (N, N * 2)})
        assert infer_symbols(sdfg, {"A": np.zeros((3, 6))}) == {"N": 3}

    def test_rank_mismatch_surfaces_through_run_sdfg(self):
        sdfg = self._sdfg({"A": (N,)})
        with pytest.raises(ExecutionError, match="dimensions"):
            run_sdfg(sdfg, A=np.zeros((2, 2)))


class TestScalarSymbolBinding:
    """Free symbols supplied as integer scalar arguments must bind
    (shape-less programs have no shape to infer them from)."""

    def _shapeless(self):
        sdfg = SDFG("shapeless")
        sdfg.add_scalar("N", repro.int32)
        sdfg.add_array("T", (N,), repro.float64, transient=True)
        sdfg.add_array("out", (1,), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("fill", {"i": "0:N"},
                                 {}, "__out = 1.0 * i",
                                 {"__out": Memlet("T", "i")})
        state2 = sdfg.add_state_after(state)
        state2.add_mapped_tasklet("sum", {"i": "0:N"},
                                  {"__v": Memlet("T", "i")}, "__out = __v",
                                  {"__out": Memlet("out", "0", wcr="sum")})
        return sdfg

    def test_scalar_argument_binds_symbol(self):
        from repro.runtime.executor import infer_symbols

        sdfg = self._shapeless()
        env = infer_symbols(sdfg, {"N": np.array([5], dtype=np.int32)})
        assert env == {"N": 5}

    def test_shapeless_program_executes(self):
        # only the scalar argument N can size the transient and map range
        sdfg = self._shapeless()
        out = np.zeros(1)
        run_sdfg(sdfg, N=5, out=out)
        assert out[0] == sum(range(5))

    def test_scalar_conflicts_with_shape_binding(self):
        sdfg = SDFG("conflict")
        sdfg.add_scalar("N", repro.int32)
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_state()
        with pytest.raises(ExecutionError,
                           match="shape-derived 4 vs scalar argument 7"):
            run_sdfg(sdfg, N=7, A=np.zeros(4))

    def test_matching_scalar_and_shape_accepted(self):
        sdfg = SDFG("agree")
        sdfg.add_scalar("N", repro.int32)
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_state()
        run_sdfg(sdfg, N=4, A=np.zeros(4))  # must not raise

    def test_non_integer_scalar_does_not_bind(self):
        from repro.runtime.executor import infer_symbols

        sdfg = SDFG("floaty")
        sdfg.add_scalar("alpha", repro.float64)
        sdfg.add_state()
        env = infer_symbols(sdfg, {"alpha": np.array([2.5])})
        assert env == {}


class _ThroughTheArtifact:
    """Reruns the inherited binding tests, bodies unchanged, against the
    artifact's spelling of the one implementation: ``compile_sdfg(sdfg)(...)``
    stands in for ``run_sdfg(sdfg, ...)`` and its convention's ``infer`` for
    ``infer_symbols`` (DESIGN.md §16)."""

    @pytest.fixture(autouse=True)
    def _artifact_spelling(self, monkeypatch):
        from repro.codegen import compile_sdfg
        from repro.runtime import executor

        monkeypatch.setitem(
            globals(), "run_sdfg", lambda sdfg, *args, **kwargs:
            compile_sdfg(sdfg, cache=False)(*args, **kwargs))
        monkeypatch.setattr(
            executor, "infer_symbols", lambda sdfg, containers:
            compile_sdfg(sdfg, cache=False).convention.infer(containers))


class TestCopiesAndArgumentsCompiled(_ThroughTheArtifact,
                                     TestCopiesAndArguments):
    pass


class TestInferSymbolErrorsCompiled(_ThroughTheArtifact,
                                    TestInferSymbolErrors):
    pass


class TestScalarSymbolBindingCompiled(_ThroughTheArtifact,
                                      TestScalarSymbolBinding):
    def test_shapeless_program_executes(self):
        from repro.codegen import compile_sdfg

        compiled = compile_sdfg(self._shapeless(), cache=False)
        containers, symbols = compiled.convention.bind(
            (), {"N": 5, "out": np.zeros(1)})
        assert symbols == {"N": 5} and containers["N"][0] == 5
        out = np.zeros(1)
        compiled(N=5, out=out)
        assert out[0] == 10
