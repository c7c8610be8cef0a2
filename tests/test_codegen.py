"""Tests for the Python code generator (S9): vectorized scopes must agree
with the reference interpreter, and artifacts must be usable."""

import json
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.codegen import compile_sdfg
from repro.codegen.pygen import affine_decompose
from repro.codegen.support import align_axes, dim_length, make_slice
from repro.runtime.executor import run_sdfg
from repro.symbolic import Integer, Symbol

N = repro.symbol("N")
M = repro.symbol("M")


class TestAffineDecompose:
    def test_constant(self):
        param, a, c = affine_decompose(Integer(5), ["i"])
        assert param is None and c == Integer(5)

    def test_pure_param(self):
        i = Symbol("i", nonnegative=False)
        param, a, c = affine_decompose(i, ["i"])
        assert param == "i" and a == Integer(1) and c == Integer(0)

    def test_affine(self):
        i = Symbol("i", nonnegative=False)
        param, a, c = affine_decompose(2 * i + 3, ["i"])
        assert (param, a, c) == ("i", Integer(2), Integer(3))

    def test_symbolic_offset(self):
        i = Symbol("i", nonnegative=False)
        param, a, c = affine_decompose(i + N, ["i"])
        assert param == "i" and c == N

    def test_two_params_rejected(self):
        i = Symbol("i", nonnegative=False)
        j = Symbol("j", nonnegative=False)
        assert affine_decompose(i + j, ["i", "j"]) is None

    def test_nonlinear_rejected(self):
        i = Symbol("i", nonnegative=False)
        assert affine_decompose(i * i, ["i"]) is None


class TestSupportHelpers:
    def test_make_slice_positive(self):
        assert make_slice(1, 2, 0, 4, 1) == slice(2, 7, 1)

    def test_make_slice_coefficient(self):
        assert make_slice(2, 0, 0, 3, 1) == slice(0, 7, 2)

    def test_make_slice_negative(self):
        arr = np.arange(10)
        sl = make_slice(-1, 9, 0, 9, 1)
        assert np.allclose(arr[sl], arr[::-1])

    def test_make_slice_empty_range_not_wrapped(self):
        # a triangular map dimension 0:i at i == 0 arrives as lo=0, hi=-1:
        # the range is empty.  Naive stop conversion gives slice(0, 0)
        # here, but one element earlier (hi=-2) it gives slice(0, -1) —
        # NumPy reads that from the end and selects almost everything
        arr = np.arange(10)
        for hi in (-1, -2, -3):
            assert arr[make_slice(1, 0, 0, hi, 1)].size == 0
        # same with a coefficient and an offset
        assert arr[make_slice(2, 1, 3, 1, 1)].size == 0

    def test_make_slice_descending_to_front(self):
        # descending to index 0: exclusive stop of inclusive 0 is None,
        # not -1 (which NumPy wraps to the last element)
        arr = np.arange(10)
        sl = make_slice(-1, 4, 0, 4, 1)
        assert np.allclose(arr[sl], [4, 3, 2, 1, 0])
        # descending empty range
        assert arr[make_slice(-1, 5, 0, -1, 1)].size == 0

    def test_make_slice_matches_gather_brute_force(self):
        # make_slice(a, c, lo, hi, st) must select exactly
        # [a*p + c for p in range(lo, hi+1, st)] — including empty ranges
        # (hi < lo) — whenever the indices are valid domain coordinates
        arr = np.arange(12)
        cases = [(a, c, lo, hi, st)
                 for a in (-2, -1, 1, 2)
                 for c in range(0, 9)
                 for (lo, hi, st) in [(0, 3, 1), (0, 4, 2), (1, 5, 2),
                                      (0, -1, 1), (0, -2, 1), (2, 0, 1)]]
        for a, c, lo, hi, st in cases:
            idx = [a * p + c for p in range(lo, hi + 1, st)]
            if not all(0 <= i < len(arr) for i in idx):
                continue
            got = arr[make_slice(a, c, lo, hi, st)]
            assert np.allclose(got, arr[idx]), (a, c, lo, hi, st)

    def test_min_max_array_safe(self):
        from repro.codegen.support import Max, Min

        v = np.arange(4.0)
        assert np.allclose(Min(v, 2.0), np.minimum(v, 2.0))
        assert np.allclose(Max(v, v[::-1], 1.5),
                           np.maximum(np.maximum(v, v[::-1]), 1.5))
        assert Min(3, 5) == 3 and Max(3, 5) == 5

    def test_dim_length(self):
        assert dim_length(0, 9, 1) == 10
        assert dim_length(2, 9, 3) == 3

    def test_align_axes_transpose(self):
        view = np.arange(6).reshape(2, 3)
        aligned = align_axes(view, [1, 0], 2)   # dims are (param1, param0)
        assert aligned.shape == (3, 2)
        assert np.allclose(aligned, view.T)

    def test_align_axes_expand(self):
        view = np.arange(3)
        aligned = align_axes(view, [1], 2)
        assert aligned.shape == (1, 3)


class TestGeneratedVsInterpreter:
    """The compiled module and the reference interpreter must agree."""

    def compare(self, prog, **arrays):
        sdfg = prog.to_sdfg()
        args_a = {k: np.copy(v) if isinstance(v, np.ndarray) else v
                  for k, v in arrays.items()}
        args_b = {k: np.copy(v) if isinstance(v, np.ndarray) else v
                  for k, v in arrays.items()}
        ret_a = compile_sdfg(sdfg)(**args_a)
        ret_b = run_sdfg(sdfg, **args_b)
        for key in arrays:
            if isinstance(arrays[key], np.ndarray):
                assert np.allclose(args_a[key], args_b[key]), key
        if ret_a is not None or ret_b is not None:
            assert np.allclose(ret_a, ret_b)

    def test_shifted_views(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[1:-1] = A[:-2] * 0.5 + A[2:] * 0.5

        self.compare(prog, A=np.random.default_rng(0).random(16),
                     B=np.zeros(16))

    def test_strided_access(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[0:N:2] = A[0:N:2] * 2.0

        self.compare(prog, A=np.arange(10, dtype=np.float64), B=np.zeros(10))

    def test_reversed_access(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = np.flip(A)

        self.compare(prog, A=np.arange(7, dtype=np.float64), B=np.zeros(7))

    def test_wcr_axis_reduction(self):
        @repro.program
        def prog(A: repro.float64[N, M], out: repro.float64[M]):
            out[:] = np.sum(A, axis=0)

        sdfg = prog.to_sdfg().clone()
        sdfg.expand_library_nodes(implementation="native")
        A = np.random.default_rng(1).random((5, 7))
        out_gen = np.zeros(7)
        out_int = np.zeros(7)
        compile_sdfg(sdfg)(A=A, out=out_gen)
        run_sdfg(sdfg, A=A, out=out_int)
        assert np.allclose(out_gen, A.sum(axis=0))
        assert np.allclose(out_int, out_gen)

    def test_map_parameter_code_falls_back(self):
        """Index-dependent tasklet code cannot vectorize but stays correct."""
        @repro.program
        def prog(B: repro.float64[N]):
            for i in repro.map[0:N]:
                B[i] = i * 2.0

        self.compare(prog, B=np.zeros(6))

    def test_vectorized_min_max_tasklet(self):
        """min/max over array operands inside a vectorized map scope."""
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N],
                 lo: repro.float64[N], hi: repro.float64[N]):
            for i in repro.map[0:N]:
                lo[i] = min(A[i], B[i], 0.5)
                hi[i] = max(A[i], B[i], 0.5)

        rng = np.random.default_rng(2)
        A, B = rng.random(12), rng.random(12)
        lo, hi = np.zeros(12), np.zeros(12)
        sdfg = prog.to_sdfg()
        compiled = compile_sdfg(sdfg)
        compiled(A=A, B=B, lo=lo, hi=hi)
        assert np.allclose(lo, np.minimum(np.minimum(A, B), 0.5))
        assert np.allclose(hi, np.maximum(np.maximum(A, B), 0.5))
        self.compare(prog, A=A, B=B, lo=np.zeros(12), hi=np.zeros(12))

    def test_reversal_descends_to_index_zero(self):
        """B[i] = A[N-1-i]: the vectorized read walks N-1 down to 0, so
        make_slice's exclusive stop crosses zero and must become None —
        a stop of -1 wraps to the last element and drops A[0]."""
        from repro.ir import SDFG, Memlet

        sdfg = SDFG("reversal")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("B", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("rev", {"i": "0:N"},
                                 {"__a": Memlet("A", "N - 1 - i")},
                                 "__out = __a",
                                 {"__out": Memlet("B", "i")})
        A = np.arange(6, dtype=np.float64)
        B_gen, B_int = np.zeros(6), np.zeros(6)
        compile_sdfg(sdfg)(A=A, B=B_gen)
        run_sdfg(sdfg, A=A, B=B_int)
        assert np.allclose(B_gen, A[::-1])
        assert np.allclose(B_int, A[::-1])

    def test_empty_triangular_map_dimension(self):
        """An inner map 0:K with K == 0 must execute zero iterations in the
        generated module, not a wrapped nearly-full slice."""
        from repro.ir import SDFG, Memlet

        K = repro.symbol("K")
        sdfg = SDFG("triangle")
        sdfg.add_array("A", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("m", {"i": "0:K"},
                                 {"__a": Memlet("A", "i")},
                                 "__out = __a + 1.0",
                                 {"__out": Memlet("A", "i")})
        A = np.arange(5, dtype=np.float64)
        expect = A.copy()
        compile_sdfg(sdfg)(A=A, K=0)
        assert np.allclose(A, expect)
        run_sdfg(sdfg, A=A, K=0)
        assert np.allclose(A, expect)
        compile_sdfg(sdfg)(A=A, K=3)
        expect[:3] += 1
        assert np.allclose(A, expect)

    def test_dynamic_indirection(self):
        @repro.program
        def prog(idx: repro.int64[N], out: repro.float64[M]):
            for i in repro.map[0:N]:
                out[idx[i]] += 1.0

        self.compare(prog, idx=np.array([0, 2, 2, 1], dtype=np.int64),
                     out=np.zeros(3))


class TestCompiledArtifacts:
    def test_source_is_python(self):
        @repro.program
        def prog(A: repro.float64[N]):
            A += 1.0

        compiled = compile_sdfg(prog.to_sdfg())
        compile(compiled.source, "<check>", "exec")  # must parse
        assert "__run" in compiled.source

    def test_state_visits_recorded(self):
        @repro.program
        def prog(A: repro.float64[N], T: repro.int32):
            for t in range(T):
                A += 1.0

        compiled = compile_sdfg(prog.to_sdfg())
        A = np.zeros(4)
        compiled(A=A, T=5)
        assert sum(compiled.last_state_visits.values()) >= 5

    def test_codegen_time_recorded(self):
        @repro.program
        def prog(A: repro.float64[N]):
            A += 1.0

        # bypass the compilation cache: a warm hit skips codegen entirely
        # (and reports codegen_seconds == 0.0, covered by the cache tests)
        compiled = compile_sdfg(prog.to_sdfg(), cache=False)
        assert compiled.codegen_seconds > 0

    def test_sdfgcc_cli(self, tmp_path):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 3.0

        sdfg_path = tmp_path / "prog.json"
        prog.to_sdfg().save(str(sdfg_path))
        out_path = tmp_path / "prog_gen.py"
        from repro.codegen.sdfgcc import main

        assert main([str(sdfg_path), "-o", str(out_path)]) == 0
        assert out_path.exists()
        compile(out_path.read_text(), "<cli>", "exec")

    def test_save_source(self, tmp_path):
        @repro.program
        def prog(A: repro.float64[N]):
            A *= 2.0

        compiled = compile_sdfg(prog.to_sdfg())
        path = tmp_path / "module.py"
        compiled.save_source(str(path))
        assert "def __run" in path.read_text()


# ---------------------------------------------------------------------------
# A loop body that reads an element and then overwrites it
# ---------------------------------------------------------------------------

def read_then_zero_plus(A: repro.float64[N], B: repro.float64[N]):
    for i in range(N):
        B[i] = A[i] + 1.0
        A[i] = 0.0


def read_then_zero(A: repro.float64[N], B: repro.float64[N]):
    for i in range(N):
        B[i] = A[i]
        A[i] = 0.0


def read_then_zero_rows(A: repro.float64[N, M], B: repro.float64[N, M]):
    for i in range(N):
        B[i, :] = A[i, :]
        A[i, :] = 0.0


READ_THEN_OVERWRITE = [
    (read_then_zero_plus, (7,), 1.0),
    (read_then_zero, (7,), 0.0),
    (read_then_zero_rows, (5, 3), 0.0),
]


class TestReadThenOverwrite:
    """After LoopToMap the body copies ``A[i]`` into a scope transient
    (a MapEntry -> AccessNode edge) before the overwrite of ``A[i]``; both
    backends must perform that copy."""

    @staticmethod
    def _inputs(shape):
        return np.arange(1.0, np.prod(shape) + 1).reshape(shape), np.zeros(shape)

    @pytest.mark.parametrize("func,shape,offset", READ_THEN_OVERWRITE)
    def test_compiled_optimized(self, func, shape, offset):
        A0, B = self._inputs(shape)
        A = A0.copy()
        repro.program(auto_optimize=True)(func)(A=A, B=B)
        np.testing.assert_array_equal(B, A0 + offset)
        np.testing.assert_array_equal(A, np.zeros(shape))

    @pytest.mark.parametrize("func,shape,offset", READ_THEN_OVERWRITE)
    def test_interpreter_optimized(self, func, shape, offset):
        from repro.autoopt import auto_optimize

        A0, B = self._inputs(shape)
        sdfg = auto_optimize(repro.program(func).to_sdfg().clone(), device="CPU")
        A = A0.copy()
        run_sdfg(sdfg, A=A, B=B)
        np.testing.assert_array_equal(B, A0 + offset)
        np.testing.assert_array_equal(A, np.zeros(shape))

    def test_interpreter_point_read_into_scalar(self):
        # unoptimized, ``A[i]`` is copied into a Scalar transient: the
        # one-element view must be stored as a scalar
        A0, B = self._inputs((7,))
        A = A0.copy()
        run_sdfg(repro.program(read_then_zero_plus).to_sdfg().clone(), A=A, B=B)
        np.testing.assert_array_equal(B, A0 + 1.0)
        np.testing.assert_array_equal(A, np.zeros(7))


# ---------------------------------------------------------------------------
# What the generated scope bodies write, and that it rounds as before
# ---------------------------------------------------------------------------

BITWISE_KERNELS = ["atax", "bicg", "mvt", "gemm", "k2mm", "k3mm", "covariance",
                   "gemver", "hdiff", "fdtd_2d"]


def _optimized_corpus_graph(name):
    from repro.autoopt import auto_optimize
    from repro.bench import registry

    bench = registry.get(name)
    sdfg = bench.program.to_sdfg(**bench.arguments("test")).clone()
    return bench, auto_optimize(sdfg, device="CPU")


@pytest.mark.parametrize("name", BITWISE_KERNELS)
def test_destination_writes_are_bitwise(name):
    """``out=`` stores, reused temporaries and bare names change no
    rounding: the compiled module equals the interpreter on the same
    optimized graph bit for bit, and the NumPy reference too where that held
    before (covariance's reference sums in another order)."""
    bench, sdfg = _optimized_corpus_graph(name)
    runs = []
    for run in (lambda **kw: compile_sdfg(sdfg.clone(), cache=False)(**kw),
                lambda **kw: run_sdfg(sdfg.clone(), **kw),
                bench.reference):
        args = bench.arguments("test")
        ret = run(**args)
        runs.append([args[o] for o in bench.outputs] if bench.outputs
                    else [np.asarray(ret)])
    compiled, interpreted, reference = runs
    for got, want in zip(compiled, interpreted):
        np.testing.assert_array_equal(got, want)
    if name != "covariance":
        for got, want in zip(compiled, reference):
            np.testing.assert_array_equal(got, want)


ARRAY_KERNELS = ["fdtd_2d", "hdiff", "gemver", "gemm"]


class TestEmissionCensus:
    """The serial modules of the four ``array_kernels`` programs (fdtd_2d,
    hdiff, gemver, gemm): straight line, destination writes, no
    whole-container copies."""

    @pytest.mark.parametrize("name", ARRAY_KERNELS)
    def test_single_thread_module(self, name):
        from repro.config import Config

        _bench, sdfg = _optimized_corpus_graph(name)
        with Config.override(device__cpu_threads=1):
            source = compile_sdfg(sdfg, cache=False).source
        assert "__par_map" not in source
        assert "def __par_body" not in source
        # every store is a destination write: out= or a direct assignment
        assert "store_aligned(" not in source
        assert "make_slice(1, 0, (0)" not in source
        if name == "gemver":
            calls = [line for line in source.splitlines()
                     if "np.outer(" in line or "np.matmul(" in line]
            assert len(calls) == 4
            assert all(", out=__tmp" in line for line in calls)

    def test_multi_thread_module_keeps_chunk_functions(self):
        from repro.config import Config

        _bench, sdfg = _optimized_corpus_graph("gemver")
        with Config.override(device__cpu_threads=4):
            source = compile_sdfg(sdfg, cache=False).source
        assert "__par_map" in source and "def __par_body" in source


#: corpus kernels with map scopes the vectorizer declines
LOOP_KERNELS = ["azimint_hist", "deriche", "doitgen", "gramschmidt",
                "histogram", "mandelbrot1", "mandelbrot2", "resnet",
                "softmax", "stockham_fft", "symm", "trmm"]


class TestLoopScopes:
    """A one-thread build emits every scope the vectorizer declines as a
    Python loop nest, with no interpreter closure left."""

    @staticmethod
    def _compile(sdfg):
        from repro.config import Config

        with Config.override(device__cpu_threads=1):
            return compile_sdfg(sdfg, cache=False)

    @pytest.mark.parametrize("name", LOOP_KERNELS)
    def test_matches_interpreter_bitwise(self, name):
        from repro.config import Config

        bench, sdfg = _optimized_corpus_graph(name)
        compiled = self._compile(sdfg.clone())
        assert not compiled.closure_specs
        runs = []
        with Config.override(device__cpu_threads=1):
            for run in (compiled, lambda **kw: run_sdfg(sdfg.clone(), **kw),
                        bench.reference):
                args = bench.arguments("test")
                ret = run(**args)
                runs.append([args[o] for o in bench.outputs] if bench.outputs
                            else [np.asarray(ret)])
        compiled_out, interpreted, reference = runs
        for got, want in zip(compiled_out, interpreted):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(compiled_out, reference):
            assert np.allclose(got, want, rtol=1e-8, atol=1e-8), name

    @pytest.mark.parametrize("name", ["doitgen"])
    def test_declined_scope_is_a_loop(self, name):
        _bench, sdfg = _optimized_corpus_graph(name)
        source = self._compile(sdfg).source
        assert "for " in source
        assert "__node" not in source
        # point dimensions index or slice directly (doitgen's A[r, q, :])
        assert "make_slice(" not in source and "np.squeeze(" not in source

    @pytest.mark.parametrize("mode,marker", [("instrument", "__prof_add('map'"),
                                             ("sanitize", "__guard_read(")])
    def test_instrumented_and_sanitized_loops(self, mode, marker):
        """The loop gets the vectorized scope's map timer, or keeps the
        inlined tasklets' guards, and still computes the reference."""
        from repro.config import Config

        bench, sdfg = _optimized_corpus_graph("softmax")
        with Config.override(device__cpu_threads=1):
            compiled = compile_sdfg(sdfg, cache=False, **{mode: True})
        assert marker in compiled.source and not compiled.closure_specs
        args, ref = bench.arguments("test"), bench.arguments("test")
        compiled(**args)
        bench.reference(**ref)
        assert np.allclose(args["out"], ref["out"], rtol=1e-8, atol=1e-8)

    def test_inner_scope_still_vectorizes(self):
        """symm's declined ``j`` scope holds two element-wise scopes over
        ``__i0``: they stay array statements inside the ``j`` loop."""
        _bench, sdfg = _optimized_corpus_graph("symm")
        source = self._compile(sdfg).source
        loops = [line.strip() for line in source.splitlines()
                 if line.strip().startswith("for ")]
        assert len(loops) == 1 and "_j in range(N)" in loops[0]
        assert "np.add(" in source and "out=C[" in source

    def test_loop_variable_keeps_symbol(self):
        """A map parameter named like a symbol a later state reads: the
        loop variable is renamed, and the symbol keeps its value."""
        from repro.ir import SDFG, InterstateEdge, Memlet

        sdfg = SDFG("shadow")
        sdfg.add_symbol("i")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("out", (1,), repro.float64)
        init = sdfg.add_state("init", is_start_state=True)
        fill = sdfg.add_state("fill")
        read = sdfg.add_state("read")
        sdfg.add_edge(init, fill, InterstateEdge(assignments={"i": "7"}))
        sdfg.add_edge(fill, read, InterstateEdge())
        fill.add_mapped_tasklet("fill", {"i": "0:N"}, {}, "__out = 1.0 * i",
                                {"__out": Memlet("A", "i")})
        tasklet = read.add_tasklet("read", set(), {"__out"}, "__out = 1.0 * i")
        read.add_edge(tasklet, "__out", read.add_write("out"), None,
                      Memlet("out", "0"))
        compiled = self._compile(sdfg)
        assert "for i in" not in compiled.source
        for run in (compiled, lambda **kw: run_sdfg(sdfg, **kw)):
            A, out = np.zeros(5), np.zeros(1)
            run(A=A, out=out)
            np.testing.assert_array_equal(A, np.arange(5.0))
            assert out[0] == 7.0

    def test_transient_sized_by_parameter(self):
        """A scope transient whose shape names the map parameter is
        allocated inside the loop, once per iteration."""
        from repro.ir import SDFG, Memlet

        i = repro.symbol("i")
        sdfg = SDFG("prefix_sums")
        sdfg.add_array("B", (N,), repro.float64)
        sdfg.add_array("T", (i + 1,), repro.float64, transient=True)
        state = sdfg.add_state()
        entry, exit_ = state.add_map("m", ["i"], "0:N")
        fill = state.add_tasklet("fill", set(), {"__o"},
                                 "__o = np.arange(i + 1) * 1.0")
        state.add_nedge(entry, fill)
        tmp = state.add_access("T")
        state.add_edge(fill, "__o", tmp, None, Memlet("T", "0:i+1"))
        total = state.add_tasklet("sum", {"__t"}, {"__s"}, "__s = np.sum(__t)")
        state.add_edge(tmp, None, total, "__t", Memlet("T", "0:i+1"))
        exit_.add_in_connector("IN_B")
        exit_.add_out_connector("OUT_B")
        state.add_edge(total, "__s", exit_, "IN_B", Memlet("B", "i"))
        state.add_edge(exit_, "OUT_B", state.add_write("B"), None,
                       Memlet("B", "0:N"))
        compiled = self._compile(sdfg)
        body = compiled.source.split("for ", 1)[1]
        assert "__alloc_shaped('T'" in body
        for run in (compiled, lambda **kw: run_sdfg(sdfg, **kw)):
            B = np.zeros(5)
            run(B=B)
            np.testing.assert_array_equal(B, [0.0, 1.0, 3.0, 6.0, 10.0])


@repro.program
def row_partial(x: repro.float64[N, M], s: repro.float64,
                out: repro.float64[N, M]):
    for i in repro.map[1:N - 1]:
        m = np.min(x[i, :])
        out[i, 1:M] = np.sqrt(x[i, 1:M] - m) * s + np.sum(x[i, :])


@repro.program
def row_rank_mismatch(x: repro.float64[N, M], y: repro.float64[N, M, M],
                      out: repro.float64[N, M]):
    for i in repro.map[0:N]:
        out[i, :] = x[i, :] - np.max(y[i, :, :])


@repro.program
def row_cross_read(x: repro.float64[N, M], out: repro.float64[N, M]):
    for i in repro.map[0:N - 1]:
        out[i, :] = x[i, :] + out[N - 1, :]


@repro.program
def row_other_call(x: repro.float64[N, M], out: repro.float64[N, M]):
    for i in repro.map[0:N]:
        out[i, :] = x[i, :] / np.mean(x[i, :])


@repro.program
def row_reduced_power(x: repro.float64[N, M], out: repro.float64[N, M]):
    for i in repro.map[0:N]:
        out[i, :] = x[i, :] / np.sum(x[i, :]) ** 2


def _row_and_loop_modules(sdfg, monkeypatch):
    """One-thread modules of *sdfg* with the row-code rule and without it
    (every declined scope a loop nest, as before the rule)."""
    from repro.codegen.pygen import _Generator

    row = TestLoopScopes._compile(sdfg.clone())
    with monkeypatch.context() as patch:
        patch.setattr(_Generator, "_try_row_scope", lambda *_a: False)
        loop = TestLoopScopes._compile(sdfg.clone())
    return row, loop


class TestRowScopes:
    """Row code (§17 rule 4a): a scope whose one tasklet indexes its
    containers by the map parameters runs each statement over all points
    at once, bit for bit as the loop nest computes it."""

    def test_softmax_is_bitwise_the_row_loop(self, monkeypatch):
        from repro.bench import registry

        bench = registry.get("softmax")
        _bench, sdfg = _optimized_corpus_graph("softmax")
        row, loop = _row_and_loop_modules(sdfg, monkeypatch)
        assert "for " not in row.source and "for " in loop.source
        assert "keepdims=True" in row.source and "out=out)" in row.source
        for size in ("test", "small", "large"):
            got, want, ref = (bench.arguments(size) for _ in range(3))
            row(**got)
            loop(**want)
            bench.reference(**ref)
            np.testing.assert_array_equal(got["out"], want["out"])
            assert np.allclose(got["out"], ref["out"], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, m", [(7, 5), (2, 0), (1, 3)])
    def test_partial_range_scalar_and_empty_map(self, n, m, monkeypatch):
        """A strided slice, a scalar argument, a symbol in the trailing
        slice; ``1:N - 1`` is empty at N = 1 and 2, where a row of length 0
        must not reach ``np.min``."""
        row, loop = _row_and_loop_modules(row_partial.to_sdfg(), monkeypatch)
        assert "for " not in row.source and "if (-2 + N) > 0:" in row.source
        outs = []
        for module in (row, loop):
            rng = np.random.default_rng(3)
            args = {"x": rng.random((n, m)), "s": 0.75, "out": np.zeros((n, m))}
            module(**args)
            outs.append(args["out"])
        np.testing.assert_array_equal(*outs)

    @pytest.mark.parametrize("program", [row_rank_mismatch, row_cross_read,
                                         row_other_call, row_reduced_power])
    def test_declined_scopes_keep_their_loop(self, program, monkeypatch):
        """A trailing-rank mismatch, a read of a written container at
        another row, a call outside the rule and a power of a reduction
        (a NumPy scalar in the loop, whose ``**`` rounds unlike an array's)
        leave the loop nest's text exactly as it is without the rule."""
        row, loop = _row_and_loop_modules(program.to_sdfg(), monkeypatch)
        assert row.source == loop.source and "for i in range(" in row.source
        rng = np.random.default_rng(4)
        args = {"x": rng.random((6, 4)), "y": rng.random((6, 4, 4)),
                "out": rng.random((6, 4))}
        args = {k: v for k, v in args.items() if k in row.sdfg.arg_names}
        want = {k: v.copy() for k, v in args.items()}
        row(**args)
        run_sdfg(program.to_sdfg(), **want)
        np.testing.assert_array_equal(args["out"], want["out"])


@pytest.mark.parametrize("name", ["spmv", "go_fast", "cholesky", "durbin"])
def test_one_guard_test_per_loop(name):
    """A loop guard's two edges are inverse integer comparisons, so the
    exit test is the only one: no second, dead test after its ``break``."""
    _bench, sdfg = _optimized_corpus_graph(name)
    lines = [line.strip() for line in
             TestLoopScopes._compile(sdfg).source.splitlines()]
    guards = [line for line in lines if line.startswith(("if (", "if not ("))]
    assert lines.count("while True:") == len(guards) >= 1
    assert all(" >= " in guard for guard in guards)


@pytest.mark.parametrize("dtype, tests", [(repro.float64, 2), (repro.int64, 1)])
def test_float_guard_keeps_its_second_test(dtype, tests):
    """``i >= t`` and ``i < t`` are both false for a NaN ``t``, and then no
    edge is taken and the run ends: a float guard keeps both tests, an
    integer one only the first."""
    sdfg = _loop_sdfg("guard", [
        ("init", "guard", None, {"i": "0"}),
        ("guard", "after", "i >= t", {}),
        ("guard", "body", "i < t", {}),
        ("body", "guard", None, {"i": "i + 1"})],
        {"body": "i", "after": "0"})
    sdfg.add_scalar("t", dtype)
    values = (3.0, float("nan")) if dtype is repro.float64 else (3,)
    for t in values:
        compiled = _assert_same_runs(sdfg, lambda t=t: {
            "A": np.zeros(5), "t": t})
    lines = [line.strip() for line in compiled.source.splitlines()]
    assert len([line for line in lines if line.startswith(("if (", "if not ("))]) == tests
    A = np.zeros(5)
    compiled(A=A, t=values[-1])
    want = np.zeros(5)
    if values[-1] == values[-1]:  # not NaN: three iterations, then "after"
        want[:3] = 1.0
        want[0] += 1.0
    np.testing.assert_array_equal(A, want)


# ---------------------------------------------------------------------------
# Control flow: loops and branches emitted as Python control flow
# ---------------------------------------------------------------------------

#: corpus kernels whose state graph keeps the ``while __state`` dispatcher
#: (unoptimized or optimized): a change that grows the set fails here
DISPATCHER_KERNELS: set = set()


def _structured_and_dispatcher(sdfg):
    """The module ``compile_sdfg`` builds for *sdfg*, and the dispatcher
    module built from the same graph."""
    from repro.codegen.compiled import CompiledSDFG
    from repro.codegen.pygen import generate_payload

    structured = compile_sdfg(sdfg, cache=False)
    run, source, specs = generate_payload(sdfg, dispatcher=True)
    return structured, CompiledSDFG(sdfg, run, source, specs)


def _outputs(args, ret):
    arrays = [v for v in args.values() if isinstance(v, np.ndarray)]
    rets = ret if isinstance(ret, tuple) else (ret,)
    return arrays + [np.asarray(r) for r in rets if r is not None]


def _run_module(compiled, args, hook=False):
    """Outputs, visit counts and final symbols of one call; with *hook*, the
    ``(state index, symbols)`` sequence a checkpoint hook records too."""
    from repro.runtime import context

    seen = []
    ctx = context.ExecutionContext(
        hook=lambda k, _c, symbols: seen.append((k, dict(symbols)))) \
        if hook else None
    with context.installed(ctx):
        ret = compiled(**args)
    return (_outputs(args, ret), compiled.last_state_visits,
            compiled.last_symbols, seen)


def _assert_same_runs(sdfg, make_args, hook=True):
    """The structured and the dispatcher module agree bit for bit: outputs,
    visit counts, final symbols and (with *hook*) the boundary sequence."""
    structured, dispatcher = _structured_and_dispatcher(sdfg)
    for with_hook in (False, True) if hook else (False,):
        got = _run_module(structured, make_args(), with_hook)
        want = _run_module(dispatcher, make_args(), with_hook)
        for a, b in zip(got[0], want[0]):
            np.testing.assert_array_equal(a, b)
        assert got[1:] == want[1:]
    return structured


def _corpus_graph(name, optimized):
    from repro.bench import registry

    if optimized:
        return _optimized_corpus_graph(name)
    bench = registry.get(name)
    return bench, bench.program.to_sdfg(**bench.arguments("test")).clone()


def _corpus_names():
    from repro.bench import registry

    return [b.name for b in registry.all_benchmarks()]


@pytest.mark.parametrize("name", _corpus_names())
def test_structured_module_matches_dispatcher(name):
    """Every corpus kernel, unoptimized and optimized: the structured module
    and the dispatcher built from the same graph give bitwise outputs, the
    same per-state visit counts and final symbols, and a checkpoint hook
    sees the same ``(state index, symbols)`` boundaries."""
    for optimized in (False, True):
        bench, sdfg = _corpus_graph(name, optimized)
        structured = _assert_same_runs(
            sdfg, lambda: bench.arguments("test"))
        assert ("while __state" in structured.source) \
            == (name in DISPATCHER_KERNELS)


@repro.program
def cf_counter_while(A: repro.float64[N]):
    i = 0
    while i < N:
        A[:] = A * 0.5 + 1.0
        i = i + 3


@repro.program
def cf_indexed_while(A: repro.float64[N]):
    i = 0
    while i < N:
        A[i] = A[i] + 1.0
        i = i + 1


def test_while_counter_indexes_before_its_increment():
    """State fusion orders the counter's update (a copy into its scalar)
    after the store that indexes by it, in both backends."""
    A = np.arange(9, dtype=np.float64)
    cf_indexed_while(A)
    np.testing.assert_array_equal(A, np.arange(9) + 1.0)
    A = np.arange(9, dtype=np.float64)
    run_sdfg(cf_indexed_while.to_sdfg(A=A), A=A)
    np.testing.assert_array_equal(A, np.arange(9) + 1.0)


@repro.program
def cf_branches(A: repro.float64[N], B: repro.float64[N]):
    for i in range(N):
        if A[i] > 0.5:
            B[i] = 1.0
        else:
            B[i] = 2.0
        if A[i] < 0.25:
            B[i] = B[i] + 10.0


@repro.program
def cf_ranges(A: repro.float64[N], B: repro.float64[N], lo: repro.int64,
              hi: repro.int64):
    for i in range(lo, hi):
        A[i] = A[i] + 1.0
    for j in range(hi - 1, lo - 1, -1):
        B[j] = B[j] * 2.0 + A[j]


@repro.program
def cf_early_exits(A: repro.float64[N], B: repro.float64[N]):
    for i in range(N):
        if A[i] > 0.9:
            break
        if A[i] < 0.1:
            continue
        B[i] = A[i] * 2.0
    for j in range(N):
        if B[j] > 1.5:
            return
        B[j] = B[j] + 1.0


def _loop_sdfg(name, edges, writes):
    """A hand-built state machine over ``A[N]``: *edges* are ``(src, dst,
    condition, assignments)`` between named states (the first is the
    start); *writes* maps a state to the index expression its tasklet
    increments ``A`` at."""
    from repro.ir import SDFG, InterstateEdge, Memlet

    sdfg = SDFG(name)
    sdfg.add_array("A", (N,), repro.float64)
    sdfg.add_symbol("i")
    states = {}
    for src, dst, _cond, _assign in edges:
        for label in (src, dst):
            if label not in states:
                states[label] = sdfg.add_state(label,
                                               is_start_state=not states)
    for label, index in writes.items():
        state = states[label]
        t = state.add_tasklet(label, {"a"}, {"b"}, "b = a + 1.0")
        state.add_edge(state.add_access("A"), None, t, "a", Memlet("A", index))
        state.add_edge(t, "b", state.add_access("A"), None, Memlet("A", index))
    for src, dst, cond, assign in edges:
        sdfg.add_edge(states[src], states[dst], InterstateEdge(cond, assign))
    return sdfg


def _skeleton(lines):
    keys = ("while ", "if ", "elif ", "else:", "break", "continue", "return",
            "__n", "try:", "finally:", "__finish(")
    return [line for line in lines if line.strip().startswith(keys)]


class TestControlFlowShapes:
    """Loops and branches come out as Python control flow and run exactly
    as the dispatcher does; what is not recovered keeps the dispatcher."""

    @staticmethod
    def _args(n=12, **scalars):
        return lambda: {"A": np.random.default_rng(0).random(n),
                        "B": np.random.default_rng(1).random(n), **scalars}

    def test_counter_while(self):
        sdfg = cf_counter_while.to_sdfg()
        compiled = _assert_same_runs(
            sdfg, lambda: {"A": np.arange(9, dtype=np.float64)})
        assert "while True:" in compiled.source
        assert "while __state" not in compiled.source
        A = np.arange(9, dtype=np.float64)
        compiled(A=A)
        want = np.arange(9, dtype=np.float64)
        for _ in range(3):
            want = want * 0.5 + 1.0
        np.testing.assert_array_equal(A, want)

    def test_if_else_and_if_without_else(self):
        compiled = _assert_same_runs(cf_branches.to_sdfg(),
                                     self._args(n=40))
        source = compiled.source
        assert "while __state" not in source and "else:" in source
        args = self._args(n=40)()
        compiled(**args)
        A = args["A"]
        want = np.where(A > 0.5, 1.0, 2.0) + np.where(A < 0.25, 10.0, 0.0)
        np.testing.assert_array_equal(args["B"], want)

    @pytest.mark.parametrize("lo, hi", [(5, 5), (7, 3), (4, 5), (0, 12)])
    def test_zero_and_single_trip_and_negative_step(self, lo, hi):
        sdfg = cf_ranges.to_sdfg()
        compiled = _assert_same_runs(sdfg, self._args(lo=lo, hi=hi))
        args = self._args(lo=lo, hi=hi)()
        A, B = args["A"].copy(), args["B"].copy()
        for i in range(lo, hi):
            A[i] += 1.0
        for j in range(hi - 1, lo - 1, -1):
            B[j] = B[j] * 2.0 + A[j]
        compiled(**args)
        np.testing.assert_array_equal(args["A"], A)
        np.testing.assert_array_equal(args["B"], B)
        # the loop variables keep their exit values after their loops
        assert compiled.last_symbols["i"] == max(lo, hi)
        assert compiled.last_symbols["j"] == min(lo, hi) - 1

    def test_loop_variable_read_after_its_loop(self):
        sdfg = _loop_sdfg("after", [
            ("init", "guard", None, {"i": "0"}),
            ("guard", "body", "i < N", {}),
            ("guard", "after", "i >= N", {}),
            ("body", "guard", None, {"i": "i + 3"})],
            {"body": "i", "after": "i - 3"})
        compiled = _assert_same_runs(
            sdfg, lambda: {"A": np.zeros(10)})
        assert "while __state" not in compiled.source
        A = np.zeros(10)
        compiled(A=A)
        want = np.zeros(10)
        want[[0, 3, 6, 9]] = 1.0
        want[9] += 1.0  # the state after the loop reads i == 12
        np.testing.assert_array_equal(A, want)

    def test_data_dependent_bound(self):
        from repro.bench import registry

        bench = registry.get("spmv")
        sdfg = bench.program.to_sdfg(**bench.arguments("test"))
        compiled = _assert_same_runs(sdfg, lambda: bench.arguments("test"))
        assert "rowptr[((i)) + (1)]" in compiled.source
        assert "while __state" not in compiled.source

    def test_break_continue_and_early_return(self):
        for seed in range(4):
            make = lambda seed=seed: {  # noqa: E731
                "A": np.random.default_rng(seed).random(30),
                "B": np.random.default_rng(seed + 9).random(30)}
            compiled = _assert_same_runs(cf_early_exits.to_sdfg(), make)
            args = make()
            A, B = args["A"], args["B"].copy()
            for i in range(30):
                if A[i] > 0.9:
                    break
                if A[i] < 0.1:
                    continue
                B[i] = A[i] * 2.0
            for j in range(30):
                if B[j] > 1.5:
                    break
                B[j] = B[j] + 1.0
            compiled(**args)
            np.testing.assert_array_equal(args["B"], B)
        assert "while __state" not in compiled.source
        assert "break" in compiled.source and "continue" in compiled.source

    def test_irreducible_graph_keeps_the_dispatcher(self):
        # the loop between b and c is entered at both states
        sdfg = _loop_sdfg("irreducible", [
            ("s", "b", "N > 3", {"i": "0"}),
            ("s", "c", "not (N > 3)", {"i": "1"}),
            ("b", "c", "i < 6", {"i": "i + 2"}),
            ("b", "e", "not (i < 6)", {}),
            ("c", "b", "i < 6", {"i": "i + 1"}),
            ("c", "e", "not (i < 6)", {})],
            {"b": "i", "c": "i", "e": "i - 6"})
        for n in (8, 3):
            compiled = _assert_same_runs(sdfg, lambda n=n: {"A": np.zeros(n + 6)})
            assert "while __state >= 0:" in compiled.source
            A = np.zeros(n + 6)
            compiled(A=A)
            want = np.zeros(n + 6)
            run_sdfg(sdfg, A=want)
            np.testing.assert_array_equal(A, want)

    def test_json_round_trip_gives_the_same_source(self):
        from repro.bench import registry
        from repro.ir.serialize import sdfg_from_json

        for name in ("cholesky", "spmv", "nussinov"):
            bench = registry.get(name)
            sdfg = bench.program.to_sdfg(**bench.arguments("test"))
            restored = sdfg_from_json(sdfg.to_json())
            assert not any(hasattr(s, "loop_info") for s in restored.states())
            # the round trip may reorder a state's edges, hence its body's
            # lines; the control flow around the bodies is the same
            got = compile_sdfg(restored, cache=False).source.splitlines()
            want = compile_sdfg(sdfg, cache=False).source.splitlines()
            assert sorted(got) == sorted(want)
            assert _skeleton(got) == _skeleton(want)


def test_checkpoint_mid_loop_resumes_bitwise():
    """A checkpoint hook snapshots jacobi_2d in the middle of its time loop
    and unwinds the run; resuming the snapshot at its state (through the
    dispatcher module the artifact builds on demand) gives the outputs of
    an uninterrupted run bit for bit."""
    from repro.bench import registry
    from repro.runtime import context

    bench = registry.get("jacobi_2d")
    compiled = compile_sdfg(bench.program.to_sdfg(**bench.arguments("test")),
                            cache=False)
    want = bench.arguments("test")
    compiled(**want)
    total = sum(compiled.last_state_visits.values())

    class Unwind(Exception):
        pass

    snapshot = {}

    def hook(k, containers, symbols):
        snapshot["n"] = snapshot.get("n", 0) + 1
        if snapshot["n"] == total // 2:
            snapshot.update(state=k, symbols=dict(symbols), containers={
                name: np.copy(v) for name, v in containers.items()})
            raise Unwind

    with context.installed(context.ExecutionContext(hook=hook)):
        with pytest.raises(Unwind):
            compiled(**bench.arguments("test"))
    assert snapshot["symbols"].get("t", 0) > 1  # mid-loop

    args = bench.arguments("test")
    containers, symbols = compiled.convention.bind((), args)
    for name, value in snapshot["containers"].items():
        if name in containers:
            np.copyto(containers[name], value)
        else:
            containers[name] = value
    symbols.update(snapshot["symbols"])
    compiled.run_prepared(containers, symbols, start_state=snapshot["state"])
    for name in bench.outputs:
        np.testing.assert_array_equal(args[name], want[name])
