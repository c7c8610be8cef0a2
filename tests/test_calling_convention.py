"""The calling convention is resolved when an artifact is built and only read
afterwards (DESIGN.md §16): no graph walk and no import on a warm call, both
spellings (free functions over a graph, the artifact's own convention) give
the same error texts, and the object is safe to share between rank threads.
"""

import builtins
import sys
import threading

import numpy as np
import pytest

import repro
from repro.bench import registry
from repro.codegen import compile_sdfg
from repro.codegen.compiled import CompiledSDFG
from repro.distributed import run_distributed
from repro.distributed.commopt import corpus
from repro.frontend import decorator
from repro.ir import SDFG, Memlet
from repro.runtime.executor import (CallingConvention, ExecutionError,
                                    collect_return, infer_symbols,
                                    prepare_arguments)
from repro.symbolic import Symbol

N = Symbol("N")
M = Symbol("M")


def jit_axpy(a, x, y):
    y[:] = a * x + y


@pytest.fixture
def walks(monkeypatch):
    """Counts of the two graph-derived signature queries."""
    counts = {"free_symbols": 0, "arglist": 0}
    free_symbols = SDFG.free_symbols.fget
    arglist = SDFG.arglist

    def counted_free_symbols(self):
        counts["free_symbols"] += 1
        return free_symbols(self)

    def counted_arglist(self):
        counts["arglist"] += 1
        return arglist(self)

    monkeypatch.setattr(SDFG, "free_symbols", property(counted_free_symbols))
    monkeypatch.setattr(SDFG, "arglist", counted_arglist)
    return counts


def _optimized(name):
    bench = registry.get(name)
    return (repro.program(auto_optimize=True)(bench.program.func),
            bench.arguments("test"))


class TestNoWalkOnAWarmCall:
    @pytest.mark.parametrize("name", ["atax", "go_fast"])
    def test_corpus_program(self, name, walks):
        program, args = _optimized(name)
        program(**args)
        walks.update(free_symbols=0, arglist=0)
        program(**args)
        assert walks == {"free_symbols": 0, "arglist": 0}

    def test_unannotated_program(self, walks):
        program = repro.program(auto_optimize=True)(jit_axpy)
        x, y = np.ones(100), np.ones(100)
        program(1.5, x, y)
        walks.update(free_symbols=0, arglist=0)
        program(1.5, x, y)
        assert walks == {"free_symbols": 0, "arglist": 0}
        assert np.allclose(y, 4.0)

    def test_two_rank_distributed_run(self, walks, monkeypatch):
        # the eager path: the comm optimizer re-runs its passes per call
        monkeypatch.delenv("REPRO_COMM_OPT", raising=False)
        kernel = corpus.kernel("pgemv")
        sdfg = kernel.build_sdfg()
        inputs, _ = kernel.make_inputs(0)
        run_distributed(sdfg, 2, **inputs)
        walks.update(free_symbols=0, arglist=0)
        run_distributed(sdfg, 2, **inputs)
        assert walks == {"free_symbols": 0, "arglist": 0}

    def test_plain_call_executes_no_import_statement(self, monkeypatch):
        program, args = _optimized("atax")
        program(**args)
        imported = []
        real_import = builtins.__import__

        def counting_import(name, *rest, **kwargs):
            imported.append(name)
            return real_import(name, *rest, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting_import)
        program(**args)
        monkeypatch.undo()
        assert imported == []

    def test_free_functions_walk_once(self, walks):
        sdfg = registry.get("atax").program.to_sdfg()
        args = registry.get("atax").arguments("test")
        walks.update(free_symbols=0, arglist=0)
        prepare_arguments(sdfg, (), args)
        assert walks["free_symbols"] == 1


class TestJitKey:
    @pytest.mark.parametrize("value", [
        np.zeros((3, 4)), np.zeros(0, dtype=np.float32),
        np.zeros((2, 1, 5), dtype=np.int32), np.ones(3, dtype=np.complex128),
        1.5, 3, True, 2 + 1j, np.float32(2.0), np.int64(7)])
    def test_key_from_value_is_key_from_descriptor(self, value):
        desc = decorator._value_to_desc(value)
        assert (decorator._value_key("p", value),) == \
            decorator.DaceProgram._desc_key({"p": desc})

    def test_descriptors_built_only_on_a_memo_miss(self, monkeypatch):
        program = repro.program(jit_axpy)
        x, y = np.ones(8), np.ones(8)
        program(2.0, x, y)
        built = []
        monkeypatch.setattr(decorator, "_value_to_desc",
                            lambda value: built.append(value))
        program(2.0, x, y)
        assert built == []
        assert program.compile(2.0, x, y) is program.compile(2.0, x, y)

    def test_unsupported_argument_still_reported(self):
        program = repro.program(jit_axpy)
        with pytest.raises(decorator.UnsupportedFeature,
                           match="cannot infer descriptor"):
            program("text", np.ones(2), np.ones(2))


def _two_arrays():
    sdfg = SDFG("two")
    sdfg.add_array("A", (N,), repro.float64)
    sdfg.add_array("B", (N * 2, 3), repro.float64)
    sdfg.add_scalar("N", repro.int32)
    sdfg.add_state()
    return sdfg


def _needs_m():
    sdfg = SDFG("needs_m")
    sdfg.add_array("A", (N,), repro.float64)
    state = sdfg.add_state()
    state.add_mapped_tasklet("m", {"i": "0:M"}, {}, "__out = 1.0",
                             {"__out": Memlet("A", "i")})
    return sdfg


#: (graph builder, positional args, keyword args, the parent commit's text)
ERROR_CASES = {
    "too-many-positionals": (
        _two_arrays, (1, 2, 3, 4), {},
        "too many positional arguments: got 4, expected at most 3"),
    "unknown-argument": (
        _two_arrays, (), {"bogus": 1}, "unknown argument 'bogus'"),
    "dtype-mismatch": (
        _two_arrays, (), {"A": np.zeros(2, dtype=np.float32)},
        "argument 'A' has dtype float32, expected float64 "
        "(static symbolic typing)"),
    "rank-mismatch": (
        _two_arrays, (), {"A": np.zeros((2, 2))},
        "argument 'A' has 2 dimensions, expected 1"),
    "inconsistent-symbol": (
        lambda: _shapes({"A": (N,), "B": (N,)}), (),
        {"A": np.zeros(3), "B": np.zeros(4)},
        "inconsistent value for symbol N: 3 vs 4 (argument 'B')"),
    "shape-vs-scalar": (
        _two_arrays, (), {"A": np.zeros(4), "N": 7},
        "inconsistent value for symbol N: shape-derived 4 vs scalar "
        "argument 7"),
    "composite": (
        _two_arrays, (), {"A": np.zeros(4), "B": np.zeros((9, 3))},
        "argument 'B': dimension 2*N evaluates to 8 but actual size is 9"),
    "constant": (
        _two_arrays, (), {"A": np.zeros(4), "B": np.zeros((8, 2))},
        "argument 'B': dimension 3 evaluates to 3 but actual size is 2"),
    "unbound-symbols": (
        _needs_m, (), {"A": np.zeros(4)}, "unbound symbols: ['M']"),
    "missing-arguments": (
        _two_arrays, (), {"A": np.zeros(4)},
        "missing arguments: ['B', 'N']"),
}


def _shapes(shapes):
    sdfg = SDFG("shapes")
    for name, shape in shapes.items():
        sdfg.add_array(name, shape, repro.float64)
    sdfg.add_state()
    return sdfg


class TestOneImplementationTwoSpellings:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_error_text_is_the_parents_in_both(self, case):
        build, args, kwargs, text = ERROR_CASES[case]
        sdfg = build()
        with pytest.raises(ExecutionError) as free:
            prepare_arguments(sdfg, args, kwargs)
        with pytest.raises(ExecutionError) as artifact:
            compile_sdfg(sdfg, cache=False)(*args, **kwargs)
        assert str(free.value) == str(artifact.value) == text

    def test_same_binding_in_both(self):
        sdfg = _two_arrays()
        kwargs = {"A": np.zeros(4), "B": np.zeros((8, 3)), "N": 4}
        containers, symbols = prepare_arguments(sdfg, (), kwargs)
        compiled = compile_sdfg(sdfg, cache=False)
        containers2, symbols2 = compiled.convention.bind((), kwargs)
        assert symbols == symbols2 == {"N": 4}
        assert list(containers) == list(containers2) == ["A", "B", "N"]
        assert containers["A"] is containers2["A"] is kwargs["A"]
        assert infer_symbols(sdfg, containers) == {"N": 4}

    def test_return_extraction_in_both(self):
        sdfg = SDFG("ret")
        sdfg.add_scalar("__return", repro.float64)
        sdfg.add_array("__return_1", (N,), repro.float64)
        sdfg.add_state()
        containers = {"__return": np.array([2.5]), "__return_1": np.ones(2)}
        convention = CallingConvention(sdfg)
        for got in (collect_return(sdfg, containers),
                    convention.collect(containers)):
            assert got[0] == 2.5 and got[1] is containers["__return_1"]
        assert collect_return(SDFG("none"), {}) is None

    def test_what_the_convention_holds(self):
        convention = CallingConvention(_two_arrays())
        assert convention.arg_names == ("A", "B", "N")
        assert convention.arguments["A"].kind == "array"
        assert convention.arguments["A"].dims == ("N",)
        assert convention.arguments["B"].dims[0] == N * 2
        assert convention.arguments["B"].dims[1].evaluate({}) == 3
        assert convention.arguments["N"].kind == "scalar"
        assert convention.arguments["A"].nptype == np.float64
        assert convention.free_symbols == frozenset()
        assert convention.symbols == {"N"}
        assert convention.returns == ()
        assert CallingConvention(_needs_m()).free_symbols == {"M", "N"}


class TestBindsByTheGraphItWasBuiltFrom:
    def test_later_edits_of_the_graph_do_not_change_the_signature(self):
        sdfg = SDFG("frozen")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("B", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("m", {"i": "0:N"}, {"__in": Memlet("A", "i")},
                                 "__out = __in + 1",
                                 {"__out": Memlet("B", "i")})
        compiled = compile_sdfg(sdfg, cache=False)
        assert compiled.sdfg is sdfg
        # the caller keeps transforming its graph: rename one container,
        # add another
        sdfg.arrays["renamed"] = sdfg.arrays.pop("B")
        sdfg.add_array("C", (M,), repro.float64)
        A, B = np.arange(4.0), np.zeros(4)
        compiled(A=A, B=B)
        assert np.allclose(B, A + 1)
        with pytest.raises(ExecutionError, match="unknown argument 'C'"):
            compiled(A=A, B=B, C=np.zeros(2))
        # the graph-only spelling reads the graph as it is now
        with pytest.raises(ExecutionError, match="unknown argument 'B'"):
            prepare_arguments(sdfg, (), {"A": A, "B": B})


class TestSharedReadOnly:
    def test_no_mutator(self):
        convention = CallingConvention(_two_arrays())
        public = {name for name in dir(convention) if not name.startswith("_")}
        assert public == {"arg_names", "arguments", "free_symbols", "symbols",
                          "returns", "bind", "infer", "collect"}
        for name in ("arg_names", "arguments", "free_symbols", "new"):
            with pytest.raises(AttributeError):
                setattr(convention, name, ())
        with pytest.raises(TypeError):
            convention.arguments["C"] = convention.arguments["A"]
        with pytest.raises(AttributeError):
            convention.arguments["A"].kind = "scalar"
        assert isinstance(convention.arg_names, tuple)
        assert isinstance(convention.free_symbols, frozenset)
        assert isinstance(convention.symbols, frozenset)

    def test_threads_bind_independently_through_one_artifact(self):
        compiled = compile_sdfg(_two_arrays(), cache=False)
        threads, rounds = 8, 200
        failures = []
        start = threading.Barrier(threads)

        def worker(rank):
            n = rank + 1
            kwargs = {"A": np.full(n, float(rank)), "B": np.zeros((2 * n, 3)),
                      "N": n}
            start.wait(timeout=30)
            seen = set()
            for _ in range(rounds):
                containers, symbols = compiled.convention.bind((), kwargs)
                if symbols != {"N": n} or containers["A"] is not kwargs["A"] \
                        or containers["N"][0] != n:
                    failures.append((rank, symbols))
                containers["scratch"] = symbols["scratch"] = rank
                seen.add(id(containers))
                seen.add(id(symbols))
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(r,))
                    for r in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert failures == []


T = Symbol("T")


class TestRankZeroReportsItsOwnVisits:
    def _loop(self):
        @repro.program
        def loop(A: repro.float64[N], T: repro.int32):
            for _t in range(T):
                A[:] = A + 1.0

        return loop.to_sdfg().clone()

    def test_run_prepared_fills_the_callers_dict(self):
        compiled = compile_sdfg(self._loop(), cache=False)
        mine = {}
        compiled.run_prepared(*compiled.convention.bind(
            (), {"A": np.zeros(3), "T": 2}), visits=mine)
        assert mine and mine == compiled.last_state_visits
        other = {}
        compiled.run_prepared(*compiled.convention.bind(
            (), {"A": np.zeros(3), "T": 5}), visits=other)
        assert sum(other.values()) > sum(mine.values())
        assert compiled.last_state_visits == other  # single-threaded view

    def test_state_visits_are_rank_zeros_even_when_it_finishes_first(
            self, monkeypatch):
        """Rank 1 loops longer and completes between rank 0's execution and
        rank 0's report; the shared ``last_state_visits`` then holds rank
        1's counts."""
        sdfg = self._loop()
        alone = compile_sdfg(sdfg)
        alone(A=np.zeros(3), T=2)
        expected = dict(alone.last_state_visits)

        rank_one_done = threading.Event()
        run_prepared = CompiledSDFG.run_prepared

        def staged(self, containers, symbols, *args, **kwargs):
            result = run_prepared(self, containers, symbols, *args, **kwargs)
            if int(containers["T"][0]) == 2:
                assert rank_one_done.wait(timeout=30)
            else:
                rank_one_done.set()
            return result

        monkeypatch.setattr(CompiledSDFG, "run_prepared", staged)
        result = run_distributed(
            sdfg, 2, A=np.zeros(3),
            rank_args=lambda rank, grid: {"T": 2 if rank == 0 else 5})
        assert result.state_visits == expected
        assert alone.last_state_visits != expected
