"""Corpus-wide correctness: every benchmark program must match its NumPy
reference, both out of the box and after CPU auto-optimization."""

import numpy as np
import pytest

from repro.autoopt import auto_optimize
from repro.bench import registry
from repro.codegen import compile_sdfg

ALL = registry.all_benchmarks()
NAMES = [b.name for b in ALL]

#: subset re-checked after the full -O3 pipeline (covers every structural
#: style in the corpus without doubling the suite's runtime)
AUTOOPT_SUBSET = [
    "gemm", "k2mm", "k3mm", "atax", "bicg", "mvt", "gemver", "gesummv",
    "jacobi_1d", "jacobi_2d", "heat_3d", "fdtd_2d", "doitgen",
    "floyd_warshall", "covariance", "correlation", "softmax", "hdiff",
    "histogram", "go_fast",
]


def check_outputs(bench, args_prog, args_ref, ret_prog, ret_ref):
    if bench.outputs:
        for name in bench.outputs:
            a = np.asarray(args_prog[name])
            b = np.asarray(args_ref[name])
            assert np.allclose(a, b, rtol=1e-8, atol=1e-8), \
                f"{bench.name}.{name}: max err {np.abs(a - b).max()}"
    else:
        assert np.allclose(ret_prog, ret_ref), \
            f"{bench.name}: return {ret_prog} != {ret_ref}"


@pytest.mark.parametrize("name", NAMES)
def test_matches_reference(name):
    bench = registry.get(name)
    args_prog = bench.arguments("test")
    args_ref = bench.arguments("test")
    ret_prog = bench.program(**args_prog)
    ret_ref = bench.reference(**args_ref)
    check_outputs(bench, args_prog, args_ref, ret_prog, ret_ref)


def parsed_clone(bench):
    """A private copy of the benchmark's parsed (simplified) SDFG."""
    program = bench.program
    if program._annotation_descs() is None:
        return program.to_sdfg(**bench.arguments("test")).clone()
    return program.to_sdfg().clone()


@pytest.mark.parametrize("name", AUTOOPT_SUBSET)
def test_matches_reference_after_autoopt(name):
    bench = registry.get(name)
    sdfg = parsed_clone(bench)
    auto_optimize(sdfg, device="CPU")
    compiled = compile_sdfg(sdfg)
    args_prog = bench.arguments("test")
    args_ref = bench.arguments("test")
    call_args = {k: v for k, v in args_prog.items()}
    ret_prog = compiled(**call_args)
    ret_ref = bench.reference(**args_ref)
    check_outputs(bench, args_prog, args_ref, ret_prog, ret_ref)


def test_rollback_census():
    """Which passes the pipeline rolls back across the corpus, pinned: a
    pass that newly fails — or newly stops failing — must show up here, not
    scroll past as a ResilienceWarning."""
    import warnings

    from repro.resilience import FailureReport, ResilienceWarning

    rolled_back = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResilienceWarning)
        for bench in ALL:
            report = FailureReport()
            auto_optimize(parsed_clone(bench), device="CPU", report=report)
            # simplify's rollbacks went to the program's own report at parse
            subjects = [r.subject for r in
                        bench.program.failure_report.records + report.records]
            if subjects:
                rolled_back[bench.name] = subjects
    assert rolled_back == {"nbody": ["fusion"]}


#: kernel -> interpreter closures left in its auto-optimized module at the
#: ``test`` size, all of them map scopes (ROADMAP C(iv), D(iv))
LOWERING_CENSUS = {
    "azimint_hist": 1, "deriche": 2, "doitgen": 1, "gramschmidt": 1,
    "histogram": 1, "mandelbrot1": 1, "mandelbrot2": 1, "resnet": 1,
    "softmax": 1, "stockham_fft": 1, "symm": 1, "trmm": 1,
}


def test_lowering_census():
    """Which corpus kernels still run part of their body through the
    reference interpreter, pinned: a change that grows the set fails here,
    and one that shrinks it has to say so by editing the table."""
    import warnings

    from repro.ir.nodes import MapEntry
    from repro.resilience import ResilienceWarning

    census = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResilienceWarning)
        for bench in ALL:
            sdfg = auto_optimize(parsed_clone(bench), device="CPU")
            compiled = compile_sdfg(sdfg, cache=False)
            states = sdfg.states()
            for state_index, node_index in compiled.closure_specs.values():
                node = states[state_index].nodes()[node_index]
                assert isinstance(node, MapEntry), (bench.name, node)
            if compiled.closure_specs:
                census[bench.name] = len(compiled.closure_specs)
    assert census == LOWERING_CENSUS
    assert sum(census.values()) == 13


def _referenced_by_a_memlet(sdfg):
    return {edge.memlet.data for state in sdfg.states()
            for edge in state.edges() if not edge.memlet.is_empty()}


@pytest.mark.parametrize("name", ["cholesky", "trisolv"])
def test_no_allocation_for_unreferenced_containers(name, tmp_path):
    """Simplify used to leave ordering-only access nodes behind, and the
    generated loop body zero-allocated their containers on every iteration;
    cold, disk-rehydrated and interpreter runs agree on the smaller graph."""
    import re

    from repro.cache import CacheStore, cached_compile
    from repro.runtime.executor import run_sdfg

    bench = registry.get(name)
    store = CacheStore(directory=str(tmp_path / "cache"))
    cold = cached_compile(parsed_clone(bench), store=store, optimize="CPU")
    store.clear_memory()
    warm = cached_compile(parsed_clone(bench), store=store, optimize="CPU")
    assert not cold.from_cache and warm.from_cache
    assert warm.source == cold.source

    used = _referenced_by_a_memlet(cold.sdfg)
    assert set(cold.sdfg.arrays) - used <= set(cold.convention.arg_names)
    allocated = set(re.findall(r"__alloc_shaped\(\s*'(\w+)'", cold.source))
    assert allocated <= used

    results = []
    for run in (cold, warm, lambda **kw: run_sdfg(cold.sdfg, **kw)):
        args = bench.arguments("test")
        run(**args)
        results.append(args)
    reference = bench.arguments("test")
    bench.reference(**reference)
    for args in results:
        for out in bench.outputs:
            assert np.allclose(args[out], reference[out], rtol=1e-8,
                               atol=1e-8), (name, out)


def test_registry_complete():
    names = registry.names()
    assert len(names) == 45
    assert "gemm" in names and "crc16" in names


def test_registry_duplicate_rejected():
    bench = registry.get("gemm")
    with pytest.raises(KeyError):
        registry.register(bench)


def test_size_classes_exist():
    for bench in ALL:
        assert "test" in bench.sizes
        assert "small" in bench.sizes
        assert "large" in bench.sizes
