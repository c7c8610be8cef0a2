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
