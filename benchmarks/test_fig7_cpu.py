"""E2 / Fig. 7: CPU runtime and speedup over NumPy.

Two complementary measurements:

* **wall-clock** — the NumPy reference vs. our auto-optimized generated
  module, both really executed (the honest part of the claim);
* **modeled** — every framework profile (numpy, numba, pythran, gcc, icc,
  dace) evaluated on the measured IR quantities, reproducing the figure's
  who-wins structure including the geometric-mean summary.
"""

import numpy as np
import pytest

from repro.autoopt import auto_optimize
from repro.bench import registry
from repro.codegen import compile_sdfg
from repro.perf import geomean, measure, speedup_table
from repro.runtime.devices import CPU_PROFILES, cpu_time
from repro.runtime.perfmodel import analyze_program

from conftest import run_once, size_class, size_for

#: corpus subset with enough wall-clock signal at the small size class
WALLCLOCK_SUBSET = ["gemm", "k2mm", "jacobi_1d", "jacobi_2d", "heat_3d",
                    "fdtd_2d", "atax", "bicg", "mvt", "gemver", "gesummv",
                    "covariance", "floyd_warshall", "hdiff", "softmax",
                    "go_fast", "doitgen"]


def modeled_times(bench, size):
    """Framework-profile times from measured IR quantities."""
    sdfg = bench.program.to_sdfg(**bench.arguments(size)).clone()
    opt = sdfg.clone()
    auto_optimize(opt, device="CPU")
    base_c = compile_sdfg(sdfg)
    opt_c = compile_sdfg(opt)
    base_c(**bench.arguments(size))
    opt_c(**bench.arguments(size))
    unfused = analyze_program(sdfg, base_c.last_state_visits, base_c.last_symbols)
    fused = analyze_program(opt, opt_c.last_state_visits, opt_c.last_symbols)
    out = {}
    for name, profile in CPU_PROFILES.items():
        cost = fused if profile.fuses else unfused
        out[name] = cpu_time(cost, profile)
    return out


def test_fig7_modeled_speedups(benchmark):
    size = "test" if size_class() == "test" else "small"
    rows = {}

    def run():
        for bench in registry.all_benchmarks():
            try:
                rows[bench.name] = modeled_times(bench,
                                                 size_for(bench.name, size))
            except Exception as exc:  # pragma: no cover - report and continue
                print(f"  [fig7] {bench.name}: skipped ({exc})")

    run_once(benchmark, run)
    print("\n[Fig 7 | modeled] speedup over NumPy")
    print(speedup_table(rows, baseline="numpy"))
    dace_speedups = [row["numpy"] / row["dace"] for row in rows.values()
                     if row.get("dace")]
    gm = geomean(dace_speedups)
    print(f"\n[Fig 7] data-centric geomean speedup over NumPy: {gm:.2f}x "
          f"(paper: consistently outperforms prior automatic approaches)")
    assert gm > 1.0
    # the compiled-framework comparators must also beat interpreted NumPy
    numba_gm = geomean([row["numpy"] / row["numba"] for row in rows.values()])
    assert gm > numba_gm > 0.5


@pytest.mark.parametrize("name", WALLCLOCK_SUBSET)
def test_fig7_wallclock(benchmark, name):
    bench = registry.get(name)
    size = size_for(name, "test" if size_class() == "test" else "small")
    sdfg = bench.program.to_sdfg(**bench.arguments(size)).clone()
    auto_optimize(sdfg, device="CPU")
    compiled = compile_sdfg(sdfg)

    args = bench.arguments(size)
    benchmark(lambda: compiled(**args))

    ref_args = bench.arguments(size)
    ref = measure(bench.reference, repetitions=3, warmup=1,
                  setup=lambda: ((), bench.arguments(size)))
    ours = measure(lambda: compiled(**args), repetitions=3, warmup=0)
    ratio = ref.median / ours.median if ours.median else float("inf")
    print(f"\n[Fig 7 | wall] {name}: numpy {ref.median * 1e3:.2f} ms, "
          f"data-centric {ours.median * 1e3:.2f} ms ({ratio:.2f}x)")
