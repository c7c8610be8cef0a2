"""E4 / Fig. 9: FPGA runtime, Intel (Stratix 10) vs. Xilinx (Alveo U250).

Single-precision, Large instance (paper setup).  Vendor profiles differ in
hardened floating-point accumulation and stencil pattern detection; the
paper observes a noticeable Intel advantage on stencil-like applications.
"""

import numpy as np
import pytest

from repro.autoopt import auto_optimize
from repro.bench import registry
from repro.codegen import compile_sdfg
from repro.perf import runtime_series
from repro.runtime.devices import FPGA_PROFILES, detect_stencil_maps, fpga_time
from repro.runtime.perfmodel import analyze_program

from conftest import run_once, size_class, size_for

STENCILS = {"jacobi_1d", "jacobi_2d", "heat_3d", "fdtd_2d", "hdiff"}


def fpga_times(bench, size):
    sdfg = bench.program.to_sdfg(**bench.arguments(size)).clone()
    auto_optimize(sdfg, device="FPGA")
    compiled = compile_sdfg(sdfg, device="FPGA")
    compiled(**bench.arguments(size))
    cost = analyze_program(sdfg, compiled.last_state_visits,
                           compiled.last_symbols)
    # single precision (paper's FPGA configuration): halve the byte volume
    cost.bytes_read //= 2
    cost.bytes_written //= 2
    return {
        "intel": fpga_time(cost, FPGA_PROFILES["intel"], sdfg),
        "xilinx": fpga_time(cost, FPGA_PROFILES["xilinx"], sdfg),
    }, sdfg


def test_fig9_fpga_runtimes(benchmark):
    size = "test" if size_class() == "test" else "small"
    rows = {}
    stencil_flags = {}

    def run():
        for bench in registry.all_benchmarks():
            if not bench.fpga:
                continue
            try:
                rows[bench.name], sdfg = fpga_times(
                    bench, size_for(bench.name, size))
                stencil_flags[bench.name] = detect_stencil_maps(sdfg) > 0
            except Exception as exc:  # pragma: no cover
                print(f"  [fig9] {bench.name}: skipped ({exc})")

    run_once(benchmark, run)
    print("\n[Fig 9] FPGA runtime (modeled, single precision)")
    print(runtime_series(rows))
    # paper shape: Intel ahead on stencil-like applications (its toolchain's
    # stencil detection), comparable elsewhere
    stencil_rows = {n: r for n, r in rows.items()
                    if n in STENCILS and stencil_flags.get(n)}
    for name, row in stencil_rows.items():
        assert row["intel"] <= row["xilinx"], name
    print(f"\n[Fig 9] Intel faster on {len(stencil_rows)} stencil apps "
          f"(paper: Intel's stencil pattern detection)")
