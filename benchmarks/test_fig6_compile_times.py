"""E1 / Fig. 6: distribution of total compilation times per device.

Compilation = frontend parse + dataflow coarsening + auto-optimization +
module generation (our backend's analogue of GCC/NVCC/OpenCL invocation).
The paper reports 90% of CPU/GPU codes compiling in under 15 s with a
single outlier; the reproduced distribution prints below.
"""

import time

import numpy as np
import pytest

from repro.autoopt import auto_optimize
from repro.bench import registry
from repro.codegen import compile_sdfg

from conftest import run_once

DEVICES = ["CPU", "GPU", "FPGA"]


def compile_benchmark(bench, device):
    start = time.perf_counter()
    sdfg = bench.program.to_sdfg(**bench.arguments("test")).clone()
    auto_optimize(sdfg, device=device)
    compile_sdfg(sdfg, device=device)
    return time.perf_counter() - start


@pytest.mark.parametrize("device", DEVICES)
def test_fig6_compile_time_distribution(benchmark, device):
    times = {}

    def run():
        for bench in registry.all_benchmarks():
            if device == "GPU" and not bench.gpu:
                continue
            if device == "FPGA" and not bench.fpga:
                continue
            times[bench.name] = compile_benchmark(bench, device)

    run_once(benchmark, run)
    values = sorted(times.values())
    median = values[len(values) // 2]
    p90 = values[int(len(values) * 0.9)]
    print(f"\n[Fig 6] {device}: {len(values)} programs, median "
          f"{median * 1e3:.1f} ms, p90 {p90 * 1e3:.1f} ms, "
          f"max {values[-1] * 1e3:.1f} ms "
          f"({max(times, key=times.get)})")
    # paper shape: 90% of programs compile fast, with at most a few outliers
    assert p90 < 60.0
