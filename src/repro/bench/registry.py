"""Benchmark registry: the evaluation corpus of §3.4.

Each benchmark bundles the annotated data-centric program, a pure-NumPy
reference (the Fig. 7 baseline), an initializer, and named size classes:
``test`` (fast, used by the correctness suite), ``small``/``large`` (used by
the benchmark harnesses; ``large`` approximates the paper's instances).

Benchmarks register themselves on import; ``all_benchmarks()`` imports the
whole corpus.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["Benchmark", "register", "get", "all_benchmarks", "names",
           "SWEEP_CORPUS"]

_REGISTRY: Dict[str, "Benchmark"] = {}

#: corpus modules (polybench + applications)
POLYBENCH_MODULES = [
    "k2mm", "k3mm", "adi", "atax", "bicg", "cholesky", "correlation",
    "covariance", "deriche", "doitgen", "durbin", "fdtd_2d",
    "floyd_warshall", "gemm", "gemver", "gesummv", "gramschmidt", "heat_3d",
    "jacobi_1d", "jacobi_2d", "lu", "ludcmp", "mvt", "nussinov", "seidel_2d",
    "symm", "syr2k", "syrk", "trisolv", "trmm",
]
APP_MODULES = [
    "azimint_naive", "azimint_hist", "cavity_flow", "crc16", "go_fast",
    "hdiff", "histogram", "mandelbrot1", "mandelbrot2", "nbody", "resnet",
    "softmax", "spmv", "stockham_fft", "vadv",
]

#: the corpus the governor and sanitizer sweeps run: small ``test``-size
#: instances that exercise maps, WCR, dynamic memlets and interstate loops
SWEEP_CORPUS = ("gemm", "jacobi_1d", "atax", "bicg", "mvt", "gesummv",
                "softmax", "histogram")


@dataclass
class Benchmark:
    """One corpus entry."""

    name: str
    program: object                     # DaceProgram
    reference: Callable                 # numpy implementation (in-place)
    init: Callable[[Dict[str, int]], Dict[str, object]]
    sizes: Dict[str, Dict[str, int]]
    #: containers checked for correctness (output argument names); when
    #: empty, the return value is compared instead
    outputs: Sequence[str] = ()
    domain: str = "polybench"
    gpu: bool = True                    # part of the GPU-transformable subset
    fpga: bool = True
    notes: str = ""

    def arguments(self, size: str = "test") -> Dict[str, object]:
        return self.init(dict(self.sizes[size]))

def register(benchmark: Benchmark) -> Benchmark:
    if benchmark.name in _REGISTRY:
        raise KeyError(f"benchmark {benchmark.name!r} already registered")
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def get(name: str) -> Benchmark:
    if name not in _REGISTRY:
        all_benchmarks()
    return _REGISTRY[name]


def all_benchmarks(domain: Optional[str] = None) -> List[Benchmark]:
    for module in POLYBENCH_MODULES:
        importlib.import_module(f"repro.bench.polybench.{module}")
    for module in APP_MODULES:
        importlib.import_module(f"repro.bench.apps.{module}")
    values = list(_REGISTRY.values())
    if domain is not None:
        values = [b for b in values if b.domain == domain]
    return sorted(values, key=lambda b: b.name)


def names() -> List[str]:
    return sorted(b.name for b in all_benchmarks())
