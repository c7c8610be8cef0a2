"""The single-process workloads: which corpus programs make up each one,
and how a row's programs, inputs and NumPy references are built.

Corpus ``init`` functions use their own fixed RNG, so on these workloads the
seed drives only the row order of each round and the ``alt_shapes`` shapes.
"""

# NOTE: no `from __future__ import annotations` — it would stringify the
# annotations the repro frontend reads.

from typing import Callable, List

import numpy as np

import repro
from repro.bench import registry

from harness import Row, Unit, Variant

#: workload -> (corpus program, registry size class) rows.  Why these rows:
#: see README.md ("Workloads").
CORPUS_ROWS = {
    "call_path": [(name, "small") for name in (
        "atax", "bicg", "mvt", "gemm", "k2mm", "k3mm", "covariance",
        "go_fast")],
    "array_kernels": [("fdtd_2d", "small"), ("hdiff", "small"),
                      ("gemver", "small"), ("gemm", "large")],
    "fallback_loops": [(name, "small") for name in (
        "cholesky", "spmv", "softmax", "trisolv", "durbin", "doitgen",
        "jacobi_1d")],
}

#: (M, N) bases of ``atax.alt_shapes`` and lengths of ``jit_axpy.alt_shapes``;
#: the seed adds a jitter below ALT_JITTER to each, so the shapes change with
#: the seed while the work stays within ~2 %
ATAX_ALT_BASES = [(600, 700), (700, 600), (450, 520), (300, 900)]
AXPY_ALT_BASES = [60_000, 120_000, 180_000, 240_000]
ALT_JITTER = 8


def jit_axpy(a, x, y):
    y[:] = a * x + y


def optimized(func: Callable) -> "repro.DaceProgram":
    """A fresh auto-optimizing program object.  Built with the options form
    of the decorator: ``repro.program(func, auto_optimize=True)`` returns
    ``DaceProgram(func)`` and silently drops the keyword."""
    return repro.program(auto_optimize=True)(func)


class ProgramUnit(Unit):
    """One ``@repro.program`` function and the row that calls it."""

    def __init__(self, name: str, func: Callable, reference: Callable,
                 variants: List[Variant]):
        self.name = name
        self.func = func
        self.rows = [Row(name, variants, reference)]

    def build(self):
        program = optimized(self.func)
        for variant in self.rows[0].variants:
            program.compile(**variant.args)
        return [program]


def _corpus_unit(name: str, size: str) -> ProgramUnit:
    bench = registry.get(name)
    variant = Variant(bench.arguments(size), tuple(bench.outputs))
    return ProgramUnit(f"{name}@{size}", bench.program.func, bench.reference,
                       [variant])


def _alt_shapes_units(rng: np.random.Generator) -> List[ProgramUnit]:
    """Two rows that call one program round-robin with four signatures: a
    symbolic program (one artifact, four shapes) and an unannotated one
    (four specializations, four memo entries)."""
    atax = registry.get("atax")
    atax_variants = []
    for m, n in ATAX_ALT_BASES:
        m, n = (int(v + rng.integers(ALT_JITTER)) for v in (m, n))
        atax_variants.append(Variant(
            {"A": rng.random((m, n)), "x": rng.random(n), "y": np.zeros(n)},
            ("y",)))
    axpy_variants = []
    for n in AXPY_ALT_BASES:
        n = int(n + rng.integers(ALT_JITTER))
        axpy_variants.append(Variant(
            {"a": 1.5, "x": rng.random(n), "y": rng.random(n)}, ("y",)))
    return [
        ProgramUnit("atax.alt_shapes", atax.program.func, atax.reference,
                    atax_variants),
        ProgramUnit("jit_axpy.alt_shapes", jit_axpy, jit_axpy, axpy_variants),
    ]


def make_units(workload: str, seed: int) -> List[Unit]:
    """The units of *workload*; everything seed-dependent is drawn here."""
    rng = np.random.default_rng(seed)
    if workload == "dist":
        from distrows import dist_units

        return dist_units(rng)
    units: List[Unit] = [_corpus_unit(name, size)
                         for name, size in CORPUS_ROWS[workload]]
    if workload == "call_path":
        units.extend(_alt_shapes_units(rng))
    return units

