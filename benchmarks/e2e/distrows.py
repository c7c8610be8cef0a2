"""The ``dist`` workload: the comm-optimizer corpus kernels (jacobi halo
exchange, pgemm collectives, pgemv) on simulated ranks, each run eager and
with ``commopt.enabled``.

The programs come from ``repro.distributed.commopt.corpus``; sizes, inputs
(drawn from the seed), the per-kernel distribution pipelines and the
single-process NumPy references are the benchmark's own, so the ruler does
not move when the corpus' toy inputs do.
"""

from typing import Callable, Dict, List

import numpy as np

import repro
from repro.codegen import compile_sdfg
from repro.config import Config
from repro.distributed.commopt import corpus, optimize_comm
from repro.distributed.runner import run_distributed
from repro.simmpi.grid import ProcessGrid
from repro.transformations.distributed import (DeduplicateComm,
                                               DistributeElementWiseArrayOp,
                                               RemoveRedundantComm)

from harness import Row, Unit, Variant

#: simulated ranks (= nproc of the box the benchmark was sized on)
RANKS = 2

JACOBI_N, JACOBI_TSTEPS = 240, 50
PGEMM_N, PGEMM_REPS = 240, 8
PGEMV_M, PGEMV_N = 960, 480


def _distribute_pgemm(sdfg) -> None:
    sdfg.apply(DistributeElementWiseArrayOp)
    sdfg.expand_library_nodes(implementation="PBLAS")
    sdfg.apply(RemoveRedundantComm)


def _distribute_pgemv(sdfg) -> None:
    sdfg.expand_library_nodes(implementation="PBLAS")
    sdfg.apply(DeduplicateComm)


def _jacobi_reference(TSTEPS, A, B, **_local_sizes):
    for _ in range(1, TSTEPS):
        B[1:-1, 1:-1] = 0.2 * (A[1:-1, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:]
                               + A[2:, 1:-1] + A[:-2, 1:-1])
        A[1:-1, 1:-1] = 0.2 * (B[1:-1, 1:-1] + B[1:-1, :-2] + B[1:-1, 2:]
                               + B[2:, 1:-1] + B[:-2, 1:-1])


def _pgemm_reference(reps, alpha, beta, C, A, B):
    for _ in range(reps):
        C[:] = alpha * A @ B + beta * C


def _pgemv_reference(A, x, y):
    y[:] = (A @ x) @ A


class DistUnit(Unit):
    """One distributed kernel: a graph built once, run eager and optimized."""

    def __init__(self, name: str, func: Callable, distribute,
                 reference: Callable, args: Dict, outputs, rank_args=None):
        self.name = name
        self.func = func
        self.distribute = distribute
        self.rank_args = rank_args
        eager = Row(f"{name}.eager", [Variant(args, outputs)], reference)
        # the optimized row gets its own copy of the same inputs
        opt_args = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                    for k, v in args.items()}
        opt = Row(f"{name}.commopt", [Variant(opt_args, outputs)], reference,
                  bitwise_with=eager)
        self.rows = [eager, opt]
        self.sdfg = None        # the distributed graph of the latest build

    def distributed_sdfg(self):
        """Fresh program -> parsed graph -> the kernel's distribution
        pipeline."""
        sdfg = repro.program(self.func).to_sdfg().clone()
        if self.distribute is not None:
            self.distribute(sdfg)
        return sdfg

    def op(self, sdfg, optimize: bool) -> Callable:
        def run(**kwargs):
            with Config.override(commopt__enabled=optimize):
                return run_distributed(sdfg, RANKS, rank_args=self.rank_args,
                                       **kwargs)

        return run

    def build(self):
        self.sdfg = sdfg = self.distributed_sdfg()
        compile_sdfg(sdfg)
        optimized = sdfg.clone()
        optimize_comm(optimized)
        compile_sdfg(optimized)
        return [self.op(sdfg, False), self.op(sdfg, True)]


def dist_units(rng: np.random.Generator) -> List[DistUnit]:
    gx, gy = ProcessGrid(RANKS).dims
    n = JACOBI_N
    jacobi_args = {"TSTEPS": JACOBI_TSTEPS, "A": rng.random((n, n)),
                   "B": rng.random((n, n)), "lNx": n // gx, "lNy": n // gy}
    n = PGEMM_N
    pgemm_args = {"reps": PGEMM_REPS, "alpha": 1.5, "beta": 0.5,
                  "C": rng.random((n, n)), "A": rng.random((n, n)),
                  "B": rng.random((n, n))}
    pgemv_args = {"A": rng.random((PGEMV_M, PGEMV_N)),
                  "x": rng.random(PGEMV_N), "y": np.zeros(PGEMV_N)}
    return [
        DistUnit("jacobi", corpus._jacobi_comm.func, None, _jacobi_reference,
                 jacobi_args, ("A", "B"),
                 rank_args=corpus.kernel("jacobi").rank_args),
        DistUnit("pgemm", corpus._gemm_iter.func, _distribute_pgemm,
                 _pgemm_reference, pgemm_args, ("C",)),
        DistUnit("pgemv", corpus._atax_comm.func, _distribute_pgemv,
                 _pgemv_reference, pgemv_args, ("y",)),
    ]
