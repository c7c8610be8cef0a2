"""The distributed kernel corpus: jacobi / pgemm / pgemv.

The one definition of the distributed programs: the comm-volume gate
(:mod:`repro.bench.dist`), the chaos sweep (:mod:`repro.resilience.chaos`),
``benchmarks/e2e`` and the tests all run these.  The GEMM is **iterated**
— ``for it in range(reps)`` around ``C = alpha*A@B + beta*C`` — because
that is the shape where collective dedup pays: the distribution pipeline
re-scatters the loop-invariant ``A`` and ``B`` blocks every iteration,
and the optimizer proves they are never written and memoizes the scatter.

Each kernel is a :class:`CorpusKernel` carrying an SDFG builder, seeded
input construction, and the run keyword set, so every consumer executes
byte-identical configurations.
"""

# NOTE: no `from __future__ import annotations` — it would stringify the
# @repro.program parameter annotations before the frontend reads them.

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

import repro
import repro.comm

__all__ = ["CorpusKernel", "KERNELS", "kernel", "run_kernel"]

_N = repro.symbol("cN")
_lNx = repro.symbol("lNx")
_lNy = repro.symbol("lNy")
_noff = repro.symbol("noff")
_soff = repro.symbol("soff")
_woff = repro.symbol("woff")
_eoff = repro.symbol("eoff")
_NI = repro.symbol("cNI")
_NJ = repro.symbol("cNJ")
_NK = repro.symbol("cNK")
_M = repro.symbol("cM")
_Nv = repro.symbol("cNv")


@repro.program
def _jacobi_comm(TSTEPS: repro.int32, A: repro.float64[_N, _N],
                 B: repro.float64[_N, _N]):
    lA = np.zeros((_lNx + 2, _lNy + 2))
    lB = np.zeros((_lNx + 2, _lNy + 2))
    lA[1:-1, 1:-1] = repro.comm.BlockScatter(A, (_lNx, _lNy))
    lB[1:-1, 1:-1] = repro.comm.BlockScatter(B, (_lNx, _lNy))
    for _t in range(1, TSTEPS):
        repro.comm.HaloExchange(lA)
        lB[1 + _noff:_lNx + 1 - _soff, 1 + _woff:_lNy + 1 - _eoff] = 0.2 * (
            lA[1 + _noff:_lNx + 1 - _soff, 1 + _woff:_lNy + 1 - _eoff]
            + lA[1 + _noff:_lNx + 1 - _soff, _woff:_lNy - _eoff]
            + lA[1 + _noff:_lNx + 1 - _soff, 2 + _woff:_lNy + 2 - _eoff]
            + lA[2 + _noff:_lNx + 2 - _soff, 1 + _woff:_lNy + 1 - _eoff]
            + lA[_noff:_lNx - _soff, 1 + _woff:_lNy + 1 - _eoff])
        repro.comm.HaloExchange(lB)
        lA[1 + _noff:_lNx + 1 - _soff, 1 + _woff:_lNy + 1 - _eoff] = 0.2 * (
            lB[1 + _noff:_lNx + 1 - _soff, 1 + _woff:_lNy + 1 - _eoff]
            + lB[1 + _noff:_lNx + 1 - _soff, _woff:_lNy - _eoff]
            + lB[1 + _noff:_lNx + 1 - _soff, 2 + _woff:_lNy + 2 - _eoff]
            + lB[2 + _noff:_lNx + 2 - _soff, 1 + _woff:_lNy + 1 - _eoff]
            + lB[_noff:_lNx - _soff, 1 + _woff:_lNy + 1 - _eoff])
    A[:] = repro.comm.BlockGather(lA[1:-1, 1:-1], (_N, _N))
    B[:] = repro.comm.BlockGather(lB[1:-1, 1:-1], (_N, _N))


@repro.program
def _gemm_iter(reps: repro.int32, alpha: repro.float64, beta: repro.float64,
               C: repro.float64[_NI, _NJ], A: repro.float64[_NI, _NK],
               B: repro.float64[_NK, _NJ]):
    for _it in range(reps):
        C[:] = alpha * A @ B + beta * C


@repro.program
def _atax_comm(A: repro.float64[_M, _Nv], x: repro.float64[_Nv],
               y: repro.float64[_Nv]):
    y[:] = (A @ x) @ A


def _jacobi_offsets(rank, grid):
    nb = grid.neighbors(rank)
    return {"noff": 1 if nb["north"] < 0 else 0,
            "soff": 1 if nb["south"] < 0 else 0,
            "woff": 1 if nb["west"] < 0 else 0,
            "eoff": 1 if nb["east"] < 0 else 0}


def _jacobi_sdfg():
    return _jacobi_comm.to_sdfg().clone()


def _pgemm_sdfg():
    from ...transformations.distributed import (DistributeElementWiseArrayOp,
                                                RemoveRedundantComm)

    sdfg = _gemm_iter.to_sdfg().clone()
    sdfg.apply(DistributeElementWiseArrayOp)
    sdfg.expand_library_nodes(implementation="PBLAS")
    sdfg.apply(RemoveRedundantComm)
    return sdfg


def _pgemv_sdfg():
    from ...transformations.distributed import DeduplicateComm

    sdfg = _atax_comm.to_sdfg().clone()
    sdfg.expand_library_nodes(implementation="PBLAS")
    sdfg.apply(DeduplicateComm)
    return sdfg


def _jacobi_inputs(seed: int):
    n, tsteps = 12, 5
    rng = np.random.default_rng(seed)
    return ({"TSTEPS": tsteps, "A": rng.random((n, n)),
             "B": rng.random((n, n)), "lNx": n // 2, "lNy": n // 2},
            ("A", "B"))


def _pgemm_inputs(seed: int):
    rng = np.random.default_rng(seed)
    ni, nj, nk = 12, 16, 24
    return ({"reps": 4, "alpha": 1.5, "beta": 0.5,
             "C": rng.random((ni, nj)), "A": rng.random((ni, nk)),
             "B": rng.random((nk, nj))},
            ("C",))


def _pgemv_inputs(seed: int):
    rng = np.random.default_rng(seed)
    return ({"A": rng.random((12, 8)), "x": rng.random(8),
             "y": np.zeros(8)},
            ("y",))


@dataclass
class CorpusKernel:
    """One corpus kernel: SDFG builder + seeded inputs + run options."""

    name: str
    build_sdfg: Callable
    make_inputs: Callable[[int], Tuple[Dict, Tuple[str, ...]]]
    rank_args: Optional[Callable] = None


KERNELS = ("jacobi", "pgemm", "pgemv")

_KERNELS: Dict[str, CorpusKernel] = {
    "jacobi": CorpusKernel("jacobi", _jacobi_sdfg, _jacobi_inputs,
                           rank_args=_jacobi_offsets),
    "pgemm": CorpusKernel("pgemm", _pgemm_sdfg, _pgemm_inputs),
    "pgemv": CorpusKernel("pgemv", _pgemv_sdfg, _pgemv_inputs),
}


def kernel(name: str) -> CorpusKernel:
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown corpus kernel {name!r}; "
                       f"expected one of {KERNELS}") from None


def run_kernel(name: str, size: int = 4, optimize: bool = False,
               seed: int = 0, fault_plan=None, **run_kwargs):
    """Run one corpus kernel on *size* simulated ranks.

    Returns ``(outputs, DistributedResult)`` where *outputs* maps the
    kernel's output array names to their (mutated, rank-0) values.
    """
    from ...config import Config
    from ..runner import run_distributed

    k = kernel(name)
    inputs, out_names = k.make_inputs(seed)
    sdfg = k.build_sdfg()
    # route optimization through the runner gate (commopt.enabled) so the
    # run records which passes applied and flags the report as optimized
    with Config.override(commopt__enabled=bool(optimize)):
        result = run_distributed(sdfg, size, rank_args=k.rank_args,
                                 fault_plan=fault_plan, **inputs,
                                 **run_kwargs)
    return {name_: inputs[name_] for name_ in out_names}, result
