"""Tests for the distributed runtime (S13) and transformations (S14, §4)."""

import numpy as np
import pytest

import repro
import repro.comm
from repro.distributed import (gather_blocks, local_block, pgemm, pgemv,
                               ptran, run_distributed, scatter_blocks)
from repro.ir import Tasklet
from repro.simmpi import ProcessGrid, run_spmd
from repro.transformations.distributed import (DeduplicateComm,
                                               DistributeElementWiseArrayOp,
                                               RemoveRedundantComm)

NI = repro.symbol("NI")
NJ = repro.symbol("NJ")
NK = repro.symbol("NK")


def assemble(results, grid, shape):
    out = np.empty(shape)
    for rank, block in enumerate(results):
        gather_blocks(out, block, grid, rank)
    return out


class TestPBLAS:
    @pytest.mark.parametrize("size", [1, 2, 4, 6])
    def test_pgemm_matches_numpy(self, size):
        rng = np.random.default_rng(0)
        M, K, N = 12, 18, 8
        A, B = rng.random((M, K)), rng.random((K, N))

        def work(comm):
            grid = ProcessGrid(comm.size)
            la = scatter_blocks(A, grid, comm.rank)
            lb = scatter_blocks(B, grid, comm.rank)
            return pgemm(comm, grid, la, lb, (M, K, N))

        results, clocks, _ = run_spmd(work, size)
        C = assemble(results, ProcessGrid(size), (M, N))
        assert np.allclose(C, A @ B)
        if size > 1:
            assert max(clocks) > 0

    @pytest.mark.parametrize("transpose", [False, True])
    def test_pgemv_matches_numpy(self, transpose):
        rng = np.random.default_rng(1)
        M, N = 12, 8
        A = rng.random((M, N))
        x = rng.random(M if transpose else N)
        expected = A.T @ x if transpose else A @ x

        def work(comm):
            grid = ProcessGrid(comm.size)
            la = scatter_blocks(A, grid, comm.rank)
            return pgemv(comm, grid, la, _x_block(x, grid, comm.rank,
                                                  transpose, M, N),
                         (M, N), transpose=transpose)

        def _x_block(vec, grid, rank, tr, m, n):
            from repro.distributed.block import block_bounds

            row, col = grid.coords(rank)
            if not tr:
                lo, hi = block_bounds(n, grid.dims[1], col)
            else:
                lo, hi = block_bounds(m, grid.dims[0], row)
            return vec[lo:hi]

        # pblas_rt.pgemv returns the rank's row/column block, replicated
        # along the orthogonal grid dimension
        from repro.distributed.block import block_bounds

        grid = ProcessGrid(4)
        results, _, _ = run_spmd(work, 4)
        for rank, result in enumerate(results):
            row, col = grid.coords(rank)
            if not transpose:
                lo, hi = block_bounds(M, grid.dims[0], row)
            else:
                lo, hi = block_bounds(N, grid.dims[1], col)
            assert np.allclose(result, expected[lo:hi]), rank

    def test_ptran_square_grid(self):
        rng = np.random.default_rng(2)
        A = rng.random((8, 12))

        def work(comm):
            grid = ProcessGrid(comm.size)
            la = scatter_blocks(A, grid, comm.rank)
            return ptran(comm, grid, la, (8, 12))

        results, _, _ = run_spmd(work, 4)
        T = assemble(results, ProcessGrid(4), (12, 8))
        assert np.allclose(T, A.T)


class TestExplicitComm:
    def test_block_scatter_gather_roundtrip(self):
        A = np.arange(48, dtype=np.float64).reshape(8, 6)

        def work(comm):
            from repro.distributed.context import DistContext
            from repro.runtime.context import ExecutionContext, installed

            with installed(ExecutionContext(dist=DistContext(comm))):
                block = repro.comm.BlockScatter(A)
                return repro.comm.BlockGather(block, A.shape)

        results, _, _ = run_spmd(work, 4)
        for result in results:
            assert np.allclose(result, A)

    def test_halo_exchange_neighbors(self):
        def work(comm):
            from repro.distributed.context import DistContext
            from repro.runtime.context import ExecutionContext, installed

            with installed(ExecutionContext(dist=DistContext(comm))):
                padded = np.full((4, 4), float(comm.rank))
                repro.comm.HaloExchange(padded)
                return padded

        results, _, _ = run_spmd(work, 4)   # 2x2 grid
        # rank 0's east halo comes from rank 1, south halo from rank 2
        assert np.allclose(results[0][1:-1, -1], 1.0)
        assert np.allclose(results[0][-1, 1:-1], 2.0)
        # interior untouched
        assert np.allclose(results[0][1:-1, 1:-1], 0.0)

    def test_comm_outside_context_fails(self):
        with pytest.raises(RuntimeError):
            repro.comm.BlockScatter(np.zeros((4, 4)))


class TestExplicitDistributedProgram:
    def test_jacobi_2d_matches_shared_memory(self):
        lNx = repro.symbol("lNx")
        lNy = repro.symbol("lNy")
        noff = repro.symbol("noff")
        soff = repro.symbol("soff")
        woff = repro.symbol("woff")
        eoff = repro.symbol("eoff")
        N_ = repro.symbol("N")

        @repro.program
        def j2d_dist(TSTEPS: repro.int32, A: repro.float64[N_, N_],
                     B: repro.float64[N_, N_]):
            lA = np.zeros((lNx + 2, lNy + 2))
            lB = np.zeros((lNx + 2, lNy + 2))
            lA[1:-1, 1:-1] = repro.comm.BlockScatter(A, (lNx, lNy))
            lB[1:-1, 1:-1] = repro.comm.BlockScatter(B, (lNx, lNy))
            for t in range(1, TSTEPS):
                repro.comm.HaloExchange(lA)
                lB[1 + noff:lNx + 1 - soff, 1 + woff:lNy + 1 - eoff] = 0.2 * (
                    lA[1 + noff:lNx + 1 - soff, 1 + woff:lNy + 1 - eoff]
                    + lA[1 + noff:lNx + 1 - soff, woff:lNy - eoff]
                    + lA[1 + noff:lNx + 1 - soff, 2 + woff:lNy + 2 - eoff]
                    + lA[2 + noff:lNx + 2 - soff, 1 + woff:lNy + 1 - eoff]
                    + lA[noff:lNx - soff, 1 + woff:lNy + 1 - eoff])
                repro.comm.HaloExchange(lB)
                lA[1 + noff:lNx + 1 - soff, 1 + woff:lNy + 1 - eoff] = 0.2 * (
                    lB[1 + noff:lNx + 1 - soff, 1 + woff:lNy + 1 - eoff]
                    + lB[1 + noff:lNx + 1 - soff, woff:lNy - eoff]
                    + lB[1 + noff:lNx + 1 - soff, 2 + woff:lNy + 2 - eoff]
                    + lB[2 + noff:lNx + 2 - soff, 1 + woff:lNy + 1 - eoff]
                    + lB[noff:lNx - soff, 1 + woff:lNy + 1 - eoff])
            A[:] = repro.comm.BlockGather(lA[1:-1, 1:-1], (N_, N_))
            B[:] = repro.comm.BlockGather(lB[1:-1, 1:-1], (N_, N_))

        def offsets(rank, grid):
            nb = grid.neighbors(rank)
            return {"noff": 1 if nb["north"] < 0 else 0,
                    "soff": 1 if nb["south"] < 0 else 0,
                    "woff": 1 if nb["west"] < 0 else 0,
                    "eoff": 1 if nb["east"] < 0 else 0}

        rng = np.random.default_rng(0)
        n = 12
        A0, B0 = rng.random((n, n)), rng.random((n, n))
        Ar, Br = A0.copy(), B0.copy()
        for t in range(1, 4):
            Br[1:-1, 1:-1] = 0.2 * (Ar[1:-1, 1:-1] + Ar[1:-1, :-2]
                                    + Ar[1:-1, 2:] + Ar[2:, 1:-1]
                                    + Ar[:-2, 1:-1])
            Ar[1:-1, 1:-1] = 0.2 * (Br[1:-1, 1:-1] + Br[1:-1, :-2]
                                    + Br[1:-1, 2:] + Br[2:, 1:-1]
                                    + Br[:-2, 1:-1])
        Ad, Bd = A0.copy(), B0.copy()
        result = run_distributed(j2d_dist, 4, TSTEPS=4, A=Ad, B=Bd,
                                 lNx=n // 2, lNy=n // 2, rank_args=offsets)
        assert np.allclose(Ad, Ar)
        assert np.allclose(Bd, Br)
        assert result.modeled_time > 0
        assert result.comm_stats["messages"] > 0


class TestDistributionTransformations:
    def _gemm_program(self):
        @repro.program
        def gemm(alpha: repro.float64, beta: repro.float64,
                 C: repro.float64[NI, NJ], A: repro.float64[NI, NK],
                 B: repro.float64[NK, NJ]):
            C[:] = alpha * A @ B + beta * C

        return gemm

    def test_elementwise_distribution_functional(self):
        @repro.program
        def scale(alpha: repro.float64, A: repro.float64[NI, NJ],
                  B: repro.float64[NI, NJ]):
            B[:] = alpha * A

        sdfg = scale.to_sdfg().clone()
        assert sdfg.apply(DistributeElementWiseArrayOp) == 1
        A = np.arange(24, dtype=np.float64).reshape(4, 6)
        B = np.zeros((4, 6))
        run_distributed(sdfg, 4, alpha=3.0, A=A, B=B)
        assert np.allclose(B, 3 * A)

    def test_full_gemm_pipeline(self):
        """§4.2: distribute + PBLAS + redundant-communication elimination,
        exactly the paper's three-call recipe."""
        sdfg = self._gemm_program().to_sdfg().clone()
        n_dist = sdfg.apply(DistributeElementWiseArrayOp)
        n_pblas = sdfg.expand_library_nodes(implementation="PBLAS")
        n_removed = sdfg.apply(RemoveRedundantComm)
        assert n_dist == 3          # alpha*A, beta*C, tmp1+tmp2
        assert n_pblas == 1
        assert n_removed >= 2       # Fig. 11: tmp1 and tmp2 round trips

        rng = np.random.default_rng(5)
        M, K, N = 12, 8, 16
        A, B, C = rng.random((M, K)), rng.random((K, N)), rng.random((M, N))
        expected = 1.5 * A @ B + 0.5 * C
        run_distributed(sdfg, 4, alpha=1.5, beta=0.5, C=C, A=A, B=B)
        assert np.allclose(C, expected)

    def test_redundant_comm_reduces_messages(self):
        base = self._gemm_program().to_sdfg().clone()
        base.apply(DistributeElementWiseArrayOp)
        base.expand_library_nodes(implementation="PBLAS")
        optimized = base.clone()
        optimized.apply(RemoveRedundantComm)

        rng = np.random.default_rng(6)
        M, K, N = 8, 8, 8
        def args():
            return dict(alpha=1.0, beta=1.0, C=rng.random((M, N)),
                        A=rng.random((M, K)), B=rng.random((K, N)))

        r_base = run_distributed(base, 4, **args())
        r_opt = run_distributed(optimized, 4, **args())
        assert r_opt.comm_stats["bytes"] < r_base.comm_stats["bytes"]

    def test_final_gather_preserved(self):
        """Program outputs must still be gathered (non-transient globals)."""
        sdfg = self._gemm_program().to_sdfg().clone()
        sdfg.apply(DistributeElementWiseArrayOp)
        sdfg.expand_library_nodes(implementation="PBLAS")
        sdfg.apply(RemoveRedundantComm)
        gathers = [n for n, _ in sdfg.all_nodes_recursive()
                   if isinstance(n, Tasklet)
                   and getattr(n, "comm_op", {}).get("kind") == "gather"]
        assert any(sdfg.arrays[g.comm_op["global"]].transient is False
                   for g in gathers)

    def test_pgemv_distribution(self):
        M_ = repro.symbol("M")
        N_ = repro.symbol("N")

        @repro.program
        def atax(A: repro.float64[M_, N_], x: repro.float64[N_],
                 y: repro.float64[N_]):
            y[:] = (A @ x) @ A

        sdfg = atax.to_sdfg().clone()
        sdfg.expand_library_nodes(implementation="PBLAS")
        sdfg.apply(DeduplicateComm)
        rng = np.random.default_rng(7)
        A = rng.random((12, 8))
        x = rng.random(8)
        y = np.zeros(8)
        run_distributed(sdfg, 4, A=A, x=x, y=y)
        assert np.allclose(y, A.T @ (A @ x))
