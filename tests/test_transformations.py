"""Tests for the dataflow-coarsening pass (§2.4) and the auto-optimization
transformations (§3.1)."""

import numpy as np
import pytest

import repro
from repro.autoopt import auto_optimize
from repro.codegen import compile_sdfg
from repro.config import Config
from repro.ir import SDFG, InterstateEdge, MapEntry, Memlet, Tasklet
from repro.ir.data import AllocationLifetime, StorageType
from repro.ir.nodes import ScheduleType
from repro.symbolic import Symbol
from repro.transformations.dataflow import (DegenerateMapRemoval,
                                            GreedySubgraphFusion, LoopToMap,
                                            MapCollapse, RedundantReadCopy,
                                            RedundantWriteCopy, StateFusion,
                                            TileWCRMaps,
                                            TransientAllocationMitigation)

N = repro.symbol("N")


def count_maps(sdfg):
    return sum(1 for n, _ in sdfg.all_nodes_recursive()
               if isinstance(n, MapEntry))


class TestStateFusion:
    def test_fuses_chain(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = (A + 1.0) * 2.0

        unfused = prog.to_sdfg(simplify=False)
        before = unfused.number_of_states()
        fused = prog.to_sdfg(simplify=True)
        assert fused.number_of_states() < before

    def test_preserves_war_ordering(self):
        """Write-after-read across fused states must keep NumPy semantics."""
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 2.0     # reads A
            A[:] = B + 1.0     # writes A afterwards

        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        expected_B = A * 2
        expected_A = expected_B + 1
        prog(A=A, B=B)
        assert np.allclose(B, expected_B)
        assert np.allclose(A, expected_A)

    def test_does_not_fuse_conditional_edges(self):
        sdfg = SDFG("cond")
        sdfg.add_scalar("x", repro.float64)
        a = sdfg.add_state()
        b = sdfg.add_state()
        sdfg.add_edge(a, b, InterstateEdge("x > 0"))
        assert StateFusion.apply_repeated(sdfg) == 0

    def test_does_not_fuse_assignments(self):
        sdfg = SDFG("assign")
        a = sdfg.add_state()
        b = sdfg.add_state()
        sdfg.add_edge(a, b, InterstateEdge(assignments={"i": "0"}))
        assert StateFusion.apply_repeated(sdfg) == 0


class TestRedundantCopies:
    def test_slice_reads_composed(self):
        """B[1:-1] = f(A[:-2], A[2:]) must not copy the slices."""
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[1:-1] = A[:-2] + A[2:]

        sdfg = prog.to_sdfg()
        # after coarsening no transient copies remain
        transients = [name for name, desc in sdfg.arrays.items()
                      if desc.transient and not name.startswith("__return")]
        assert not transients
        A = np.arange(6, dtype=np.float64)
        B = np.zeros(6)
        prog(A=A, B=B)
        assert np.allclose(B[1:-1], A[:-2] + A[2:])

    def test_squeezed_row_read(self):
        @repro.program
        def prog(A: repro.float64[N, N], v: repro.float64[N]):
            v[:] = A[0, :] + A[1, :]

        A = np.arange(16, dtype=np.float64).reshape(4, 4)
        v = np.zeros(4)
        prog(A=A, v=v)
        assert np.allclose(v, A[0] + A[1])

    def test_inplace_overlap_preserves_semantics(self):
        """A[1:-1] = f(A[...]) reads the OLD values (NumPy semantics); the
        write-side fold must not break this."""
        @repro.program
        def prog(A: repro.float64[N]):
            A[1:-1] = A[:-2] + A[2:]

        A = np.arange(6, dtype=np.float64)
        expected = A.copy()
        expected[1:-1] = A[:-2] + A[2:]
        prog(A=A)
        assert np.allclose(A, expected)

    def test_return_copy_not_removed(self):
        @repro.program
        def prog(A: repro.float64[N]):
            return np.sum(A)

        assert prog(A=np.ones(4)) == 4.0

    def test_copy_kept_when_a_reader_runs_after_the_overwrite(self):
        """``snapshot`` is read after ``A`` was overwritten: reading ``A``
        in its place would see the new contents (the parent commit did)."""
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            snapshot = A.copy()
            A += 100.0
            B[:] = snapshot + A

        assert "snapshot" in prog.to_sdfg().arrays
        A = np.arange(3, dtype=np.float64)
        B = np.zeros(3)
        prog(A=A, B=B)
        assert np.allclose(B, 2 * np.arange(3) + 100)
        A = np.arange(3, dtype=np.float64)
        compile_sdfg(auto_optimize(prog.to_sdfg().clone()))(A=A, B=B)
        assert np.allclose(B, 2 * np.arange(3) + 100)

    def test_copy_removed_when_dataflow_already_orders_the_overwrite(self):
        """cholesky's inner update: the slices are read by the computation
        that feeds the write, so no copy is needed — and nothing of the
        copies may stay behind."""
        @repro.program
        def prog(A: repro.float64[N, N]):
            for i in range(1, N):
                A[i, i] -= np.dot(A[i, :i], A[i - 1, :i])

        sdfg = prog.to_sdfg()
        assert [n for n, d in sdfg.arrays.items()
                if d.transient and not d.free_symbols] != []
        for state in sdfg.states():
            for node in state.data_nodes():
                edges = state.in_edges(node) + state.out_edges(node)
                assert not all(e.memlet.is_empty() for e in edges), \
                    (state.label, node.data)
        A = np.arange(16, dtype=np.float64).reshape(4, 4)
        expected = A.copy()
        for i in range(1, 4):
            expected[i, i] -= np.dot(expected[i, :i], expected[i - 1, :i])
        prog(A=A)
        assert np.allclose(A, expected)


class TestOrderingOnlyAccessNodes:
    """DeadDataflowElimination also drops source/sink access nodes whose
    every edge is an empty memlet."""

    def _graph(self):
        sdfg = SDFG("ordering")
        sdfg.add_array("A", (N,), repro.float64)
        for name in ("src_only", "sink_only", "between"):
            sdfg.add_transient(name, (N,), repro.float64)
        state = sdfg.add_state()
        tasklet, _, exit_ = state.add_mapped_tasklet(
            "m", {"i": "0:N"}, {}, "__out = 1.0", {"__out": Memlet("A", "i")})
        entry = exit_.entry_node
        state.add_nedge(state.add_access("src_only"), entry, Memlet.empty())
        state.add_nedge(exit_, state.add_access("sink_only"), Memlet.empty())
        # on a path between two other nodes: this one does order something
        between = state.add_access("between")
        second, _, exit2 = state.add_mapped_tasklet(
            "m2", {"i": "0:N"}, {}, "__out = 2.0", {"__out": Memlet("A", "i")})
        state.add_nedge(exit_, between, Memlet.empty())
        state.add_nedge(between, exit2.entry_node, Memlet.empty())
        return sdfg, state

    def test_removed_with_their_containers(self):
        from repro.transformations.dataflow import DeadDataflowElimination

        sdfg, state = self._graph()
        assert DeadDataflowElimination.apply_repeated(sdfg) == 1  # one batch
        assert sorted(n.data for n in state.data_nodes()) == \
            ["A", "A", "between"]
        assert "src_only" not in sdfg.arrays
        assert "sink_only" not in sdfg.arrays
        assert "between" in sdfg.arrays
        A = np.zeros(3)
        compile_sdfg(sdfg, cache=False)(A=A)
        assert np.allclose(A, 2.0)   # the ordering that mattered survived

    def test_argument_container_is_kept(self):
        from repro.transformations.dataflow import DeadDataflowElimination

        sdfg = SDFG("ordering_arg")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_array("B", (N,), repro.float64)
        state = sdfg.add_state()
        _, _, exit_ = state.add_mapped_tasklet(
            "m", {"i": "0:N"}, {}, "__out = 1.0", {"__out": Memlet("A", "i")})
        state.add_nedge(state.add_access("B"), exit_.entry_node,
                        Memlet.empty())
        assert DeadDataflowElimination.apply_repeated(sdfg) == 1
        assert [n.data for n in state.data_nodes()] == ["A"]
        assert "B" in sdfg.arrays          # still part of the signature
        compile_sdfg(sdfg, cache=False)(A=np.zeros(2), B=np.zeros(2))


class TestLoopToMap:
    def test_parallel_loop_converted(self):
        @repro.program
        def prog(C: repro.float64[N]):
            for i in range(N):
                C[i] += 1.0

        sdfg = prog.to_sdfg().clone()
        assert LoopToMap.apply_once(sdfg)
        C = np.zeros(4)
        compile_sdfg(sdfg)(C=C)
        assert np.allclose(C, 1)

    def test_sequential_loop_preserved(self):
        @repro.program
        def prog(C: repro.float64[N]):
            for i in range(1, N):
                C[i] = C[i - 1] + 1.0

        sdfg = prog.to_sdfg().clone()
        assert not LoopToMap.apply_once(sdfg)

    def test_reduction_loop_preserved(self):
        @repro.program
        def prog(C: repro.float64[N]):
            total = 0.0
            for i in range(N):
                total += C[i]
            return total

        sdfg = prog.to_sdfg().clone()
        assert not LoopToMap.apply_once(sdfg)

    def test_data_dependent_bound_preserved(self):
        @repro.program
        def prog(C: repro.float64[N], k: repro.int64[1]):
            for i in range(k[0]):
                C[i] += 1.0

        sdfg = prog.to_sdfg().clone()
        assert not LoopToMap.apply_once(sdfg)

    def test_row_parallel_loop(self):
        @repro.program
        def prog(A: repro.float64[N, N]):
            for i in range(N):
                A[i, :] = A[i, :] * 2.0

        sdfg = prog.to_sdfg().clone()
        converted = LoopToMap.apply_once(sdfg)
        A = np.ones((3, 3))
        compile_sdfg(sdfg)(A=A)
        assert np.allclose(A, 2)
        assert converted


class TestFusionCollapseTiling:
    def test_elementwise_chain_fuses(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = (A * 2.0 + 1.0) * A

        sdfg = prog.to_sdfg().clone()
        before = count_maps(sdfg)
        GreedySubgraphFusion.apply_repeated(sdfg)
        after = count_maps(sdfg)
        assert after < before
        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        compile_sdfg(sdfg)(A=A, B=B)
        assert np.allclose(B, (A * 2 + 1) * A)

    def test_stencil_chain_not_fused(self):
        """A consumer reading shifted elements cannot fuse per-point."""
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N], C: repro.float64[N]):
            B[:] = A * 2.0
            C[1:-1] = B[:-2] + B[2:]

        sdfg = prog.to_sdfg().clone()
        before = count_maps(sdfg)
        GreedySubgraphFusion.apply_repeated(sdfg)
        assert count_maps(sdfg) == before

    def test_reversed_read_of_a_written_container_not_fused(self):
        """durbin's ``y[:k] += alpha * np.flip(y[:k])``: a scope reading
        ``y[k-1-i]`` must not fuse with the scope writing ``y[i]``, or each
        point reads what an earlier point overwrote.  The interpreter (also
        with its map scopes in parallel chunks) and the compiled module on
        the optimized graph agree with NumPy."""
        from repro.bench import registry
        from repro.runtime import parallel
        from repro.runtime.executor import run_sdfg

        bench = registry.get("durbin")
        sdfg = auto_optimize(bench.program.to_sdfg(
            **bench.arguments("test")).clone(), device="CPU")

        def chunked(**kw):
            # every CPU_Multicore scope splits into chunks: they must share
            # the outputs sized by the loop variable, not allocate their own
            try:
                with Config.override(parallel__min_work=0,
                                     device__cpu_threads=2):
                    run_sdfg(sdfg.clone(), **kw)
            finally:
                parallel.shutdown_pool()

        reference = bench.arguments("test")
        bench.reference(**reference)
        for run in (lambda **kw: run_sdfg(sdfg.clone(), **kw), chunked,
                    lambda **kw: compile_sdfg(sdfg.clone(), cache=False)(**kw)):
            args = bench.arguments("test")
            run(**args)
            np.testing.assert_allclose(args["y"], reference["y"], rtol=1e-10)

    def test_fusion_keeps_ordering_edges_of_the_absorbed_scope(self):
        """The absorbed scope's ordering edges move to the fused scope: a
        later writer of a container it reads still waits for it (WAR), as
        does the fused scope for an earlier writer of one it writes (WAW,
        tests/fuzz_corpus/case_237 and case_1000084)."""
        @repro.program
        def prog(A: repro.float64[4], B: repro.float64[4],
                 X: repro.float64[4]):
            t0 = np.exp(A)
            for i in repro.map[0:4]:
                B[i] = t0[i] + X[3 - i]
            for i in repro.map[0:4]:
                X[i] = 5.0

        sdfg = prog.to_sdfg().clone()
        before = count_maps(sdfg)
        GreedySubgraphFusion.apply_repeated(sdfg)
        assert count_maps(sdfg) < before
        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        X = np.arange(4, dtype=np.float64) + 1.0
        compile_sdfg(sdfg, cache=False)(A=A, B=B, X=X)
        assert np.allclose(B, np.exp(A) + (np.arange(4) + 1.0)[::-1])
        assert np.allclose(X, 5.0)

    def test_map_collapse(self):
        sdfg = SDFG("nested")
        sdfg.add_array("A", (N, N), repro.float64)
        state = sdfg.add_state()
        outer_entry, outer_exit = state.add_map("outer", ["i"], "0:N")
        inner_entry, inner_exit = state.add_map("inner", ["j"], "0:N")
        tasklet = state.add_tasklet("t", {"__in"}, {"__out"}, "__out = __in + 1")
        read = state.add_read("A")
        write = state.add_write("A")
        outer_entry.add_in_connector("IN_A")
        outer_entry.add_out_connector("OUT_A")
        inner_entry.add_in_connector("IN_A")
        inner_entry.add_out_connector("OUT_A")
        inner_exit.add_in_connector("IN_A")
        inner_exit.add_out_connector("OUT_A")
        outer_exit.add_in_connector("IN_A")
        outer_exit.add_out_connector("OUT_A")
        state.add_edge(read, None, outer_entry, "IN_A", Memlet("A", "0:N, 0:N"))
        state.add_edge(outer_entry, "OUT_A", inner_entry, "IN_A",
                       Memlet("A", "i, 0:N"))
        state.add_edge(inner_entry, "OUT_A", tasklet, "__in", Memlet("A", "i, j"))
        state.add_edge(tasklet, "__out", inner_exit, "IN_A", Memlet("A", "i, j"))
        state.add_edge(inner_exit, "OUT_A", outer_exit, "IN_A",
                       Memlet("A", "i, 0:N"))
        state.add_edge(outer_exit, "OUT_A", write, None, Memlet("A", "0:N, 0:N"))
        sdfg.validate()
        assert MapCollapse.apply_once(sdfg)
        entries = [n for n, _ in sdfg.all_nodes_recursive()
                   if isinstance(n, MapEntry)]
        assert len(entries) == 1
        assert len(entries[0].map.params) == 2
        A = np.zeros((3, 3))
        compile_sdfg(sdfg)(A=A)
        assert np.allclose(A, 1)

    def test_tile_wcr_maps(self):
        @repro.program
        def prog(A: repro.float64[N]):
            return np.sum(A)

        sdfg = prog.to_sdfg().clone()
        sdfg.expand_library_nodes(implementation="native")
        with Config.override(optimizer__tile_size=16):
            TileWCRMaps.apply_repeated(sdfg)
        tiled = [n for n, _ in sdfg.all_nodes_recursive()
                 if isinstance(n, MapEntry) and n.map.tile_sizes]
        assert tiled
        assert tiled[0].map.tile_sizes == (16,)


class TestTransientAllocation:
    def test_small_array_to_stack(self):
        sdfg = SDFG("stack")
        sdfg.add_transient("tiny", (8,), repro.float64)
        state = sdfg.add_state()
        state.add_access("tiny")
        TransientAllocationMitigation.apply_repeated(sdfg)
        assert sdfg.arrays["tiny"].storage is StorageType.CPU_Stack

    def test_input_sized_becomes_persistent(self):
        sdfg = SDFG("persist")
        sdfg.add_array("A", (N,), repro.float64)
        sdfg.add_transient("tmp", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_access("tmp")
        TransientAllocationMitigation.apply_repeated(sdfg)
        assert sdfg.arrays["tmp"].lifetime is AllocationLifetime.Persistent


class TestAutoOptimize:
    def test_cpu_schedules(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A + 1.0

        sdfg = prog.to_sdfg().clone()
        auto_optimize(sdfg, device="CPU")
        entries = [n for n, _ in sdfg.all_nodes_recursive()
                   if isinstance(n, MapEntry)]
        assert all(e.map.schedule is ScheduleType.CPU_Multicore for e in entries)

    def test_gpu_schedules_and_storage(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = (A + 1.0) * 2.0

        sdfg = prog.to_sdfg().clone()
        auto_optimize(sdfg, device="GPU")
        entries = [n for n, _ in sdfg.all_nodes_recursive()
                   if isinstance(n, MapEntry)]
        assert all(e.map.schedule is ScheduleType.GPU_Device for e in entries)

    def test_fpga_streaming_composition(self):
        """A producer/consumer pair reading in write order becomes a stream."""
        @repro.program
        def prog(A: repro.float64[N], C: repro.float64[N]):
            B = A * 2.0
            C[:] = B + 1.0

        sdfg = prog.to_sdfg().clone()
        auto_optimize(sdfg, device="FPGA", passes={"fusion": False})
        streamed = [name for name, desc in sdfg.arrays.items()
                    if getattr(desc, "fpga_streamed", False)]
        assert streamed

    def test_pass_ablation_flags(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = (A * 2.0 + 1.0) * A

        fused = prog.to_sdfg().clone()
        auto_optimize(fused, device="CPU")
        unfused = prog.to_sdfg().clone()
        auto_optimize(unfused, device="CPU", passes={"fusion": False})
        assert count_maps(fused) < count_maps(unfused)

    def test_unknown_device_rejected(self):
        @repro.program
        def prog(A: repro.float64[N]):
            A += 1.0

        with pytest.raises(ValueError):
            auto_optimize(prog.to_sdfg().clone(), device="TPU")

    def test_optimized_results_match_reference(self):
        @repro.program
        def prog(TSTEPS: repro.int32, A: repro.float64[N], B: repro.float64[N]):
            for t in range(1, TSTEPS):
                B[1:-1] = 0.33333 * (A[:-2] + A[1:-1] + A[2:])
                A[1:-1] = 0.33333 * (B[:-2] + B[1:-1] + B[2:])

        for device in ("CPU", "GPU", "FPGA"):
            sdfg = prog.to_sdfg().clone()
            auto_optimize(sdfg, device=device)
            rng = np.random.default_rng(3)
            A = rng.random(20)
            B = rng.random(20)
            Ar, Br = A.copy(), B.copy()
            for t in range(1, 5):
                Br[1:-1] = 0.33333 * (Ar[:-2] + Ar[1:-1] + Ar[2:])
                Ar[1:-1] = 0.33333 * (Br[:-2] + Br[1:-1] + Br[2:])
            compile_sdfg(sdfg)(TSTEPS=5, A=A, B=B)
            assert np.allclose(A, Ar), device


class TestDegenerateMaps:
    def test_size_one_map_removed(self):
        sdfg = SDFG("degen")
        sdfg.add_array("A", (N,), repro.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet("m", {"i": "3:4"},
                                 {"__in": Memlet("A", "i")},
                                 "__out = __in + 1",
                                 {"__out": Memlet("A", "i")})
        assert DegenerateMapRemoval.apply_once(sdfg)
        assert count_maps(sdfg) == 0
        A = np.zeros(6)
        compile_sdfg(sdfg)(A=A)
        assert A[3] == 1.0 and A[0] == 0.0


class TestInlineNestedSDFG:
    def test_single_state_callee_inlined(self):
        from repro.ir import NestedSDFG

        @repro.program
        def callee(X: repro.float64[N]):
            X[:] = X * 2.0 + 1.0

        @repro.program
        def caller(A: repro.float64[N]):
            callee(A)

        sdfg = caller.to_sdfg()
        nested = [n for n, _ in sdfg.all_nodes_recursive()
                  if isinstance(n, NestedSDFG)]
        assert not nested, "single-state callee should inline during simplify"
        A = np.arange(4, dtype=np.float64)
        compile_sdfg(sdfg)(A=A)
        assert np.allclose(A, np.arange(4) * 2 + 1)

    def test_inlined_callee_fuses_with_caller(self):
        from repro.ir import MapEntry

        @repro.program
        def scale(X: repro.float64[N]):
            X *= 2.0

        @repro.program
        def caller(A: repro.float64[N], B: repro.float64[N]):
            scale(A)
            B[:] = A + 1.0

        sdfg = caller.to_sdfg().clone()
        auto_optimize(sdfg, device="CPU")
        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        compile_sdfg(sdfg)(A=A, B=B)
        assert np.allclose(A, np.arange(4) * 2)
        assert np.allclose(B, A + 1)

    def test_multi_state_callee_stays_nested(self):
        from repro.ir import NestedSDFG

        @repro.program
        def loopy(X: repro.float64[N], T: repro.int32):
            for t in range(T):
                X[0] += 1.0   # sequential: keeps multiple states

        @repro.program
        def caller(A: repro.float64[N]):
            loopy(A, 3)

        sdfg = caller.to_sdfg()
        nested = [n for n, _ in sdfg.all_nodes_recursive()
                  if isinstance(n, NestedSDFG)]
        assert nested, "multi-state callee must remain a nested SDFG"
        A = np.zeros(4)
        compile_sdfg(sdfg)(A=A)
        assert A[0] == 3.0

    def test_inline_transient_renamed(self):
        @repro.program
        def callee(X: repro.float64[N], Y: repro.float64[N]):
            tmp = X * 3.0
            Y[:] = tmp + 1.0

        @repro.program
        def caller(A: repro.float64[N], B: repro.float64[N]):
            callee(A, B)

        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        caller(A=A, B=B)
        assert np.allclose(B, A * 3 + 1)
