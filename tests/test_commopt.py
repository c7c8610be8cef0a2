"""Communication-aware distributed optimizer (DESIGN.md §13).

Covers the overlap and dedup passes end to end on the comm corpus
(eager-vs-optimized bitwise equality, with and without injected faults),
the measured overlap benefit on jacobi, the >=20% pgemm volume saving,
the write-set negative case that must block dedup, the halo-extent
validation fix, envelope coalescing, and the CommReport schema.
"""

import numpy as np
import pytest

import repro
import repro.comm
from repro.config import Config
from repro.distributed.commopt import (HaloExtentError, dedup_collectives,
                                       optimize_comm, overlap_halo_exchanges,
                                       validate_halo_extents)
from repro.distributed.commopt.corpus import KERNELS, kernel, run_kernel
from repro.distributed.commopt.dedup import (_dedup_candidates,
                                             written_containers)
from repro.distributed.commopt.report import SCHEMA, CommReport
from repro.simmpi import FaultPlan, run_spmd
from repro.transformations.distributed import (DeduplicateCollectives,
                                               OverlapHaloExchange)

RANKS = 4


@pytest.fixture(autouse=True)
def _authoritative_optimize_flag(monkeypatch):
    # the CI matrix leg exports REPRO_COMM_OPT=1, which would silently
    # optimize the eager baselines these tests compare against; the
    # run_kernel optimize flag must stay authoritative here
    monkeypatch.delenv("REPRO_COMM_OPT", raising=False)


def _run_pair(name, fault_plan=None, seed=0):
    eager, eres = run_kernel(name, RANKS, optimize=False, seed=seed,
                             fault_plan=fault_plan)
    opt, ores = run_kernel(name, RANKS, optimize=True, seed=seed,
                           fault_plan=fault_plan)
    return eager, eres, opt, ores


class TestBitwiseEquality:
    @pytest.mark.parametrize("name", KERNELS)
    def test_optimized_matches_eager(self, name):
        eager, _, opt, ores = _run_pair(name)
        assert sum(ores.comm_report.applied.values()) > 0, \
            f"{name}: optimizer applied nothing, equality is vacuous"
        for out, value in eager.items():
            assert np.array_equal(value, opt[out]), \
                f"{name}: output {out} diverged under optimization"

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("fault_seed", [1, 2])
    def test_optimized_matches_eager_under_faults(self, name, fault_seed):
        # transient drops force the retransmit path under both protocols;
        # values (not clocks) must stay bitwise identical
        plan = FaultPlan(seed=fault_seed, drop_prob=1.0, max_drops=4)
        eager, _, opt, _ = _run_pair(name, fault_plan=plan, seed=fault_seed)
        for out, value in eager.items():
            assert np.array_equal(value, opt[out]), \
                f"{name}: output {out} diverged under faults (seed {fault_seed})"


class TestOverlap:
    def test_jacobi_rewrites_both_halo_sites(self):
        sdfg = kernel("jacobi").build_sdfg()
        assert overlap_halo_exchanges(sdfg) == 2
        sdfg.validate()
        # fixpoint: a rewritten site no longer matches
        assert overlap_halo_exchanges(sdfg) == 0

    def test_jacobi_overlap_hides_wait(self):
        # with a slow modeled stencil the interior compute credit covers the
        # entire wire time: the optimized wait must drop below eager's
        with Config.override(commopt__stencil_gflops=1e-4):
            _, eres, _, ores = _run_pair("jacobi")
        eager_wait = eres.comm_report.wait_s("HaloExchange")
        opt_wait = ores.comm_report.wait_s("HaloFinish")
        assert eager_wait > 0.0
        assert opt_wait < eager_wait
        assert ores.commopt_stats.get("overlap_credit_s", 0.0) > 0.0

    def test_transformation_wrapper_applies(self):
        sdfg = kernel("jacobi").build_sdfg()
        assert sdfg.apply(OverlapHaloExchange) == 2


class TestDedup:
    def test_pgemm_saves_twenty_percent(self):
        _, eres, _, ores = _run_pair("pgemm")
        assert ores.comm_report.applied["dedup"] == 2
        saved = 1.0 - ores.comm_report.total_bytes / eres.comm_report.total_bytes
        assert saved >= 0.20, f"only {saved:.1%} comm bytes saved"

    def test_written_buffer_blocks_dedup(self):
        # negative case: jacobi gathers back into A and B, so the pass must
        # prove them written and refuse to memoize their scatters
        sdfg = kernel("jacobi").build_sdfg()
        written = written_containers(sdfg)
        assert {"A", "B"} <= written
        assert not list(_dedup_candidates(sdfg, written))
        assert dedup_collectives(sdfg) == 0

    def test_pgemm_candidates_are_loop_invariant_operands(self):
        sdfg = kernel("pgemm").build_sdfg()
        written = written_containers(sdfg)
        assert "C" in written          # iterated accumulator: never dedupable
        assert len(list(_dedup_candidates(sdfg, written))) == 2
        assert sdfg.apply(DeduplicateCollectives) == 2

    def test_optimize_comm_respects_config_gates(self):
        sdfg = kernel("pgemm").build_sdfg()
        with Config.override(commopt__dedup=False):
            assert optimize_comm(sdfg)["dedup"] == 0
        assert optimize_comm(sdfg)["dedup"] == 2


class TestEnvGate:
    def test_repro_comm_opt_env_forces_optimization(self, monkeypatch):
        # the CI matrix leg flips this env var; the runner must honor it
        # even when commopt.enabled is off
        monkeypatch.setenv("REPRO_COMM_OPT", "1")
        _, result = run_kernel("pgemm", RANKS, optimize=False)
        assert result.comm_report.optimized
        assert result.comm_report.applied["dedup"] == 2


class TestHaloExtents:
    def test_too_small_block_raises_structured_error(self):
        with pytest.raises(HaloExtentError) as exc:
            validate_halo_extents((2, 8), 1, {"north": 1, "south": -1}, 3)
        err = exc.value
        assert (err.dim, err.extent, err.halo, err.rank) == ("rows", 0, 1, 3)
        assert "rank 3" in str(err)

    def test_isolated_rank_needs_no_extent(self):
        # no neighbors on the undersized axis: nothing is exchanged there
        validate_halo_extents((2, 8), 1, {"north": -1, "south": -1,
                                          "west": 0, "east": -1}, 1)

    def test_halo_exchange_end_to_end_rejects_thin_blocks(self):
        def work(comm):
            from repro.distributed.context import DistContext
            from repro.runtime.context import ExecutionContext, installed

            with installed(ExecutionContext(dist=DistContext(comm))):
                padded = np.zeros((2, 4))   # zero interior rows on a 2x2 grid
                with pytest.raises(HaloExtentError):
                    repro.comm.HaloExchange(padded)
                return True

        results, _, _ = run_spmd(work, 4)
        assert all(results)


class TestCoalescing:
    def test_envelope_roundtrip(self):
        from repro.distributed.commopt.runtime import (coalesce_recv,
                                                       coalesce_send)

        shapes = [(3,), (2, 2), (1, 4)]
        payloads = [np.arange(3.0), np.arange(4.0).reshape(2, 2),
                    np.arange(4.0, 8.0).reshape(1, 4)]

        def work(comm):
            if comm.rank == 0:
                req = coalesce_send(comm, 1, tag=42, payloads=payloads)
                req.wait()
                return True
            got = coalesce_recv(comm, 0, tag=42, shapes=shapes,
                                dtype=np.float64)
            return all(np.array_equal(a, b) for a, b in zip(got, payloads,
                                                            strict=True))

        results, _, stats = run_spmd(work, 2)
        assert all(results)
        assert stats["messages"] == 1   # three payloads, one envelope


class TestCommReport:
    def test_schema_and_roundtrip(self):
        _, result = run_kernel("pgemv", RANKS, optimize=True)
        report = result.comm_report
        doc = report.to_dict()
        assert doc["schema"] == SCHEMA
        clone = CommReport.from_dict(doc)
        assert clone.to_dict() == doc
        assert clone.total_bytes == report.total_bytes
        assert "BlockScatter" in report.ops or "PanelBcast" in report.ops

    def test_eager_report_predicts_overlap_benefit(self):
        with Config.override(commopt__stencil_gflops=1e-4):
            _, eres, _, ores = _run_pair("jacobi")
        # the eager report's prediction is its own halo wait; the optimized
        # run realizes (at least) that much benefit
        assert eres.comm_report.predicted_overlap_s > 0.0
        assert not eres.comm_report.optimized
        assert ores.comm_report.optimized
