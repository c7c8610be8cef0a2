"""Resilience-layer tests: transactional transformations, graceful
degradation, and fault injection for the simulated MPI runtime."""

import time
import warnings

import numpy as np
import pytest

import repro
from repro import Config
from repro.cache import fingerprint
from repro.ir import SDFG, AccessNode, InvalidSDFGError, Memlet
from repro.resilience import (FailureReport, OscillationDetector, Quarantine,
                              ResilienceWarning, SDFGSnapshot,
                              transactional_apply)
from repro.runtime.executor import run_sdfg
from repro.simmpi import (DeadlockError, FaultPlan, Request, SimMPIError,
                          run_spmd)
from repro.transformations import pipeline
from repro.transformations.base import Transformation

N = repro.symbol("N")


def scale_sdfg():
    """B[i] = 2 * A[i] over a symbolic range."""
    sdfg = SDFG("scale")
    sdfg.add_array("A", (N,), repro.float64)
    sdfg.add_array("B", (N,), repro.float64)
    state = sdfg.add_state("s0")
    state.add_mapped_tasklet(
        "scale", {"i": "0:N"},
        {"__in": Memlet("A", "i")}, "__out = 2 * __in",
        {"__out": Memlet("B", "i")})
    return sdfg


class ExplodingPass(Transformation):
    """Always matches; raises while applying."""

    name = "ExplodingPass"
    applications = 0

    @classmethod
    def matches(cls, sdfg, **options):
        yield "boom"

    @classmethod
    def apply_match(cls, sdfg, match, **options):
        ExplodingPass.applications += 1
        raise RuntimeError("kaboom")


class CorruptingPass(Transformation):
    """Leaves an invalid SDFG behind (access node without a container)."""

    name = "CorruptingPass"

    @classmethod
    def matches(cls, sdfg, **options):
        for state in sdfg.states():
            if not any(isinstance(n, AccessNode) and n.data == "__corrupt"
                       for n in state.nodes()):
                yield state
                return

    @classmethod
    def apply_match(cls, sdfg, state, **options):
        state.add_node(AccessNode("__corrupt"))


class AddMarkerPass(Transformation):
    name = "AddMarkerPass"

    @classmethod
    def matches(cls, sdfg, **options):
        if "__osc" not in sdfg.arrays:
            yield True

    @classmethod
    def apply_match(cls, sdfg, match, **options):
        sdfg.add_transient("__osc", (1,), repro.float64)


class RemoveMarkerPass(Transformation):
    name = "RemoveMarkerPass"

    @classmethod
    def matches(cls, sdfg, **options):
        if "__osc" in sdfg.arrays:
            yield True

    @classmethod
    def apply_match(cls, sdfg, match, **options):
        del sdfg.arrays["__osc"]


class GrowingPass(Transformation):
    """Never reaches a fixed point: every application adds a new container."""

    name = "GrowingPass"
    counter = 0

    @classmethod
    def matches(cls, sdfg, **options):
        yield True

    @classmethod
    def apply_match(cls, sdfg, match, **options):
        GrowingPass.counter += 1
        sdfg.add_transient(f"__grow{GrowingPass.counter}", (1,), repro.float64)


# ---------------------------------------------------------------------------
# transactional pipeline
# ---------------------------------------------------------------------------

class TestTransactionalPipeline:
    def test_raising_pass_rolled_back(self):
        sdfg = scale_sdfg()
        before = fingerprint(sdfg)
        report = FailureReport()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResilienceWarning)
            applied = transactional_apply(sdfg, ExplodingPass, report=report)
        assert applied == 0
        assert fingerprint(sdfg) == before
        assert len(report.transformation_failures) == 1
        record = report.transformation_failures[0]
        assert record.subject == "ExplodingPass"
        assert record.action == "rolled-back"
        assert "kaboom" in str(record.error)

    def test_corrupting_pass_rolled_back_and_graph_valid(self):
        sdfg = scale_sdfg()
        report = FailureReport()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResilienceWarning)
            applied = transactional_apply(sdfg, CorruptingPass, report=report)
        assert applied == 0
        sdfg.validate()  # corruption was rolled back
        assert not any(isinstance(n, AccessNode) and n.data == "__corrupt"
                       for s in sdfg.states() for n in s.nodes())
        assert isinstance(report.records[0].error, InvalidSDFGError)

    def test_rolled_back_sdfg_still_executes(self):
        sdfg = scale_sdfg()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResilienceWarning)
            transactional_apply(sdfg, CorruptingPass)
        A = np.arange(5, dtype=np.float64)
        B = np.zeros(5)
        run_sdfg(sdfg, A=A, B=B)
        assert np.allclose(B, 2 * A)

    def test_program_correct_despite_buggy_pipeline_pass(self, monkeypatch):
        monkeypatch.setattr(
            pipeline, "SIMPLIFY_TRANSFORMATIONS",
            pipeline.SIMPLIFY_TRANSFORMATIONS + [ExplodingPass, CorruptingPass])

        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 3.0

        A = np.arange(8, dtype=np.float64)
        B = np.zeros(8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResilienceWarning)
            prog(A=A, B=B)
        assert np.allclose(B, A * 3)

    def test_quarantine_after_repeated_failures(self):
        sdfg = scale_sdfg()
        quarantine = Quarantine(threshold=3)
        report = FailureReport()
        ExplodingPass.applications = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResilienceWarning)
            for _ in range(5):
                transactional_apply(sdfg, ExplodingPass, report=report,
                                    quarantine=quarantine)
        assert quarantine.is_quarantined("ExplodingPass")
        assert ExplodingPass.applications == 3  # attempts 4 and 5 were skipped
        assert len(report.records) == 3
        assert report.records[-1].action == "quarantined"

    def test_oscillation_detected_and_named(self, monkeypatch):
        monkeypatch.setattr(pipeline, "SIMPLIFY_TRANSFORMATIONS",
                            [AddMarkerPass, RemoveMarkerPass])
        sdfg = scale_sdfg()
        with pytest.warns(ResilienceWarning,
                          match="oscillating.*AddMarkerPass, RemoveMarkerPass"):
            total = pipeline.simplify_pass(sdfg)
        assert total == 2  # one add + one remove, then the loop stops
        assert "__osc" not in sdfg.arrays

    def test_application_cap_names_runaway_pass(self, monkeypatch):
        monkeypatch.setattr(pipeline, "SIMPLIFY_TRANSFORMATIONS", [GrowingPass])
        sdfg = scale_sdfg()
        with Config.override(resilience__max_pass_applications=7):
            with pytest.warns(ResilienceWarning,
                              match="application cap.*GrowingPass"):
                total = pipeline.simplify_pass(sdfg)
        assert total == 7

    def test_autoopt_step_failure_rolled_back(self, monkeypatch):
        from repro.autoopt import auto_optimize
        from repro.transformations.dataflow.map_collapse import MapCollapse

        def boom(cls, sdfg, match, **options):
            raise RuntimeError("collapse exploded")

        # a step with nothing to apply is skipped before its snapshot, so
        # the exploding pass must claim a match
        monkeypatch.setattr(MapCollapse, "matches",
                            classmethod(lambda cls, sdfg, **o: iter([None])))
        monkeypatch.setattr(MapCollapse, "apply_match", classmethod(boom))
        sdfg = scale_sdfg()
        report = FailureReport()
        with pytest.warns(ResilienceWarning, match="collapse"):
            auto_optimize(sdfg, device="CPU", report=report)
        assert any(r.kind == "optimization" and r.subject == "collapse"
                   for r in report.records)
        A = np.arange(6, dtype=np.float64)
        B = np.zeros(6)
        run_sdfg(sdfg, A=A, B=B)
        assert np.allclose(B, 2 * A)


class TestSnapshot:
    def test_restore_in_place(self):
        sdfg = scale_sdfg()
        before = fingerprint(sdfg)
        snapshot = SDFGSnapshot.capture(sdfg)
        sdfg.add_array("X", (N,), repro.float64)
        sdfg.add_state("junk")
        snapshot.restore(sdfg)
        assert fingerprint(sdfg) == before
        assert "X" not in sdfg.arrays
        for state in sdfg.states():
            assert state.sdfg is sdfg
        A = np.arange(5, dtype=np.float64)
        B = np.zeros(5)
        run_sdfg(sdfg, A=A, B=B)
        assert np.allclose(B, 2 * A)

    def test_restore_twice(self):
        sdfg = scale_sdfg()
        snapshot = SDFGSnapshot.capture(sdfg)
        for _ in range(2):
            sdfg.add_transient("__junk", (1,), repro.float64)
            snapshot.restore(sdfg)
            assert "__junk" not in sdfg.arrays

    def test_oscillation_detector(self):
        sdfg = scale_sdfg()
        detector = OscillationDetector()
        assert not detector.observe(sdfg)
        sdfg.add_transient("__osc", (1,), repro.float64)
        assert not detector.observe(sdfg)
        del sdfg.arrays["__osc"]
        assert detector.observe(sdfg)  # back to the first fingerprint


class TestFailureReport:
    def test_summary_and_flags(self):
        report = FailureReport()
        assert not report
        assert report.summary() == "no failures recorded"
        report.record("transformation", "SomePass", RuntimeError("x"),
                      "rolled-back")
        report.record("degradation", "prog", ValueError("y"),
                      "fell-back:python", stage="compiled")
        assert report and len(report) == 2
        assert len(report.transformation_failures) == 1
        assert len(report.degradations) == 1
        assert "SomePass" in report.summary()
        report.clear()
        assert not report

    def test_to_dict_sanitizes_numpy_exception_payloads(self):
        import json

        report = FailureReport()
        # guards routinely raise with NumPy scalars/arrays in args — e.g.
        # "NaN produced at A[3] = <np.float64>" — which plain json.dumps
        # rejects; to_dict must sanitize them
        err = ValueError("guard tripped", np.float64(3.5), np.arange(4))
        report.record("governor", "prog", err, "terminal-failure",
                      value=np.int32(7), buffer=np.zeros((8, 8)))
        (rec,) = json.loads(json.dumps(report.to_dict()))
        assert rec["error_args"][1] == 3.5
        assert rec["error_args"][2] == [0, 1, 2, 3]
        assert rec["detail"]["value"] == 7
        # large arrays collapse to a shape/dtype summary, not 64 numbers
        assert rec["detail"]["buffer"] == {
            "ndarray": {"shape": [8, 8], "dtype": "float64"}}


# ---------------------------------------------------------------------------
# graceful degradation
# ---------------------------------------------------------------------------

class _PoisonedCompiled:
    """Stand-in for a CompiledSDFG whose execution dies mid-write."""

    def __call__(self, **kwargs):
        for value in kwargs.values():
            if isinstance(value, np.ndarray):
                value[:] = -1.0  # mangle inputs before dying
        raise RuntimeError("simulated runtime crash")


class TestGracefulDegradation:
    def _poison(self, prog, *args, **kwargs):
        prog.compile(*args, **kwargs)
        for key in list(prog._compiled_cache):
            prog._compiled_cache[key] = _PoisonedCompiled()

    def test_degrades_to_interpreter_with_correct_result(self):
        @repro.program
        def triple(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 3.0

        A = np.arange(6, dtype=np.float64)
        B = np.zeros(6)
        with Config.override(resilience__mode="degrade"):
            self._poison(triple, A=A, B=B)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResilienceWarning)
                triple(A=A, B=B)
        # the poisoned stage mangled A in place and died; degradation must
        # have restored the inputs before re-executing
        assert np.allclose(A, np.arange(6))
        assert np.allclose(B, A * 3)
        assert len(triple.failure_report.degradations) == 1
        record = triple.failure_report.degradations[0]
        assert record.detail["stage"] == "compiled"
        assert record.action == "fell-back:interpreter"

    def test_full_chain_to_python_reference(self):
        @repro.program
        def quadruple(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 4.0

        def boom(*args, **kwargs):
            raise RuntimeError("stage unavailable")

        quadruple._compile = boom
        quadruple._parse = boom
        A = np.arange(5, dtype=np.float64)
        B = np.zeros(5)
        with Config.override(resilience__mode="degrade"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResilienceWarning)
                quadruple(A=A, B=B)
        assert np.allclose(B, A * 4)
        actions = [r.action for r in quadruple.failure_report.degradations]
        assert actions == ["fell-back:interpreter", "fell-back:python"]

    def test_strict_mode_raises(self):
        @repro.program
        def double(A: repro.float64[N], B: repro.float64[N]):
            B[:] = A * 2.0

        A = np.arange(4, dtype=np.float64)
        B = np.zeros(4)
        self._poison(double, A=A, B=B)
        with pytest.raises(RuntimeError, match="simulated runtime crash"):
            double(A=A, B=B)
        assert not double.failure_report


# ---------------------------------------------------------------------------
# pre-execution validation
# ---------------------------------------------------------------------------

class TestValidateBeforeExecute:
    def _malformed(self):
        sdfg = SDFG("bad")
        state = sdfg.add_state("s0")
        state.add_node(AccessNode("ghost"))  # undeclared container
        return sdfg

    def test_fails_fast_by_default(self):
        with pytest.raises(InvalidSDFGError, match="ghost"):
            run_sdfg(self._malformed())

    def test_config_key_disables(self):
        with Config.override(validate__before_execute=False):
            run_sdfg(self._malformed())  # dangling node is never reached

    def test_explicit_argument_wins(self):
        with Config.override(validate__before_execute=False):
            with pytest.raises(InvalidSDFGError):
                run_sdfg(self._malformed(), validate=True)


# ---------------------------------------------------------------------------
# fault injection in simulated MPI
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_drop_survived_by_retransmission(self):
        plan = FaultPlan(drop_prob=1.0, max_drops=2)

        def work(comm):
            if comm.rank == 0:
                comm.Send(np.arange(4, dtype=np.float64), 1, tag=5)
            else:
                buf = np.empty(4)
                comm.Recv(buf, 0, tag=5)
                assert np.allclose(buf, np.arange(4))
            return True

        results, clocks, stats = run_spmd(work, 2, fault_plan=plan,
                                          timeout_s=5.0)
        assert results == [True, True]
        assert stats["retransmissions"] == 2
        assert plan.injected["drops"] == 2
        # retransmissions cost virtual time: backoff plus the repeated
        # injection overhead
        assert clocks[0] > 0.0

    def test_unbounded_drops_exhaust_retries(self):
        plan = FaultPlan(drop_prob=1.0)

        def work(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(2), 1)
            else:
                buf = np.empty(2)
                comm.Recv(buf, 0)

        with pytest.raises(SimMPIError, match="lost"):
            run_spmd(work, 2, fault_plan=plan, timeout_s=5.0)

    def test_duplicates_suppressed_by_sequence_numbers(self):
        plan = FaultPlan(duplicate_prob=1.0)

        def work(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.0]), 1, tag=2)
                comm.Send(np.array([2.0]), 1, tag=2)
            else:
                first = np.empty(1)
                second = np.empty(1)
                comm.Recv(first, 0, tag=2)
                comm.Recv(second, 0, tag=2)
                assert first[0] == 1.0 and second[0] == 2.0
            return True

        results, _, stats = run_spmd(work, 2, fault_plan=plan, timeout_s=5.0)
        assert results == [True, True]
        assert stats["duplicates_suppressed"] >= 1
        assert plan.injected["duplicates"] == 2

    def test_delay_advances_receiver_clock(self):
        plan = FaultPlan(delay_prob=1.0, delay_s=0.5)

        def work(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1), 1)
            else:
                buf = np.empty(1)
                comm.Recv(buf, 0)
            return True

        _, clocks, _ = run_spmd(work, 2, fault_plan=plan, timeout_s=5.0)
        assert clocks[1] >= 0.5

    def test_injected_rank_crash(self):
        plan = FaultPlan(crash_rank=1, crash_after_ops=2)

        def work(comm):
            for _ in range(4):
                comm.Barrier()
            return True

        with pytest.raises(SimMPIError, match="injected crash on rank 1"):
            run_spmd(work, 2, fault_plan=plan, timeout_s=5.0)

    def test_seeded_plans_are_deterministic(self):
        plan_a = FaultPlan(seed=7, drop_prob=0.5)
        plan_b = FaultPlan(seed=7, drop_prob=0.5)
        decisions = [plan_a.drop((0, 1, 0)) for _ in range(20)]
        again = [plan_b.drop((0, 1, 0)) for _ in range(20)]
        assert decisions == again
        assert any(decisions) and not all(decisions)


class TestDeadlockDetection:
    def test_unmatched_recv_raises_diagnostic(self):
        def work(comm):
            if comm.rank == 0:
                buf = np.empty(1)
                comm.Recv(buf, 1, tag=9)  # nobody ever sends this
            return True

        start = time.monotonic()
        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(work, 3, timeout_s=0.5)
        assert time.monotonic() - start < 10.0  # bounded, not hanging
        message = str(excinfo.value)
        assert "rank 0" in message
        assert "Recv(source=1, tag=9)" in message
        assert "pending operations" in message
        assert "rank 1" in message and "rank 2" in message

    def test_unmatched_barrier_raises_diagnostic(self):
        def work(comm):
            if comm.rank == 0:
                comm.Barrier()  # rank 1 never joins
            return True

        with pytest.raises(DeadlockError, match="Barrier"):
            run_spmd(work, 2, timeout_s=0.5)

    def test_peer_failure_unblocks_pending_recv(self):
        def work(comm):
            if comm.rank == 0:
                buf = np.empty(1)
                comm.Recv(buf, 1, tag=4)
            else:
                raise ValueError("rank 1 died")

        start = time.monotonic()
        with pytest.raises(SimMPIError, match="rank 1 died"):
            run_spmd(work, 2, timeout_s=30.0)
        # rank 0 must abort promptly on the peer failure, long before
        # its own 30s deadlock timeout
        assert time.monotonic() - start < 10.0


class TestRequestSemantics:
    def test_test_attempts_completion(self):
        def work(comm):
            if comm.rank == 0:
                buf = np.empty(1)
                req = comm.Irecv(buf, 1, tag=3)
                assert req.test() is False  # nothing sent yet
                comm.Barrier()
                deadline = time.monotonic() + 5.0
                while not req.test():
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                assert buf[0] == 42.0
                req.wait()  # no-op after test() completed the operation
            else:
                comm.Barrier()
                comm.Send(np.array([42.0]), 0, tag=3)
            return True

        results, _, _ = run_spmd(work, 2, timeout_s=10.0)
        assert results == [True, True]

    def test_waitall_alias(self):
        def work(comm):
            partner = 1 - comm.rank
            recv = np.empty(2)
            reqs = [comm.Irecv(recv, partner, tag=6),
                    comm.Isend(np.full(2, float(comm.rank)), partner, tag=6)]
            Request.Waitall(reqs)
            assert np.allclose(recv, partner)
            return True

        run_spmd(work, 2, timeout_s=10.0)
