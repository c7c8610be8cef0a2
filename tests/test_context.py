"""The execution context and the state boundary (DESIGN.md §15): what a
plain call pays when nothing is on, and how the context reaches pool
workers and simulated ranks."""

import pathlib
import threading

import numpy as np
import pytest

import repro
import repro.comm
from repro import Budget
from repro.bench import registry
from repro.config import Config
from repro.codegen import compile_sdfg
from repro.governor.budget import ArmedBudget, armed
from repro.ir.nodes import NestedSDFG
from repro.resilience.distributed import run_spmd_supervised
from repro.runtime import context, parallel
from repro.runtime.executor import run_sdfg

N = repro.symbol("N")


@repro.program
def bump(A: repro.float64[N]):
    for i in repro.map[0:N]:
        A[i] = A[i] + 1.0


@pytest.fixture(autouse=True)
def _fresh_pool():
    yield
    parallel.shutdown_pool()
    parallel.reset_stats()


def run_in_thread(fn):
    out = []
    t = threading.Thread(target=lambda: out.append(fn()))
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    return out[0]


# ---------------------------------------------------------------------------
# the "off" path
# ---------------------------------------------------------------------------

class TestOffPath:
    @pytest.mark.parametrize("name", ["atax", "jacobi_2d", "spmv"])
    def test_plain_call_makes_no_boundary_call(self, name, monkeypatch):
        # the module reads the thread-local once per call; without a context
        # it makes no boundary call, with one it makes one per state visit
        calls = []
        real = context.boundary
        monkeypatch.setattr(context, "boundary",
                            lambda *a: (calls.append(a[1]), real(*a)))
        bench = registry.get(name)
        compiled = compile_sdfg(bench.program.to_sdfg(), cache=False)
        compiled(**bench.arguments("test"))
        assert calls == []
        with context.installed(context.ExecutionContext()):
            compiled(**bench.arguments("test"))
        visits = compiled.last_state_visits
        assert len(calls) == sum(visits.values()) > 0
        assert {k: calls.count(k) for k in set(calls)} == visits
        for hook in ("__tick", "__ckpt", "__prof_", "__guard_"):
            assert hook not in compiled.source

    def test_no_context_around_a_plain_call(self):
        A = np.zeros(8)
        assert context.current() is None
        bump(A)
        assert context.current() is None
        assert run_in_thread(context.current) is None
        np.testing.assert_array_equal(A, np.ones(8))

    def test_boundary_without_context_touches_nothing(self):
        # neither argument is inspected when no context is installed
        context.boundary(object(), object(), None, None)
        context.tick()
        with context.masked():
            assert context.current() is None

    def test_one_thread_local_in_the_package(self):
        root = pathlib.Path(repro.__file__).parent
        counts = {str(path.relative_to(root)):
                  path.read_text().count("threading.local(")
                  for path in root.rglob("*.py")}
        assert {k: n for k, n in counts.items() if n} == \
            {"runtime/context.py": 1}


# ---------------------------------------------------------------------------
# the boundary: budget tick + checkpoint hook, masked inside nested SDFGs
# ---------------------------------------------------------------------------

@repro.program
def inner_prog(x: repro.float64[N]):
    for i in repro.map[0:N]:
        x[i] = x[i] + 1.0
    for i in repro.map[0:N]:
        x[i] = x[i] * 2.0


@repro.program
def outer_prog(A: repro.float64[N]):
    inner_prog(A)
    for i in repro.map[0:N]:
        A[i] = A[i] + 3.0


class TestBoundary:
    def test_hook_gets_indices_from_both_engines(self):
        sdfg = bump.to_sdfg()
        order = sdfg.topological_states()
        for run in (lambda A: run_sdfg(sdfg, A=A),
                    lambda A: bump.compile(A)(A=A)):
            fired = []
            hooked = context.ExecutionContext(
                hook=lambda i, c, s: fired.append((i, sorted(c))))
            with context.installed(hooked):
                run(np.zeros(4))
            assert [i for i, _ in fired] == list(range(len(order)))
            assert all("A" in names for _, names in fired)

    def test_nested_sdfg_masks_the_hook_but_ticks_the_budget(self):
        sdfg = outer_prog.to_sdfg(simplify=False)   # keeps the nested node
        (nested,) = [n for st in sdfg.states() for n in st.nodes()
                     if isinstance(n, NestedSDFG)]
        inner_labels = {st.label for st in nested.sdfg.states()}
        for run in (lambda A: run_sdfg(sdfg, A=A),
                    lambda A: compile_sdfg(sdfg, cache=False)(A=A)):
            fired, ticked, A = [], set(), np.zeros(4)

            class Spy(ArmedBudget):
                def boundary(self, machine, state):
                    super().boundary(machine, state)
                    ticked.add(machine.name)

            ctx = context.ExecutionContext(
                budget=Spy(Budget(deadline_s=60.0)),
                hook=lambda i, c, s: fired.append(i))
            with context.installed(ctx):
                run(A)
            np.testing.assert_array_equal(A, np.full(4, 5.0))
            # outer boundaries only reach the hook; the budget is ticked
            # by the inner machine too
            assert fired == list(range(len(sdfg.states())))
            assert ticked == {sdfg.name, nested.sdfg.name}
            assert ctx.mask == 0 and inner_labels

    def test_masked_restores_on_error(self):
        ctx = context.ExecutionContext(hook=lambda i, c, s: None)
        with context.installed(ctx):
            with pytest.raises(RuntimeError):
                with context.masked():
                    assert ctx.mask == 1
                    raise RuntimeError("inner machine died")
            assert ctx.mask == 0


# ---------------------------------------------------------------------------
# propagation: pool workers and simulated ranks
# ---------------------------------------------------------------------------

class TestPropagation:
    def test_chunk_bodies_run_under_the_dispatchers_context(self):
        seen = []

        def body(lo, hi, acc):
            seen.append((threading.get_ident(), context.current()))

        fired = []
        with Config.override(device__cpu_threads=2, parallel__min_work=0):
            with armed(Budget(deadline_s=60.0), program="disp") as a, \
                    context.installed(context.derive(
                        context.current(),
                        hook=lambda i, c, s: fired.append(i))):
                dispatcher = context.current()
                parallel.parallel_map(body, 0, 99, 1, 10**9, {})
        assert parallel.stats().parallel_regions == 1 and len(seen) == 2
        for _thread, ctx in seen:
            assert ctx is not dispatcher       # a per-chunk view ...
            assert ctx.budget is a             # ... of the same budget
            assert ctx.in_worker and ctx.mask == 1
            assert ctx.hook is dispatcher.hook  # carried whole, but masked:
            with context.installed(ctx):
                context.boundary(None, 0, {}, {})
        assert fired == []

    def test_workers_hold_no_context_after_their_chunk(self):
        pool_threads = set()

        def body(lo, hi, acc):
            assert parallel.in_worker()
            pool_threads.add(threading.get_ident())

        with Config.override(device__cpu_threads=2, parallel__min_work=0):
            with armed(Budget(deadline_s=60.0)):
                parallel.parallel_map(body, 0, 99, 1, 10**9, {})
            pool = parallel.get_pool(2)
            leftovers = [pool.submit(
                lambda: (threading.get_ident(), context.current())
            ).result(timeout=30) for _ in range(8)]
        assert pool_threads
        assert {ident for ident, _ in leftovers} <= pool_threads
        assert all(ctx is None for _, ctx in leftovers)
        assert not parallel.in_worker()

    def test_each_rank_sees_its_own_comm_budget_and_hook(self):
        def rank_fn(comm, snapshot):
            ctx = context.current()
            # the hook is the rank's checkpointer: one aligned boundary on
            # every rank completes a checkpoint round
            context.boundary(None, 0, {}, {})
            return (ctx.dist.comm is comm, ctx.dist.rank, ctx.budget.program,
                    ctx.hook is not None, ctx.in_worker, id(ctx))

        run = run_spmd_supervised(rank_fn, 2, timeout_s=20.0,
                                  ckpt_interval=1,
                                  budget=Budget(deadline_s=60.0))
        assert [r[:5] for r in run.results] == [
            (True, 0, "rank0", True, False), (True, 1, "rank1", True, False)]
        assert run.results[0][5] != run.results[1][5]
        assert run.checkpoints == 1            # the boundary reached the hook
        assert context.current() is None

    def test_supervised_ranks_can_communicate_without_manual_setup(self):
        A = np.arange(16, dtype=np.float64).reshape(4, 4)

        def rank_fn(comm, snapshot):
            block = repro.comm.BlockScatter(A)
            return repro.comm.BlockGather(block, A.shape)

        run = run_spmd_supervised(rank_fn, 4, timeout_s=20.0)
        for result in run.results:
            np.testing.assert_array_equal(result, A)
