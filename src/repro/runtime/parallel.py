"""Multicore CPU execution: the persistent worker pool and chunked map
dispatch (DESIGN.md §11).

The paper's CPU backend emits OpenMP ``parallel for`` loops over map scopes
(§3.3); here the analogue is a process-wide, persistent
:class:`~concurrent.futures.ThreadPoolExecutor` onto which both backends
dispatch chunks of a ``CPU_Multicore``-scheduled map's outermost range:

* the generated (vectorized) backend calls :func:`parallel_map` with a
  chunk-body closure emitted by :mod:`repro.codegen.pygen`,
* the reference interpreter calls :func:`maybe_parallel_scope` from its
  scope loop.

Threads (not processes) are the right pool here because the heavy lifting
is NumPy array operations, which release the GIL; chunk closures share the
program's containers in place.  Safety is the optimizer's problem: only maps
the static race detector proved ``race-free`` are ever scheduled
``CPU_Multicore`` (:mod:`repro.transformations.device.cpu_transform`), so
non-WCR writes are injective in the map parameters — distinct chunks write
disjoint locations.  Commutative WCR outputs are privatized: each chunk
accumulates into an identity-initialized private buffer and the buffers are
merged back in deterministic chunk order via ``apply_wcr``.

Tiny maps stay serial: dispatch is gated on a perfmodel-derived work
estimate against ``parallel.min_work``.  Pool failures (thread exhaustion,
interpreter shutdown) degrade deterministically to the serial path, so the
resilience chain above never sees a parallel-only failure mode.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import instrumentation
from ..config import Config
from . import context as _context
from .wcr import apply_wcr, identity_like

__all__ = ["configured_threads", "get_pool", "shutdown_pool", "parallel_map",
           "maybe_parallel_scope", "stats", "reset_stats", "ParallelStats",
           "in_worker"]


# ---------------------------------------------------------------------------
# worker-count resolution and pool lifecycle
# ---------------------------------------------------------------------------

def configured_threads() -> int:
    """Resolved worker count: ``device.cpu_threads`` config if positive,
    else ``$REPRO_CPU_THREADS``, else ``os.cpu_count()``."""
    value = int(Config.get("device.cpu_threads") or 0)
    if value > 0:
        return value
    env = os.environ.get("REPRO_CPU_THREADS", "")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value > 0:
            return value
    return os.cpu_count() or 1


_POOL: Optional[ThreadPoolExecutor] = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()


def in_worker() -> bool:
    """True inside a pool worker: nested parallel regions run serial
    instead of deadlocking on their own pool."""
    ctx = _context.current()
    return ctx is not None and ctx.in_worker


def get_pool(size: int) -> Optional[ThreadPoolExecutor]:
    """The persistent process-wide pool, (re)created when the resolved
    worker count changes.  Returns None when pool creation fails — callers
    must fall back to serial execution."""
    global _POOL, _POOL_SIZE
    pool = _POOL
    if pool is not None and _POOL_SIZE == size:
        return pool
    with _POOL_LOCK:
        if _POOL is not None and _POOL_SIZE == size:
            return _POOL
        if _POOL is not None:
            _POOL.shutdown(wait=False)
            _POOL = None
        try:
            _POOL = ThreadPoolExecutor(max_workers=size,
                                       thread_name_prefix="repro-par")
            _POOL_SIZE = size
        except Exception:
            _POOL = None
            _POOL_SIZE = 0
        return _POOL


def shutdown_pool() -> None:
    """Tear the pool down (tests; interpreter shutdown)."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_SIZE = 0


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

class ParallelStats:
    """Process-wide parallel-execution counters (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.parallel_regions = 0    # map scopes dispatched onto the pool
        self.serial_regions = 0      # CPU_Multicore scopes that ran serial
        self.chunks = 0              # chunk tasks executed (incl. inline)
        self.pool_failures = 0       # pool unavailable / submit refused

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def to_dict(self) -> Dict[str, int]:
        with self._lock:
            return {"parallel_regions": self.parallel_regions,
                    "serial_regions": self.serial_regions,
                    "chunks": self.chunks,
                    "pool_failures": self.pool_failures}


_STATS = ParallelStats()


def stats() -> ParallelStats:
    return _STATS


def reset_stats() -> None:
    global _STATS
    _STATS = ParallelStats()


# ---------------------------------------------------------------------------
# shared chunk plumbing
# ---------------------------------------------------------------------------

def _chunk_bounds(n: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous [lo, hi) index spans covering range(n), balanced to within
    one element.  An empty range has no chunks (not a degenerate [0, 0))."""
    if n <= 0:
        return []
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    bounds = []
    lo = 0
    for p in range(parts):
        hi = lo + base + (1 if p < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _run_chunk(task: Callable[[], None], label: str,
               dispatcher: Optional[_context.ExecutionContext]) -> None:
    """Execute one chunk body inside a worker under the dispatching
    thread's execution context (see :func:`repro.runtime.context.worker_view`:
    deadline checks cross the pool boundary, nested regions stay serial),
    and report a per-worker region timer into the active collector
    (RegionStat aggregation is thread-safe)."""
    ctx = _context.worker_view(dispatcher)
    start = time.perf_counter()
    try:
        with _context.installed(ctx):
            if ctx.budget is not None:
                # chunk boundary is a cooperative check site: a pool queue
                # full of pending chunks drains fast once the deadline passes
                ctx.budget.check()
            task()
    finally:
        _STATS.bump("chunks")
        coll = instrumentation._ACTIVE
        if coll is not None:
            coll.add("parallel", label, time.perf_counter() - start)


def _report_pool_fallback(label: str, cause: str) -> None:
    """Structured recovery event for a pool-unavailable serial fallback:
    the degradation stays deterministic but no longer silent."""
    _STATS.bump("pool_failures")
    coll = instrumentation._ACTIVE
    if coll is not None:
        coll.add("recovery", f"pool-fallback:{label}:{cause}", 0.0)


def _dispatch(tasks: List[Callable[[], None]], label: str) -> None:
    """Run chunk tasks on the pool; degrade to inline execution when the
    pool is unavailable.  Re-raises the first chunk exception after all
    chunks settle (no partially-joined pool state)."""
    pool = get_pool(configured_threads())
    dispatcher = _context.current()
    futures = []
    first_exc: Optional[BaseException] = None
    for task in tasks:
        submitted = False
        if pool is not None:
            try:
                futures.append(pool.submit(_run_chunk, task, label,
                                           dispatcher))
                submitted = True
            except RuntimeError:
                _report_pool_fallback(label, "submit-rejected")
        if not submitted:
            if pool is None:
                _report_pool_fallback(label, "pool-unavailable")
            try:
                _run_chunk(task, label, dispatcher)
            except BaseException as exc:
                if first_exc is None:
                    first_exc = exc
    for fut in futures:
        exc = fut.exception()
        if exc is not None and first_exc is None:
            first_exc = exc
    if first_exc is not None:
        raise first_exc


# ---------------------------------------------------------------------------
# generated-code entry point (the vectorized backend)
# ---------------------------------------------------------------------------

def parallel_map(body: Callable[[int, int, Dict[str, Any]], None],
                 begin, end, step, work_per_index,
                 wcr_outputs: Dict[str, Tuple[Any, str]],
                 label: str = "") -> None:
    """Execute a generated map-scope body over ``begin:end:step`` (inclusive
    end, SDFG range convention), chunked over the pool.

    *body(lo, hi, acc)* executes the scope for the outermost-parameter span
    ``lo:hi:step``; *acc* maps each conflicted WCR output name to the array
    the body's ``wcr_store`` calls must target.  On the serial path that is
    the real container; on the parallel path each chunk gets an
    identity-filled private buffer, merged back here in chunk order.

    *work_per_index* is the perfmodel flop estimate for one outermost-index
    slice; dispatch only happens when ``n * work_per_index`` clears
    ``parallel.min_work``.
    """
    begin = int(begin)
    end = int(end)
    step = int(step)
    if step == 0:
        return
    n = (end - begin) // step + 1
    if n <= 0:
        return
    workers = configured_threads()
    direct = {name: arr for name, (arr, _wcr) in wcr_outputs.items()}
    if (workers <= 1 or n < 2 or in_worker()
            or n * max(int(work_per_index), 1)
            < int(Config.get("parallel.min_work"))):
        _STATS.bump("serial_regions")
        body(begin, end, direct)
        return
    bounds = _chunk_bounds(n, workers)
    if len(bounds) < 2:
        _STATS.bump("serial_regions")
        body(begin, end, direct)
        return
    accs: List[Dict[str, Any]] = []
    tasks: List[Callable[[], None]] = []
    for lo_i, hi_i in bounds:
        acc = {name: identity_like(arr, wcr)
               for name, (arr, wcr) in wcr_outputs.items()}
        accs.append(acc)
        lo = begin + lo_i * step
        hi = begin + (hi_i - 1) * step
        tasks.append(lambda lo=lo, hi=hi, acc=acc: body(lo, hi, acc))
    _dispatch(tasks, label)
    _STATS.bump("parallel_regions")
    # deterministic merge: chunk order, whole-array combine (identity
    # elements make untouched entries no-ops)
    for acc in accs:
        for name, (arr, wcr) in wcr_outputs.items():
            apply_wcr(arr, tuple(slice(None) for _ in range(arr.ndim)),
                      acc[name], wcr)


# ---------------------------------------------------------------------------
# interpreter entry point (the loop-fallback backend)
# ---------------------------------------------------------------------------

def _scope_work_estimate(state, entry) -> int:
    """Perfmodel flop estimate for one full iteration of the scope body,
    memoized on the Map object."""
    cached = getattr(entry.map, "_par_flops", None)
    if cached is not None:
        return cached
    from ..ir.nodes import Tasklet
    from .perfmodel import tasklet_flops

    flops = 0
    for node in state.scope_subgraph_nodes(entry):
        if isinstance(node, Tasklet):
            flops += tasklet_flops(node.code)
        elif node is not entry and node is not entry.exit_node:
            flops += 8  # library/nested/access nodes: nominal cost
    flops = max(flops, 1)
    entry.map._par_flops = flops
    return flops


def maybe_parallel_scope(ctx, state, entry, env: Dict[str, Any],
                         scope_order, iteration: List[range]) -> bool:
    """Try to execute a ``CPU_Multicore`` scope in parallel from the
    reference interpreter.  Returns False when the scope must run serial
    (the caller's loop is the deterministic fallback)."""
    ok = _parallel_scope(ctx, state, entry, env, scope_order, iteration)
    if not ok:
        _STATS.bump("serial_regions")
    return ok


def _parallel_scope(ctx, state, entry, env: Dict[str, Any],
                    scope_order, iteration: List[range]) -> bool:
    import itertools

    from ..ir.data import Stream
    from ..ir.nodes import AccessNode

    workers = configured_threads()
    if workers <= 1 or in_worker():
        return False
    first = list(iteration[0])
    if len(first) < 2:
        return False
    total = 1
    for rng in iteration:
        total *= len(rng)
    if total * _scope_work_estimate(state, entry) \
            < int(Config.get("parallel.min_work")):
        return False

    exit_ = entry.exit_node
    privates = set()
    for node in state.scope_subgraph_nodes(entry):
        if node is entry or node is exit_:
            continue
        if isinstance(node, AccessNode):
            desc = ctx.sdfg.arrays.get(node.data)
            if desc is None or not desc.transient or isinstance(desc, Stream):
                return False  # shared or stream access inside the body
            privates.add(node.data)

    # WCR outputs at the scope exit get per-chunk private accumulators;
    # a container written both with and without WCR, or read inside the
    # scope, cannot be privatized — stay serial
    wcr_outs: Dict[str, str] = {}
    for edge in state.in_edges(exit_):
        if edge.memlet.is_empty():
            continue
        desc = ctx.sdfg.arrays.get(edge.memlet.data)
        if desc is None or isinstance(desc, Stream):
            return False
        if edge.memlet.wcr is not None:
            known = wcr_outs.get(edge.memlet.data)
            if known is not None and known != edge.memlet.wcr:
                return False
            wcr_outs[edge.memlet.data] = edge.memlet.wcr
    for edge in state.in_edges(exit_):
        if not edge.memlet.is_empty() and edge.memlet.wcr is None \
                and edge.memlet.data in wcr_outs:
            return False
    reads = {e.memlet.data for e in state.out_edges(entry)
             if not e.memlet.is_empty()}
    if reads & set(wcr_outs):
        return False

    from .executor import _Context, _execute_level

    # materialize WCR targets now so the merge has storage to combine into
    bases = {name: ctx.storage(name) for name in wcr_outs}
    body = scope_order[entry]
    params = list(entry.map.params)
    rest_iter = iteration[1:]

    bounds = _chunk_bounds(len(first), workers)
    if len(bounds) < 2:
        return False

    accs: List[Dict[str, Any]] = []
    tasks: List[Callable[[], None]] = []
    for lo_i, hi_i in bounds:
        acc = {name: identity_like(bases[name], wcr)
               for name, wcr in wcr_outs.items()}
        accs.append(acc)

        def task(lo_i=lo_i, hi_i=hi_i, acc=acc):
            # chunk-private containers: scope transients drop out (lazily
            # reallocated per chunk) and WCR outputs point at the private
            # accumulator
            containers = {k: v for k, v in ctx.containers.items()
                          if k not in privates}
            containers.update(acc)
            chunk_ctx = _Context(ctx.sdfg, containers, ctx.symbols)
            for i0 in first[lo_i:hi_i]:
                for rest in itertools.product(*rest_iter):
                    inner_env = dict(env)
                    inner_env.update(zip(params, (i0,) + rest))
                    _execute_level(chunk_ctx, state, body, inner_env,
                                   scope_order)

        tasks.append(task)

    label = entry.map.label or ",".join(params)
    _dispatch(tasks, label)
    _STATS.bump("parallel_regions")
    for acc in accs:
        for name, wcr in wcr_outs.items():
            arr = bases[name]
            apply_wcr(arr, tuple(slice(None) for _ in range(arr.ndim)),
                      acc[name], wcr)
    return True
