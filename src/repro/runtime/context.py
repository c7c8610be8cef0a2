"""The execution context and the state boundary (DESIGN.md §15).

Everything a run carries besides its arguments — the armed governor budget,
the checkpoint hook, the simulated rank's communicator, the "inside a pool
worker" marker — lives in one :class:`ExecutionContext`, held in the
package's only ``threading.local`` slot.  A thread that runs nothing special
has no context at all: :func:`current` is one attribute read returning
``None``, and every check site branches on that.

Both execution engines — the generated module's ``__run`` loop and the
reference interpreter's state loop — call :func:`boundary` before each
state executes.  It reads the context once; only when one is installed does
it tick the budget and fire the checkpoint hook.  That call is all the
governor and the checkpointer need from the engines, so neither has a code
generation variant of its own.

The context crosses threads in exactly two places: simulated ranks install
theirs once in :func:`repro.resilience.distributed.run_spmd_supervised`,
and pool workers run each chunk under :func:`worker_view` of the
dispatching thread's context.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Dict, Iterator, Optional

__all__ = ["ExecutionContext", "BoundaryHook", "current", "installed",
           "derive", "worker_view", "masked", "boundary", "tick",
           "state_index", "state_label"]

#: ``hook(state_index, containers, symbols)``: the SDFG state-machine
#: program point plus the data needed to snapshot it; may raise to unwind
#: the run (peer-failure abort, checkpoint deadlock)
BoundaryHook = Callable[[int, Dict[str, Any], Dict[str, Any]], None]

_tls = threading.local()


class ExecutionContext:
    """What one run carries on its thread.

    ``budget``: the :class:`~repro.governor.ArmedBudget` governing the run.
    ``hook``: the state-boundary checkpoint hook; it fires only while
    ``mask`` is 0 — nested SDFGs and pool chunks run mid-state of the outer
    machine, where a boundary is not a checkpointable program point.
    ``dist``: the rank's :class:`~repro.distributed.context.DistContext`.
    ``in_worker``: set inside pool workers so nested parallel regions run
    serial instead of deadlocking on their own pool.
    """

    __slots__ = ("budget", "hook", "mask", "dist", "in_worker")

    def __init__(self, budget=None, hook: Optional[BoundaryHook] = None,
                 dist=None, mask: int = 0, in_worker: bool = False):
        self.budget = budget
        self.hook = hook
        self.mask = mask
        self.dist = dist
        self.in_worker = in_worker


def current() -> Optional[ExecutionContext]:
    """The calling thread's context, or None (the off fast path)."""
    return getattr(_tls, "ctx", None)


@contextlib.contextmanager
def installed(ctx: Optional[ExecutionContext]
              ) -> Iterator[Optional[ExecutionContext]]:
    """Make *ctx* the calling thread's context for the block."""
    prev = getattr(_tls, "ctx", None)
    _tls.ctx = ctx
    try:
        yield ctx
    finally:
        _tls.ctx = prev


def derive(base: Optional[ExecutionContext], **changes) -> ExecutionContext:
    """A copy of *base* (a blank context for None) with *changes* applied."""
    fields = {} if base is None else {
        name: getattr(base, name) for name in ExecutionContext.__slots__}
    fields.update(changes)
    return ExecutionContext(**fields)


def worker_view(base: Optional[ExecutionContext]) -> ExecutionContext:
    """The context a pool worker runs one chunk under: the dispatcher's,
    whole — its budget governs the chunk body, its communicator stays
    reachable — marked in-worker and with the checkpoint hook masked.  Each
    chunk gets its own copy: ``mask`` is mutated by nested-SDFG execution."""
    return derive(base, in_worker=True,
                  mask=(base.mask if base is not None else 0) + 1)


@contextlib.contextmanager
def masked() -> Iterator[None]:
    """Mask the checkpoint hook for the block (nested-SDFG state machines)."""
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        yield
        return
    ctx.mask += 1
    try:
        yield
    finally:
        ctx.mask -= 1


# A boundary site names its state by what the engine has at hand: the index
# in ``sdfg.topological_states()`` — the numbering the generated module and
# the distributed checkpointer share — or the ``SDFGState`` itself (the
# interpreter).  These two derive the other form, only when it is asked for.

def state_index(sdfg, state) -> int:
    """Index of a boundary site's *state* (-1: not a state of *sdfg*)."""
    if isinstance(state, int):
        return state
    try:
        return sdfg.topological_states().index(state)
    except ValueError:
        return -1


def state_label(sdfg, state) -> str:
    """Label of a boundary site's *state*."""
    if not isinstance(state, int):
        return state.label
    states = sdfg.topological_states()
    return states[state].label if 0 <= state < len(states) \
        else f"state{state}"


def boundary(sdfg, state, containers: Dict[str, Any],
             symbols: Dict[str, Any]) -> None:
    """The state-boundary call of both engines, made before *state* runs.

    *state* is an index (generated modules) or an ``SDFGState`` (the
    interpreter); see :func:`state_index`.
    """
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        return
    if ctx.budget is not None:
        ctx.budget.boundary(sdfg, state)
    if ctx.hook is not None and not ctx.mask:
        ctx.hook(state_index(sdfg, state), containers, symbols)


def tick() -> None:
    """Cooperative budget check between boundaries (simmpi op polling)."""
    ctx = getattr(_tls, "ctx", None)
    if ctx is not None and ctx.budget is not None:
        ctx.budget.check()
