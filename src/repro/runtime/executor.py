"""Reference SDFG interpreter.

Executes an SDFG functionally: walks the state machine, runs each state's
dataflow in topological order, iterates map scopes point-by-point, and honors
memlet subsets, WCR, streams, library nodes, and nested SDFGs.  This is the
semantic ground truth that code generation and the device simulators are
tested against; it favors clarity over speed.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from types import MappingProxyType
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import instrumentation
from ..config import Config
from ..governor import budget as _governor_budget
from ..sanitizer import guards as _guards
from ..ir.data import Array, Scalar, Stream, View
from ..ir.memlet import Memlet
from ..ir.nodes import (
    AccessNode,
    LibraryNode,
    MapEntry,
    MapExit,
    NestedSDFG,
    Node,
    ScheduleType,
    Tasklet,
)
from ..ir.state import SDFGState
from ..symbolic import Symbol
from .context import boundary, masked
from .wcr import apply_wcr

__all__ = ["run_sdfg", "ExecutionError", "allocate_container", "infer_symbols",
           "CallingConvention"]

#: hard backstop against runaway state machines
MAX_TRANSITIONS = 100_000_000

_TASKLET_GLOBALS = {
    "np": np,
    "math": math,
    "abs": abs,
    "min": min,
    "max": max,
    "int": int,
    "float": float,
    "bool": bool,
    "len": len,
    "range": range,
}


class ExecutionError(RuntimeError):
    """Raised when the interpreter cannot execute an SDFG."""


def allocate_container(desc, env: Dict[str, int]):
    """Allocate backing storage for a data descriptor."""
    if isinstance(desc, Stream):
        return deque(maxlen=desc.buffer_size or None)
    shape = tuple(int(s.evaluate(env)) for s in desc.shape)
    if isinstance(desc, Scalar):
        return np.zeros(1, dtype=desc.dtype.nptype)
    return np.zeros(shape, dtype=desc.dtype.nptype)


class ArgSpec(NamedTuple):
    """One non-transient container of a :class:`CallingConvention`."""

    kind: str          # "array" | "scalar" | "stream"
    nptype: np.dtype   # element type
    #: per dimension of an array, the name of the pure symbol it binds or
    #: the constant/composite expression it must verify
    dims: Tuple[Any, ...]


class CallingConvention:
    """The signature of one SDFG, resolved in one pass over the graph and
    immutable afterwards (DESIGN.md §16): the ordered non-transient
    argument names, one :class:`ArgSpec` per argument (in ``sdfg.arrays``
    order), the free symbols, every symbol name a keyword may bind
    (registered or free) and the ``__return*`` containers.

    A :class:`~repro.codegen.CompiledSDFG` builds it once — an artifact
    binds by the graph it was built from — and every call reads it;
    :func:`prepare_arguments`, :func:`infer_symbols` and
    :func:`collect_return` build one on the fly for callers that hold only
    a graph.  Rank threads sharing an artifact share it read-only: each
    :meth:`bind` returns fresh ``containers``/``symbols`` dicts.
    """

    __slots__ = ("arg_names", "arguments", "free_symbols", "symbols",
                 "returns")

    def __init__(self, sdfg):
        arguments: Dict[str, ArgSpec] = {}
        returns = []
        for name, desc in sdfg.arrays.items():
            if name.startswith("__return"):
                returns.append((name, isinstance(desc, Scalar)))
            if desc.transient:
                continue
            kind = ("scalar" if isinstance(desc, Scalar) else
                    "stream" if isinstance(desc, Stream) else "array")
            arguments[name] = ArgSpec(kind, desc.dtype.nptype, tuple(
                d.name if isinstance(d, Symbol) else d
                for d in (desc.shape if kind == "array" else ())))
        order = sdfg.arg_names or sorted(arguments)
        free = frozenset(sdfg.free_symbols)
        init = object.__setattr__
        init(self, "arg_names", tuple(n for n in order if n in arguments))
        init(self, "arguments", MappingProxyType(arguments))
        init(self, "free_symbols", free)
        init(self, "symbols", free | frozenset(sdfg.symbols))
        init(self, "returns", tuple(sorted(returns)))

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("CallingConvention is immutable")

    def bind(self, args, kwargs) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Bind positional/keyword arguments to fresh ``(containers,
        symbols)`` dicts.  Mutates nothing; raises :class:`ExecutionError`
        on signature violations."""
        kwargs = dict(kwargs)
        names = self.arg_names
        if len(args) > len(names):
            raise ExecutionError(
                f"too many positional arguments: got {len(args)}, "
                f"expected at most {len(names)}")
        for name, value in zip(names, args):
            kwargs.setdefault(name, value)
        containers: Dict[str, Any] = {}
        symbols: Dict[str, Any] = {}
        for key, value in kwargs.items():
            spec = self.arguments.get(key)
            if spec is None:
                if key not in self.symbols:
                    raise ExecutionError(f"unknown argument {key!r}")
                symbols[key] = int(value)
            elif spec.kind == "scalar":
                containers[key] = np.array([value], dtype=spec.nptype)
            elif spec.kind == "stream":
                containers[key] = value
            else:
                arr = np.asarray(value)
                if arr.dtype != spec.nptype:
                    raise ExecutionError(
                        f"argument {key!r} has dtype {arr.dtype}, expected "
                        f"{spec.nptype} (static symbolic typing)")
                containers[key] = arr
        symbols.update(self.infer(containers))
        missing = [name for name in self.free_symbols if name not in symbols]
        if missing:
            raise ExecutionError(f"unbound symbols: {sorted(missing)}")
        required = [n for n in names
                    if n not in containers and n != "__return"]
        if required:
            raise ExecutionError(f"missing arguments: {required}")
        return containers, symbols

    def infer(self, containers: Dict[str, Any]) -> Dict[str, int]:
        """Deduce symbol values from actual argument shapes and from
        integer scalar arguments that share a symbol's name.

        Pure-symbol dimensions bind directly; composite dimensions are
        verified afterwards (mismatch is an error, matching the paper's
        static symbolic typing).  A shape-derived binding and a
        scalar-argument binding for the same symbol must agree.
        """
        env: Dict[str, int] = {}
        unverified = []
        for name, spec in self.arguments.items():
            shape = getattr(containers.get(name), "shape", None)
            if spec.kind != "array" or shape is None:
                continue
            if len(shape) != len(spec.dims):
                raise ExecutionError(
                    f"argument {name!r} has {len(shape)} dimensions, "
                    f"expected {len(spec.dims)}")
            for sym, actual in zip(spec.dims, shape):
                if not isinstance(sym, str):
                    unverified.append((name, sym, actual))
                    continue
                if sym in env and env[sym] != actual:
                    raise ExecutionError(
                        f"inconsistent value for symbol {sym}: "
                        f"{env[sym]} vs {actual} (argument {name!r})")
                env[sym] = int(actual)
        # a symbol supplied explicitly as an integer scalar argument binds
        # too (shape-less programs have no other source); shape-derived
        # values win conflicts only by raising, never silently
        for name, spec in self.arguments.items():
            if spec.kind != "scalar" or name not in self.symbols \
                    or name not in containers:
                continue
            value = np.asarray(containers[name]).reshape(-1)[0]
            if not isinstance(value, (int, np.integer)):
                continue
            value = int(value)
            if name in env and env[name] != value:
                raise ExecutionError(
                    f"inconsistent value for symbol {name}: shape-derived "
                    f"{env[name]} vs scalar argument {value}")
            env[name] = value
        # verify composite dimensions now that symbols are bound
        for name, dim, actual in unverified:
            try:
                expected = dim.evaluate(env)
            except KeyError:
                continue
            if expected != actual:
                raise ExecutionError(
                    f"argument {name!r}: dimension {dim} evaluates to "
                    f"{expected} but actual size is {actual}")
        return env

    def collect(self, containers):
        """Extract the ``__return`` container(s) after execution, or None."""
        results = []
        for name, is_scalar in self.returns:
            value = containers.get(name)
            if value is not None and is_scalar:
                value = value[0]
            results.append(value)
        if len(results) == 1:
            return results[0]
        return tuple(results) or None


class _Context:
    """Mutable execution state: container storage + symbol values."""

    __slots__ = ("sdfg", "containers", "symbols")

    def __init__(self, sdfg, containers: Dict[str, Any], symbols: Dict[str, Any]):
        self.sdfg = sdfg
        self.containers = containers
        self.symbols = symbols

    def storage(self, name: str, env: Optional[Dict[str, Any]] = None):
        """The storage of container *name*, (re)allocated to its shape
        under *env* (the symbols plus any enclosing map parameters)."""
        env = self.symbols if env is None else env
        desc = self.sdfg.arrays[name]
        existing = self.containers.get(name)
        if existing is None:
            existing = self.containers[name] = allocate_container(desc, env)
            return existing
        # loop-dependent transient shapes (e.g. x[:i]) change between
        # iterations: reallocate when the evaluated shape differs
        if desc.transient and not isinstance(desc, (Scalar, Stream)) \
                and desc.free_symbols:
            try:
                shape = tuple(int(s.evaluate(env)) for s in desc.shape)
            except KeyError:
                return existing
            if getattr(existing, "shape", shape) != shape:
                existing = self.containers[name] = allocate_container(
                    desc, env)
        return existing


def _read(ctx: _Context, memlet: Memlet, env: Dict[str, Any]):
    storage = ctx.storage(memlet.data, env)
    desc = ctx.sdfg.arrays[memlet.data]
    if isinstance(desc, Stream):
        if not storage:
            raise ExecutionError(f"read from empty stream {memlet.data!r}")
        return storage.popleft()
    if isinstance(desc, Scalar):
        return storage[0]
    slices = memlet.subset.to_slices(env)
    guard = _guards._ACTIVE
    if guard is not None and "bounds" in guard.modes:
        _guards.check_index(memlet.data, storage.shape, slices,
                            program=guard.program)
    view = storage[slices]
    if memlet.squeeze:
        new_shape = tuple(s for axis, s in enumerate(view.shape)
                          if axis not in memlet.squeeze)
        view = view.reshape(new_shape)
    if view.size == 1 and memlet.subset.is_point() is True:
        return view.reshape(())[()]
    return view


def _write(ctx: _Context, memlet: Memlet, env: Dict[str, Any], value) -> None:
    storage = ctx.storage(memlet.data, env)
    desc = ctx.sdfg.arrays[memlet.data]
    if isinstance(desc, Stream):
        storage.append(value)
        return
    guard = _guards._ACTIVE
    if guard is not None and "nan" in guard.modes:
        _guards.check_value(memlet.data, value, program=guard.program)
    if isinstance(desc, Scalar):
        if memlet.wcr is not None:
            apply_wcr(storage, 0, value, memlet.wcr)
        else:
            storage[0] = value
        return
    slices = memlet.subset.to_slices(env)
    if guard is not None and "bounds" in guard.modes:
        _guards.check_index(memlet.data, storage.shape, slices,
                            program=guard.program)
    if memlet.wcr is not None:
        apply_wcr(storage, slices, value, memlet.wcr)
    else:
        target = storage[slices]
        if np.isscalar(value) or (hasattr(value, "shape") and value.shape != target.shape):
            storage[slices] = np.broadcast_to(np.asarray(value), target.shape)
        else:
            storage[slices] = value


@functools.lru_cache(maxsize=4096)
def _tasklet_code(code: str):
    """The code object of tasklet source *code*, compiled once per text."""
    return compile(code, "<tasklet>", "exec")


def _execute_tasklet(ctx: _Context, state: SDFGState, node: Tasklet,
                     env: Dict[str, Any]) -> None:
    local: Dict[str, Any] = {}
    for edge in state.in_edges(node):
        if edge.memlet.is_empty() or edge.dst_conn is None:
            continue
        local[edge.dst_conn] = _read(ctx, edge.memlet, env)
    local.update(env)
    tasklet_globals = dict(_TASKLET_GLOBALS)
    tasklet_globals.update(ctx.sdfg.constants)
    try:
        exec(_tasklet_code(node.code), tasklet_globals, local)
    except Exception as exc:  # pragma: no cover - exercised via error tests
        raise ExecutionError(
            f"tasklet {node.label!r} failed: {exc}\ncode: {node.code}") from exc
    for edge in state.out_edges(node):
        if edge.memlet.is_empty() or edge.src_conn is None:
            continue
        if edge.src_conn not in local:
            raise ExecutionError(
                f"tasklet {node.label!r} did not assign output connector "
                f"{edge.src_conn!r}")
        _write(ctx, edge.memlet, env, local[edge.src_conn])


def _execute_library(ctx: _Context, state: SDFGState, node: LibraryNode,
                     env: Dict[str, Any]) -> None:
    prof = instrumentation._ACTIVE
    if prof is not None:
        with prof.region("library", node.label or type(node).__name__):
            _execute_library_body(ctx, state, node, env)
        return
    _execute_library_body(ctx, state, node, env)


def _execute_library_body(ctx: _Context, state: SDFGState, node: LibraryNode,
                          env: Dict[str, Any]) -> None:
    inputs: Dict[str, Any] = {}
    for edge in state.in_edges(node):
        if edge.memlet.is_empty() or edge.dst_conn is None:
            continue
        inputs[edge.dst_conn] = _read(ctx, edge.memlet, env)
    sym_env = {k: v for k, v in env.items() if isinstance(v, (int, np.integer))}
    outputs = node.compute(inputs, sym_env)
    for edge in state.out_edges(node):
        if edge.memlet.is_empty() or edge.src_conn is None:
            continue
        if edge.src_conn not in outputs:
            raise ExecutionError(
                f"library node {node.label!r} produced no output for "
                f"connector {edge.src_conn!r}")
        _write(ctx, edge.memlet, env, outputs[edge.src_conn])


def _execute_nested(ctx: _Context, state: SDFGState, node: NestedSDFG,
                    env: Dict[str, Any]) -> None:
    inner = node.sdfg
    inner_containers: Dict[str, Any] = {}
    writeback: List = []
    for edge in state.in_edges(node):
        if edge.memlet.is_empty() or edge.dst_conn is None:
            continue
        outer_desc = ctx.sdfg.arrays[edge.memlet.data]
        storage = ctx.storage(edge.memlet.data, env)
        if isinstance(outer_desc, Stream):
            inner_containers[edge.dst_conn] = storage
            continue
        if isinstance(outer_desc, Scalar):
            inner_containers[edge.dst_conn] = storage
            continue
        slices = edge.memlet.subset.to_slices(env)
        view = storage[slices]
        inner_desc = inner.arrays[edge.dst_conn]
        # squeeze/reshape view to match the inner container's rank
        inner_containers[edge.dst_conn] = _conform(view, inner_desc, env, node)
    for edge in state.out_edges(node):
        if edge.memlet.is_empty() or edge.src_conn is None:
            continue
        outer_desc = ctx.sdfg.arrays[edge.memlet.data]
        storage = ctx.storage(edge.memlet.data, env)
        if isinstance(outer_desc, (Stream, Scalar)):
            inner_containers.setdefault(edge.src_conn, storage)
            continue
        slices = edge.memlet.subset.to_slices(env)
        view = storage[slices]
        inner_desc = inner.arrays[edge.src_conn]
        conformed = _conform(view, inner_desc, env, node)
        if conformed.base is None and conformed is not view:
            # reshape produced a copy; remember to write back after the call
            writeback.append((storage, slices, conformed))
        inner_containers.setdefault(edge.src_conn, conformed)

    inner_symbols: Dict[str, Any] = {}
    for inner_name, outer_expr in node.symbol_mapping.items():
        if hasattr(outer_expr, "evaluate"):
            inner_symbols[inner_name] = outer_expr.evaluate(env)
        elif isinstance(outer_expr, str) and outer_expr in env:
            inner_symbols[inner_name] = env[outer_expr]
        else:
            inner_symbols[inner_name] = outer_expr
    # unmapped inner symbols inherit same-named outer values
    for name, value in env.items():
        if isinstance(value, (int, np.integer)):
            inner_symbols.setdefault(name, int(value))
    # nested state machines run mid-state of the outer SDFG: their
    # boundaries are not checkpointable program points
    with masked():
        _run_machine(inner, inner_containers, inner_symbols)
    for storage, slices, data in writeback:
        storage[slices] = data.reshape(storage[slices].shape)


def _conform(view: np.ndarray, inner_desc, env, node) -> np.ndarray:
    """Make an outer view match the inner descriptor's rank/shape."""
    try:
        target_shape = tuple(int(s.evaluate(env)) for s in inner_desc.shape)
    except KeyError:
        return view
    if view.shape == target_shape:
        return view
    squeezed = view
    if view.ndim > len(target_shape):
        squeeze_axes = tuple(i for i, s in enumerate(view.shape)
                             if s == 1 and view.ndim - 1 >= len(target_shape))
        squeezed = view
        for axis in sorted(squeeze_axes, reverse=True):
            if squeezed.ndim > len(target_shape) and squeezed.shape[axis] == 1:
                squeezed = squeezed.reshape(
                    squeezed.shape[:axis] + squeezed.shape[axis + 1:])
    if squeezed.shape == target_shape:
        return squeezed
    return squeezed.reshape(target_shape)


def _execute_scope(ctx: _Context, state: SDFGState, entry: MapEntry,
                   env: Dict[str, Any],
                   scope_order: Dict[Optional[MapEntry], List[Node]]) -> None:
    prof = instrumentation._ACTIVE
    if prof is not None:
        name = entry.map.label or ",".join(entry.map.params)
        with prof.region("map", name):
            _execute_scope_body(ctx, state, entry, env, scope_order)
        return
    _execute_scope_body(ctx, state, entry, env, scope_order)


def _execute_scope_body(ctx: _Context, state: SDFGState, entry: MapEntry,
                        env: Dict[str, Any],
                        scope_order: Dict[Optional[MapEntry], List[Node]]
                        ) -> None:
    rng = entry.map.range
    iteration = []
    for begin, end, step in rng.dims:
        b = begin.evaluate(env)
        e = end.evaluate(env)
        s = step.evaluate(env)
        iteration.append(range(b, e + 1, s))
    body = scope_order[entry]
    if entry.map.schedule == ScheduleType.CPU_Multicore and iteration \
            and iteration[0]:
        from . import parallel as _parallel

        if _parallel.maybe_parallel_scope(ctx, state, entry, env,
                                          scope_order, iteration):
            return
    for point in itertools.product(*iteration):
        inner_env = dict(env)
        inner_env.update(zip(entry.map.params, point))
        _execute_level(ctx, state, body, inner_env, scope_order)


def _execute_level(ctx: _Context, state: SDFGState, nodes: List[Node],
                   env: Dict[str, Any],
                   scope_order: Dict[Optional[MapEntry], List[Node]]) -> None:
    for node in nodes:
        if isinstance(node, Tasklet):
            _execute_tasklet(ctx, state, node, env)
        elif isinstance(node, MapEntry):
            _execute_scope(ctx, state, node, env, scope_order)
        elif isinstance(node, LibraryNode):
            _execute_library(ctx, state, node, env)
        elif isinstance(node, NestedSDFG):
            _execute_nested(ctx, state, node, env)
        elif isinstance(node, AccessNode):
            # copies happen when their access node is visited: into it from
            # another access node or from outside the enclosing scope
            # (MapEntry -> transient), and out of the scope (-> MapExit)
            for edge in state.in_edges(node):
                if edge.memlet.is_empty():
                    continue
                if isinstance(edge.src, AccessNode):
                    _copy_edge(ctx, edge, env)
                elif isinstance(edge.src, MapEntry):
                    _copy_edge(ctx, edge, env,
                               src_name=state.memlet_path(edge)[0].src.data)
            for edge in state.out_edges(node):
                if isinstance(edge.dst, MapExit) and not edge.memlet.is_empty():
                    _copy_edge(ctx, edge, env,
                               dst_name=state.memlet_path(edge)[-1].dst.data)
        elif isinstance(node, MapExit):
            pass  # all writes happen at the producing code nodes
        else:  # pragma: no cover - future node kinds
            raise ExecutionError(f"cannot execute node {node!r}")


def _copy_edge(ctx: _Context, edge, env: Dict[str, Any],
               src_name: Optional[str] = None,
               dst_name: Optional[str] = None) -> None:
    """Copy along *edge*; a side that is a map entry/exit names its
    container through *src_name*/*dst_name*."""
    memlet = edge.memlet
    src_name = src_name or edge.src.data
    dst_name = dst_name or edge.dst.data
    src_desc = ctx.sdfg.arrays[src_name]
    dst_desc = ctx.sdfg.arrays[dst_name]
    src_storage = ctx.storage(src_name, env)
    dst_storage = ctx.storage(dst_name, env)
    # Determine source and destination subsets from the memlet convention:
    # memlet.data names one side; other_subset (if present) the other side.
    if memlet.data == src_name:
        src_subset = memlet.subset
        dst_subset = memlet.other_subset
    else:
        src_subset = memlet.other_subset
        dst_subset = memlet.subset

    guard = _guards._ACTIVE
    if isinstance(src_desc, Stream):
        value = src_storage.popleft()
    elif isinstance(src_desc, Scalar):
        value = src_storage[0]
    else:
        slices = (src_subset.to_slices(env) if src_subset is not None
                  else tuple(slice(None) for _ in src_storage.shape))
        if guard is not None and "bounds" in guard.modes:
            _guards.check_index(src_name, src_storage.shape, slices,
                                program=guard.program)
        value = src_storage[slices]

    if isinstance(dst_desc, Stream):
        dst_storage.append(np.copy(value))
        return
    if isinstance(dst_desc, Scalar):
        if np.ndim(value) and np.size(value) == 1:
            value = _scalar_value(value)  # a point read is a 1-element view
        if memlet.wcr:
            apply_wcr(dst_storage, 0, value, memlet.wcr)
        else:
            dst_storage[0] = value
        return
    dst_slices = (dst_subset.to_slices(env) if dst_subset is not None
                  else tuple(slice(None) for _ in dst_storage.shape))
    if guard is not None and "bounds" in guard.modes:
        _guards.check_index(dst_name, dst_storage.shape, dst_slices,
                            program=guard.program)
    target = dst_storage[dst_slices]
    value_arr = np.asarray(value)
    if value_arr.shape != target.shape:
        value_arr = value_arr.reshape(target.shape)
    if memlet.wcr:
        apply_wcr(dst_storage, dst_slices, value_arr, memlet.wcr)
    else:
        dst_storage[dst_slices] = value_arr


def execute_state(ctx: _Context, state: SDFGState) -> None:
    prof = instrumentation._ACTIVE
    if prof is not None:
        with prof.region("state", state.label):
            _execute_state_body(ctx, state)
        return
    _execute_state_body(ctx, state)


def _execute_state_body(ctx: _Context, state: SDFGState) -> None:
    order = state.scope_order()
    env = dict(ctx.symbols)
    _execute_level(ctx, state, order.get(None, []), env, order)


def _scalar_value(storage) -> Any:
    arr = np.asarray(storage)
    return arr.reshape(-1)[0]


def _run_machine(sdfg, containers: Dict[str, Any], symbols: Dict[str, Any],
                 start_state=None) -> None:
    ctx = _Context(sdfg, containers, symbols)
    state = start_state if start_state is not None else sdfg.start_state
    if state is None:
        return
    transitions = 0
    while state is not None:
        boundary(sdfg, state, ctx.containers, ctx.symbols)
        execute_state(ctx, state)
        cond_env = dict(ctx.symbols)
        # expose scalar container values to interstate conditions
        for name, desc in sdfg.arrays.items():
            if isinstance(desc, Scalar) and name in ctx.containers:
                cond_env[name] = _scalar_value(ctx.containers[name])
        next_state = None
        # deterministic order: conditional edges first, unconditional last
        out = sdfg.out_edges(state)
        out.sort(key=lambda e: e.data.is_unconditional())
        for isedge in out:
            if isedge.data.evaluate_condition(cond_env):
                # assignments may read scalar containers (data-dependent
                # bounds); evaluate against the full environment, commit
                # only the assigned symbols
                merged = dict(cond_env)
                isedge.data.apply_assignments(merged)
                for key in isedge.data.assignments:
                    ctx.symbols[key] = merged[key]
                next_state = isedge.dst
                break
        state = next_state
        transitions += 1
        if transitions > MAX_TRANSITIONS:
            raise ExecutionError("state machine exceeded the transition limit")


def prepare_arguments(sdfg, args, kwargs):
    """:meth:`CallingConvention.bind` for callers that hold only a graph
    (one graph walk per call; an artifact binds through its own)."""
    return CallingConvention(sdfg).bind(args, kwargs)


def infer_symbols(sdfg, containers: Dict[str, Any]) -> Dict[str, int]:
    """:meth:`CallingConvention.infer` for callers that hold only a graph."""
    return CallingConvention(sdfg).infer(containers)


def collect_return(sdfg, containers):
    """:meth:`CallingConvention.collect` for callers that hold only a graph."""
    return CallingConvention(sdfg).collect(containers)


def run_sdfg(sdfg, *args, validate: Optional[bool] = None,
             budget=None, **kwargs):
    """Execute an SDFG with NumPy arguments.

    Positional arguments follow ``sdfg.arg_names``; keyword arguments bind
    containers (by name) and free symbols.  Returns the ``__return``
    container if the SDFG defines one, else None.  Arrays are modified
    in place, matching the paper's calling convention.

    ``validate`` defaults to the ``validate.before_execute`` configuration
    key: malformed graphs fail fast with an :class:`InvalidSDFGError`
    naming the violated invariant instead of erroring deep inside a tasklet.

    ``budget`` (a :class:`repro.governor.Budget`; defaults to the ambient
    ``governor.*`` configuration) bounds the run: the memory plan is
    admission-checked *before* any transient is allocated, and a deadline
    arms a watchdog whose expiry raises
    :class:`~repro.governor.ExecutionTimeout` at the next state boundary.
    """
    if validate is None:
        validate = Config.get("validate.before_execute")
    if validate:
        sdfg.validate()
    convention = CallingConvention(sdfg)
    containers, symbols = convention.bind(args, kwargs)
    resolved = _governor_budget.Budget.resolve(budget)
    if resolved.is_null:
        _run_machine(sdfg, containers, symbols)
    else:
        from ..governor import governed

        with governed(resolved, sdfg, symbols, program=sdfg.name):
            _run_machine(sdfg, containers, symbols)
    return convention.collect(containers)
