"""SDFG -> specialized Python module generation (the CPU backend, §3.3).

Where the paper's CPU backend emits C++, this backend emits a specialized
Python module: map scopes whose memlets are affine in the map parameters
become *vectorized NumPy expressions over views* (so fused scopes execute as
single array statements with no interpreter-per-element overhead), and the
scopes the vectorizer declines become plain Python loop nests.  Only a
``CPU_Multicore`` scope of a multi-threaded build (whose chunks the
interpreter dispatches) and nodes the generator does not lower (streams,
nested SDFGs, other library kinds) call back into the reference interpreter,
at node granularity.

The generated source is kept on the CompiledSDFG for inspection — it plays
the role of the generated .cpp file.
"""

from __future__ import annotations

import ast
import functools
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.data import Array, Scalar, Stream
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
from ..library.blas import MatMul, Outer, mkl_code
from ..runtime.parallel import configured_threads
from ..symbolic import Expr, Integer, Range, definitely_eq
from .support import (Max, Min, align_axes, dim_length, make_slice,
                      store_aligned, wcr_store)

__all__ = ["generate_payload", "rehydrate_module", "affine_decompose"]


def affine_decompose(expr: Expr, params: Sequence[str]):
    """Decompose an index expression as ``a * p + c`` for a single map
    parameter ``p``.

    Returns ``(None, None, expr)`` for parameter-free expressions,
    ``(p, a, c)`` for affine single-parameter expressions, and None when the
    expression is not affine in exactly one parameter.
    """
    from ..symbolic import Symbol, sympify

    free = {s.name for s in expr.free_symbols} & set(params)
    if not free:
        return (None, None, expr)
    if len(free) > 1:
        return None
    param = next(iter(free))
    c = expr.subs({param: 0})
    a = expr.subs({param: 1}) - c
    # linearity check by reconstruction
    reconstructed = a * Symbol(param, nonnegative=False) + c
    if reconstructed != expr:
        return None
    if a.free_symbols & {Symbol(p, nonnegative=False) for p in params}:
        return None
    if c.free_symbols & {Symbol(p, nonnegative=False) for p in params}:
        return None
    return (param, a, c)


# ---------------------------------------------------------------------------
# Tasklet code analysis / rewriting
# ---------------------------------------------------------------------------

_VECTOR_OK_NODES = (
    ast.Module, ast.Assign, ast.Expr, ast.Name, ast.Constant, ast.BinOp,
    ast.UnaryOp, ast.Compare, ast.BoolOp, ast.IfExp, ast.Call, ast.Attribute,
    ast.Load, ast.Store, ast.Tuple,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift,
    ast.USub, ast.UAdd, ast.Invert, ast.Not,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq, ast.And, ast.Or,
)


def _vectorizable_code(code: str) -> Optional[ast.Module]:
    """Parse tasklet code; return the AST if every statement is a simple
    assignment of a vectorizable expression."""
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return None
    for node in ast.walk(tree):
        if not isinstance(node, _VECTOR_OK_NODES):
            return None
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
                return None
        if isinstance(node, ast.Attribute):
            # only module-attribute function references (np.xxx)
            if not isinstance(node.value, ast.Name):
                return None
    return tree


class _VectorRewrite(ast.NodeTransformer):
    """Rename connectors/locals and map scalar constructs to NumPy ones."""

    def __init__(self, rename: Dict[str, str]):
        self.rename = rename

    def visit_Name(self, node: ast.Name):
        if node.id in self.rename:
            return ast.copy_location(
                ast.Name(id=self.rename[node.id], ctx=node.ctx), node)
        return node

    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)
        if isinstance(node.func, ast.Name):
            if node.func.id == "min":
                return _nest_binary("np.minimum", node.args, node)
            if node.func.id == "max":
                return _nest_binary("np.maximum", node.args, node)
            if node.func.id == "abs":
                node.func = _dotted("np.abs")
        return node

    def visit_IfExp(self, node: ast.IfExp):
        self.generic_visit(node)
        return ast.copy_location(
            ast.Call(func=_dotted("np.where"),
                     args=[node.test, node.body, node.orelse], keywords=[]),
            node)

    def visit_BoolOp(self, node: ast.BoolOp):
        self.generic_visit(node)
        func = "np.logical_and" if isinstance(node.op, ast.And) else "np.logical_or"
        return _nest_binary(func, node.values, node)

    def visit_UnaryOp(self, node: ast.UnaryOp):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return ast.copy_location(
                ast.Call(func=_dotted("np.logical_not"), args=[node.operand],
                         keywords=[]), node)
        return node


def _dotted(path: str) -> ast.expr:
    parts = path.split(".")
    node: ast.expr = ast.Name(id=parts[0], ctx=ast.Load())
    for attr in parts[1:]:
        node = ast.Attribute(value=node, attr=attr, ctx=ast.Load())
    return node


def _nest_binary(func: str, args: List[ast.expr], origin) -> ast.expr:
    result = args[0]
    for arg in args[1:]:
        result = ast.Call(func=_dotted(func), args=[result, arg], keywords=[])
    return ast.copy_location(result, origin)


class _ScalarRewrite(ast.NodeTransformer):
    """Rename connectors/locals in scalar (inline) tasklet code."""

    def __init__(self, rename: Dict[str, str]):
        self.rename = rename

    def visit_Name(self, node: ast.Name):
        if node.id in self.rename:
            return ast.copy_location(
                ast.Name(id=self.rename[node.id], ctx=node.ctx), node)
        return node


_BINOP_UFUNC = {
    ast.Add: "np.add", ast.Sub: "np.subtract", ast.Mult: "np.multiply",
    ast.Div: "np.true_divide", ast.FloorDiv: "np.floor_divide",
    ast.Mod: "np.remainder", ast.BitAnd: "np.bitwise_and",
    ast.BitOr: "np.bitwise_or", ast.BitXor: "np.bitwise_xor",
    ast.LShift: "np.left_shift", ast.RShift: "np.right_shift",
}
_COMPARE_UFUNC = {
    ast.Lt: "np.less", ast.LtE: "np.less_equal", ast.Gt: "np.greater",
    ast.GtE: "np.greater_equal", ast.Eq: "np.equal", ast.NotEq: "np.not_equal",
}
_UNARY_UFUNC = {ast.USub: "np.negative", ast.Invert: "np.invert"}


def _ufunc_call(expr: ast.expr) -> Optional[Tuple[str, List[ast.expr]]]:
    """``(ufunc, operands)`` when *expr*'s outermost operation is exactly
    one NumPy ufunc call — so it can take ``out=`` and round the same — else
    None.  ``**`` is left out: NumPy computes ``x ** 2`` as ``square(x)``,
    not ``power``."""
    if isinstance(expr, ast.BinOp) and type(expr.op) in _BINOP_UFUNC:
        return _BINOP_UFUNC[type(expr.op)], [expr.left, expr.right]
    if isinstance(expr, ast.Compare) and len(expr.ops) == 1 \
            and type(expr.ops[0]) in _COMPARE_UFUNC:
        return _COMPARE_UFUNC[type(expr.ops[0])], [expr.left, expr.comparators[0]]
    if isinstance(expr, ast.UnaryOp) and type(expr.op) in _UNARY_UFUNC:
        return _UNARY_UFUNC[type(expr.op)], [expr.operand]
    if isinstance(expr, ast.Call) and not expr.keywords \
            and isinstance(expr.func, ast.Attribute) \
            and isinstance(expr.func.value, ast.Name) \
            and expr.func.value.id == "np":
        ufunc = getattr(np, expr.func.attr, None)
        if isinstance(ufunc, np.ufunc) and ufunc.nout == 1 \
                and len(expr.args) == ufunc.nin \
                and not any(isinstance(a, ast.Starred) for a in expr.args):
            return f"np.{expr.func.attr}", list(expr.args)
    return None


def _union_axes(axes_sets) -> Optional[frozenset]:
    """The canonical axes an element-wise result spans (None if unknown)."""
    result: frozenset = frozenset()
    for axes in axes_sets:
        if axes is None:
            return None
        result |= axes
    return result


@functools.lru_cache(maxsize=4096)
def _out_dtypes(code: str, inputs: Tuple[Tuple[str, np.dtype, bool], ...]
                ) -> Dict[str, np.dtype]:
    """The dtype of every name a vectorized tasklet assigns, given its
    inputs' ``(connector, dtype, is_scalar)``: the tasklet runs once on
    one-element samples, so NumPy's own promotion rules decide.  Names
    whose value is not a NumPy array or scalar are left out."""
    tree = _VectorRewrite({}).visit(ast.parse(code))
    ast.fix_missing_locations(tree)
    env: Dict[str, object] = {"np": np, "Min": Min, "Max": Max,
                              "abs": abs, "min": min, "max": max}
    for conn, dtype, scalar in inputs:
        env[conn] = dtype.type(1) if scalar else np.ones(1, dtype)
    try:
        with np.errstate(all="ignore"):
            exec(compile(tree, "<tasklet dtype>", "exec"), env)
    except Exception:
        return {}
    connectors = {conn for conn, _dtype, _scalar in inputs}
    return {name: value.dtype for name, value in env.items()
            if isinstance(value, (np.ndarray, np.generic))
            and name not in connectors}


class _Decline(Exception):
    """A row-code precondition fails (:class:`_RowRewrite`)."""


#: per-point reductions of a whole row, lowered over the trailing axes
_ROW_REDUCTIONS = ("max", "min", "sum", "prod")


def _join_ranks(*ranks: int) -> int:
    """The trailing rank of an element-wise result: operands of rank 0
    broadcast anywhere, others must agree (right-aligned broadcasting would
    pair a map axis with a row axis)."""
    rows = set(ranks) - {0}
    if len(rows) > 1:
        raise _Decline
    return rows.pop() if rows else 0


class _RowRewrite:
    """Rewrites a row-code tasklet's statements to run over all points of
    its map at once (§17 rule 4a).

    Every value is typed by its *trailing rank*: 0 for one that is the same
    at every point (a constant, a symbol, a scalar read), else the number
    of axes after the map's.  A subscript ``x[i, j, a:b]`` of an array
    connector becomes ``x[<i's range>, <j's range>, a:b]``; a whole-row
    ``np.max``/``np.min`` (any rank) and ``np.sum``/``np.prod`` (rank 1, on
    a C-contiguous operand, so each row is reduced by the routine and
    order ``np.sum(row)`` uses) take ``axis=<trailing axes>,
    keepdims=True``.  Locals and scalar connectors get the prefix; anything
    outside the rule raises :class:`_Decline`."""

    def __init__(self, params, arrays, scalars, free, descs, leading,
                 prefix: str):
        self.params = params
        self.arrays = arrays        # array connector -> container
        self.descs = descs
        self.leading = leading      # (container, parameter index) -> slice
        self.prefix = prefix
        #: readable name -> (emitted name, trailing rank)
        self.names = {n: (n, 0) for n in free if n != "np"}
        self.names.update({c: (prefix + c, 0) for c in scalars})
        self.locals: List[str] = []
        self.written: set = set()   # containers the statements store into
        self.reductions: set = set()  # emitted locals holding a reduction

    def statements(self, tree: ast.Module) -> List[tuple]:
        """``(target, value, container stored or None)`` per statement."""
        out = []
        for stmt in tree.body:
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                raise _Decline
            target = stmt.targets[0]
            value, rank = self.expr(stmt.value)
            if isinstance(target, ast.Subscript):
                view, target_rank = self.subscript(target)
                if rank not in (0, target_rank):
                    raise _Decline
                container = self.arrays[target.value.id]
                self.written.add(container)
                out.append((view, value, container))
                continue
            if not isinstance(target, ast.Name) or target.id == "np" \
                    or target.id in self.params or target.id in self.arrays \
                    or (target.id in self.names
                        and target.id not in self.locals):
                raise _Decline
            if target.id not in self.locals:
                self.locals.append(target.id)
            self.names[target.id] = (self.prefix + target.id, rank)
            if self.reduced(value):
                self.reductions.add(self.prefix + target.id)
            else:
                self.reductions.discard(self.prefix + target.id)
            out.append((ast.Name(id=self.prefix + target.id, ctx=ast.Store()),
                        value, None))
        return out

    def expr(self, node: ast.expr) -> Tuple[ast.expr, int]:
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, (bool, int, float)):
            return node, 0
        if isinstance(node, ast.Name):
            if node.id not in self.names or node.id in self.params:
                raise _Decline
            name, rank = self.names[node.id]
            return ast.Name(id=name, ctx=ast.Load()), rank
        if isinstance(node, ast.Subscript):
            return self.subscript(node)
        if isinstance(node, ast.BinOp) and (type(node.op) in _BINOP_UFUNC
                                            or isinstance(node.op, ast.Pow)):
            (left, a), (right, b) = self.expr(node.left), self.expr(node.right)
            if isinstance(node.op, ast.Pow) and (self.reduced(left)
                                                 or self.reduced(right)):
                # the loop holds a reduction as a NumPy scalar, and NumPy
                # computes ``scalar ** y`` with pow(), ``array ** 2`` as
                # square(array): the two may differ in the last bit
                raise _Decline
            return ast.BinOp(left=left, op=node.op, right=right), \
                _join_ranks(a, b)
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, (ast.USub, ast.UAdd, ast.Invert)):
            operand, rank = self.expr(node.operand)
            return ast.UnaryOp(op=node.op, operand=operand), rank
        if isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and type(node.ops[0]) in _COMPARE_UFUNC:
            (left, a), (right, b) = (self.expr(node.left),
                                     self.expr(node.comparators[0]))
            return ast.Compare(left=left, ops=node.ops, comparators=[right]), \
                _join_ranks(a, b)
        if isinstance(node, ast.Call) and not node.keywords \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "np":
            name = node.func.attr
            args = [self.expr(arg) for arg in node.args]
            if name in _ROW_REDUCTIONS and len(args) == 1:
                return self.reduction(name, *args[0])
            ufunc = getattr(np, name, None)
            if isinstance(ufunc, np.ufunc) and ufunc.nout == 1 \
                    and len(args) == ufunc.nin:
                return (ast.Call(func=_dotted(f"np.{name}"),
                                 args=[arg for arg, _rank in args], keywords=[]),
                        _join_ranks(*(rank for _arg, rank in args)))
        raise _Decline

    def reduced(self, node: ast.expr) -> bool:
        """Whether rewritten *node* reads a whole-row reduction, directly
        or through a local: a value the loop holds as a NumPy scalar."""
        return any(isinstance(n, ast.keyword) and n.arg == "keepdims"
                   or isinstance(n, ast.Name) and n.id in self.reductions
                   for n in ast.walk(node))

    def reduction(self, name: str, arg: ast.expr, rank: int):
        if rank == 0 or (name in ("sum", "prod") and rank != 1):
            raise _Decline
        if name in ("sum", "prod"):
            # a no-op on the C-contiguous temporaries the rule makes; it
            # keeps NumPy's pairwise row summation for strided inputs too
            arg = ast.Call(func=_dotted("np.ascontiguousarray"), args=[arg],
                           keywords=[])
        axis = "-1" if rank == 1 else str(tuple(range(-rank, 0)))
        keywords = [ast.keyword(arg="axis", value=ast.parse(axis, mode="eval").body),
                    ast.keyword(arg="keepdims", value=ast.Constant(True))]
        return ast.Call(func=_dotted(f"np.{name}"), args=[arg],
                        keywords=keywords), rank

    def subscript(self, node: ast.Subscript) -> Tuple[ast.expr, int]:
        """A connector row ``x[i, j, <slices>]`` as the view over every
        point, and its trailing rank (at least 1)."""
        if not isinstance(node.value, ast.Name) \
                or node.value.id not in self.arrays:
            raise _Decline
        data = self.arrays[node.value.id]
        elts = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        k = len(self.params)
        if len(elts) != len(self.descs[data].shape) or len(elts) <= k \
                or [getattr(e, "id", None) for e in elts[:k]] != self.params:
            raise _Decline
        parts = [self.leading(data, j) for j in range(k)]
        for elt in elts[k:]:
            if not isinstance(elt, ast.Slice):
                raise _Decline
            bounds = []
            for bound in (elt.lower, elt.upper, elt.step):
                if bound is not None:
                    bound, rank = self.expr(bound)
                    if rank:
                        raise _Decline
                bounds.append(bound)
            parts.append(ast.unparse(ast.Slice(*bounds)))
        if all(part in (":", "slice(None)") for part in parts):
            return ast.Name(id=data, ctx=ast.Load()), len(elts) - k
        view = ast.parse(f"{data}[{', '.join(parts)}]", mode="eval").body
        return view, len(elts) - k

    def sample_code(self, code: str) -> str:
        """*code* with every connector row read as the connector itself and
        the n-th statement's store as ``__store<n> = …``: the text whose
        one-element run gives the dtypes of the stored values."""
        arrays = self.arrays

        class Sample(ast.NodeTransformer):
            def visit_Subscript(self, node):
                if isinstance(node.value, ast.Name) and node.value.id in arrays:
                    return ast.Name(id=node.value.id, ctx=ast.Load())
                return self.generic_visit(node)

        tree = ast.parse(code)
        for n, stmt in enumerate(tree.body):
            if isinstance(stmt.targets[0], ast.Subscript):
                stmt.targets[0] = ast.Name(id=f"__store{n}", ctx=ast.Store())
        return ast.unparse(Sample().visit(tree))


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------

class _Generator:
    def __init__(self, sdfg, instrument: bool = False, sanitize: bool = False):
        self.sdfg = sdfg
        self.instrument = instrument
        self.sanitize = sanitize
        self.lines: List[str] = []
        self.closures: Dict[str, object] = {}
        #: closure name -> (state, node) behind each interpreter-fallback
        #: runner, so a cached module can rebuild them after rehydration
        self.closure_nodes: Dict[str, tuple] = {}
        self._uid = 0
        self._indent = 2
        #: map scopes become chunk functions only in a multi-threaded build
        #: (the thread count is part of the cache key)
        self.threads = configured_threads()
        #: (descriptor id, dimension) -> last index, for the cover test
        self._last_index: Dict[Tuple[int, int], Expr] = {}
        #: set by scope statements that need the iteration shape / guard
        self._needs_guard = False
        #: the state's scope order, for the bodies of nested scopes
        self._order: Dict[Optional[MapEntry], List[Node]] = {}
        #: loop variables of the generated loop nests being emitted,
        #: outermost first
        self._loop_params: List[str] = []
        #: names the module binds in ``__run`` (containers, symbols,
        #: constants): a loop variable must not overwrite one
        self.bound: set = set()
        #: transients whose shapes are not known at entry, and those of them
        #: a loop nest allocates (their shapes name its variables)
        self.dynamic_transients: set = set()
        self.loop_allocated: set = set()  # in the state being emitted

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def emit(self, text: str) -> None:
        self.lines.append("    " * self._indent + text)

    # ------------------------------------------------------------ helpers
    def covers(self, desc, dim: int, begin, end, step) -> bool:
        """Whether ``begin:end:step`` spans dimension *dim* of *desc* whole:
        begin 0, step 1, end = that dimension's shape − 1, compared
        structurally (no simplification)."""
        if begin != 0 or step != 1:
            return False
        key = (id(desc), dim)
        last = self._last_index.get(key)
        if last is None:
            last = self._last_index[key] = desc.shape[dim] - 1
        return end == last

    def whole(self, subset: Range, desc) -> bool:
        """Whether *subset* covers every dimension of *desc*."""
        return len(subset.dims) == len(desc.shape) and all(
            self.covers(desc, d, *dim) for d, dim in enumerate(subset.dims))

    def subset_slices_code(self, subset: Range, desc, indexed=()) -> str:
        """Python tuple-of-slices code for a symbolic subset; a subset that
        covers its container is ``...`` and a covered dimension
        ``slice(None)`` (sanitized builds keep explicit slices for the
        bounds guards).  The point dimensions *indexed* are integer
        indices, which drop them as a squeeze would."""
        if isinstance(desc, Scalar):
            return "(slice(0, 1, 1),)"
        if not self.sanitize and not indexed and self.whole(subset, desc):
            return "..."
        dims = [f"({begin})" if d in indexed
                else self.dim_slice_code(desc, d, begin, end, step)
                for d, (begin, end, step) in enumerate(subset.dims)]
        return "(" + ", ".join(dims) + ("," if len(dims) == 1 else "") + ")"

    def dim_slice_code(self, desc, d: int, begin, end, step) -> str:
        """Python slice code for ``begin:end:step`` along dimension *d* of
        *desc*; ``slice(None)`` where it covers the dimension."""
        if not self.sanitize and d < len(desc.shape) \
                and self.covers(desc, d, begin, end, step):
            return "slice(None)"
        if all(isinstance(x, Integer) for x in (begin, end, step)):
            # constant dims: bake the slice (make_slice handles empty
            # ranges and descending steps; a naive `end + 1` stop is
            # wrong for both)
            s = make_slice(1, 0, begin.value, end.value, step.value)
            return f"slice({s.start}, {s.stop}, {s.step})"
        if begin == end and step == 1:
            return f"slice(({begin}), ({begin}) + 1)"  # a point
        return f"make_slice(1, 0, ({begin}), ({end}), ({step}))"

    def _memlet_index_code(self, memlet: Memlet) -> str:
        desc = self.sdfg.arrays[memlet.data]
        if isinstance(desc, Scalar):
            return "(0,)"
        return self.subset_slices_code(memlet.subset, desc)

    def emit_read_guard(self, memlet: Memlet) -> None:
        """Sanitizer bounds check before a top-level memlet read."""
        if not self.sanitize or memlet.subset is None:
            return
        if isinstance(self.sdfg.arrays.get(memlet.data), (Scalar, Stream)):
            return
        self.emit(f"__guard_read({memlet.data!r}, {memlet.data}, "
                  f"{self._memlet_index_code(memlet)})")

    def emit_write_guard(self, memlet: Memlet, value_code: str) -> None:
        """Sanitizer bounds + NaN/Inf check before a top-level memlet write."""
        if not self.sanitize:
            return
        desc = self.sdfg.arrays.get(memlet.data)
        if desc is None or isinstance(desc, Stream):
            return
        if memlet.subset is None and not isinstance(desc, Scalar):
            return
        self.emit(f"__guard_write({memlet.data!r}, {memlet.data}, "
                  f"{self._memlet_index_code(memlet)}, {value_code})")

    def read_code(self, memlet: Memlet) -> str:
        """Expression reading a memlet in scalar (top-level) context."""
        desc = self.sdfg.arrays[memlet.data]
        if isinstance(desc, Scalar):
            return f"{memlet.data}[0]"
        if not memlet.dynamic and memlet.subset.is_point() is True:
            idx = ", ".join(f"({b})" for b, _e, _s in memlet.subset.dims)
            return f"{memlet.data}[{idx}]"
        if not memlet.squeeze and self.whole(memlet.subset, desc):
            return memlet.data
        dims = memlet.subset.dims
        if memlet.squeeze and all(d < len(dims) and dims[d][0] == dims[d][1]
                                  for d in memlet.squeeze):
            # squeezed point dimensions are integer indices
            return f"{memlet.data}[" + self.subset_slices_code(
                memlet.subset, desc, memlet.squeeze) + "]"
        view = f"{memlet.data}[{self.subset_slices_code(memlet.subset, desc)}]"
        if memlet.squeeze:
            view = f"np.squeeze({view}, axis={memlet.squeeze})"
        return view

    def write_stmt(self, memlet: Memlet, value_code: str) -> str:
        desc = self.sdfg.arrays[memlet.data]
        if isinstance(desc, Scalar):
            target = f"{memlet.data}[0]"
        elif not memlet.dynamic and memlet.subset.is_point() is True:
            idx = ", ".join(f"({b})" for b, _e, _s in memlet.subset.dims)
            target = f"{memlet.data}[{idx}]"
        elif memlet.dynamic and self.whole(memlet.subset, desc):
            # dynamic whole-array connector: code mutated the view in place
            return f"pass  # dynamic write-back of {memlet.data}"
        else:
            target = f"{memlet.data}[{self.subset_slices_code(memlet.subset, desc)}]"
        if memlet.wcr == "sum":
            return f"{target} += {value_code}"
        if memlet.wcr == "prod":
            return f"{target} *= {value_code}"
        if memlet.wcr == "min":
            return f"{target} = min({target}, {value_code})"
        if memlet.wcr == "max":
            return f"{target} = max({target}, {value_code})"
        if memlet.wcr:
            return f"{target} = ({target}) and ({value_code})" \
                if memlet.wcr == "logical_and" \
                else f"{target} = ({target}) or ({value_code})"
        return f"{target} = {value_code}"

    # ------------------------------------------------------ fallback closures
    def node_fallback(self, state, node) -> None:
        """Emit a call into the reference interpreter for one node."""
        name = f"__node{self.uid()}"
        self.closures[name] = _make_node_runner(self.sdfg, state, node)
        self.closure_nodes[name] = (state, node)
        self.emit(f"{name}(__c, locals())")

    # ------------------------------------------------------------ tasklets
    def emit_tasklet_inline(self, state, node, code: Optional[str] = None
                            ) -> None:
        """Emit *node* (a tasklet, or a library node with the *code* of its
        fast-library expansion) as scalar statements."""
        code = node.code if code is None else code
        tid = self.uid()
        rename: Dict[str, str] = {}
        # locals are renamed too (avoid collisions across tasklets)
        tree = ast.parse(code)
        local_names = set()
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                local_names.add(sub.id)
            if isinstance(sub, ast.For):
                for t in ast.walk(sub.target):
                    if isinstance(t, ast.Name):
                        local_names.add(t.id)
        for edge in state.in_edges(node):
            if edge.memlet.is_empty() or edge.dst_conn is None:
                continue
            var = f"__t{tid}_{edge.dst_conn}"
            rename[edge.dst_conn] = var
            read = self.read_code(edge.memlet)
            self.emit_read_guard(edge.memlet)
            if read == edge.memlet.data and edge.dst_conn not in local_names \
                    and not self.sdfg.arrays[read].transient:
                # a whole argument array: read under its own name
                rename[edge.dst_conn] = read
                continue
            self.emit(f"{var} = {read}")
        out_vars = {}
        for edge in state.out_edges(node):
            if edge.memlet.is_empty() or edge.src_conn is None:
                continue
            var = f"__t{tid}_{edge.src_conn}"
            rename.setdefault(edge.src_conn, var)
            out_vars[edge.src_conn] = rename[edge.src_conn]
        for name in local_names:
            rename.setdefault(name, f"__t{tid}_{name}")
        into = self._library_destination(state, node, tree)
        tree = _ScalarRewrite(rename).visit(tree)
        if into is not None:
            tree.body[0].value.keywords.append(
                ast.keyword(arg="out", value=ast.Name(id=into, ctx=ast.Load())))
        ast.fix_missing_locations(tree)
        for stmt in tree.body:
            for line in ast.unparse(stmt).splitlines():
                self.emit(line)
        for edge in state.out_edges(node):
            if edge.memlet.is_empty() or edge.src_conn is None:
                continue
            if into is not None:
                continue  # the call wrote its destination
            self.emit_write_guard(edge.memlet, out_vars[edge.src_conn])
            self.emit(self.write_stmt(edge.memlet, out_vars[edge.src_conn]))

    def _library_destination(self, state, node: Tasklet,
                             tree: ast.Module) -> Optional[str]:
        """The transient an inlined ``np.matmul``/``np.outer`` call writes
        through ``out=``, or None.

        Only where the call's output memlet covers a transient (NumPy
        allocates it C-contiguous, so BLAS rounds as it does for a fresh
        result) whose dtype and shape are exactly the call's result, read
        from the descriptors, and no operand is that transient."""
        if self.sanitize or len(tree.body) != 1:
            return None
        stmt = tree.body[0]
        if not (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.targets[0], ast.Name)):
            return None
        call = stmt.value
        func = ast.unparse(call.func)
        if func not in ("np.matmul", "np.outer") or call.keywords \
                or len(call.args) != 2 \
                or not all(isinstance(a, ast.Name) for a in call.args):
            return None
        outs = [e for e in state.out_edges(node) if not e.memlet.is_empty()]
        if len(outs) != 1 or outs[0].src_conn != stmt.targets[0].id:
            return None
        out = outs[0].memlet
        desc = self.sdfg.arrays.get(out.data)
        if not isinstance(desc, Array) or not desc.transient or out.wcr \
                or out.dynamic or not self.whole(out.subset, desc):
            return None
        ins = {e.dst_conn: e.memlet for e in state.in_edges(node)
               if e.dst_conn and not e.memlet.is_empty()}
        shapes, dtypes = [], []
        for arg in call.args:
            memlet = ins.get(arg.id)
            if memlet is None or memlet.data == out.data or memlet.dynamic \
                    or memlet.squeeze:
                return None
            arg_desc = self.sdfg.arrays[memlet.data]
            if not isinstance(arg_desc, Array) \
                    or not self.whole(memlet.subset, arg_desc):
                return None
            shapes.append(tuple(arg_desc.shape))
            dtypes.append(arg_desc.dtype.nptype)
        if np.result_type(*dtypes) != np.dtype(desc.dtype.nptype):
            return None
        a, b = shapes
        ranks = (len(a), len(b))
        if func == "np.outer":
            expect = (a[0], b[0]) if ranks == (1, 1) else None
        else:
            expect = {(2, 2): (a[0], b[-1]), (1, 2): (b[-1],),
                      (2, 1): (a[0],)}.get(ranks)
        if expect is None or tuple(desc.shape) != expect:
            return None
        return out.data

    def _tasklet_inlineable(self, state, node, params=()) -> bool:
        """Whether *node*'s memlets can be emitted as scalar statements
        where the loop variables *params* are bound; a tasklet's code must
        parse too."""
        for edge in list(state.in_edges(node)) + list(state.out_edges(node)):
            if edge.memlet.is_empty():
                continue
            desc = self.sdfg.arrays.get(edge.memlet.data)
            if desc is None or isinstance(desc, Stream):
                return False
            if edge.memlet.subset is not None \
                    and any(s.name.startswith("__")
                            and s.name not in self.sdfg.symbols
                            and s.name not in params
                            for s in edge.memlet.free_symbols):
                # references parameters of a scope not emitted as a loop
                return False
        if not isinstance(node, Tasklet):
            return True
        try:
            ast.parse(node.code)
        except SyntaxError:
            return False
        return True

    # ------------------------------------------------------------ map scopes
    def emit_scope(self, state, entry: MapEntry, body: List[Node]) -> None:
        """Emit *entry*'s scope vectorized, else as a loop nest, else (see
        :meth:`_interpreted`) as an interpreter closure."""
        timer = None
        if self.instrument:
            # generated code gets a generated timer; a closure runs through
            # the interpreter, whose own map hook records the scope (avoiding
            # a double count)
            timer = f"__mt{self.uid()}"
            self.emit(f"{timer} = __prof_now()")
        if not self._try_vector_scope(state, entry, body):
            if self._interpreted(state, entry,
                                 self._loop_params + list(entry.map.params)):
                if timer is not None:
                    self.lines.pop()  # drop the unused timer start
                self.node_fallback(state, entry)
                return
            if not self._try_row_scope(state, entry, body):
                self.emit_loop_scope(state, entry, body)
        if timer is not None:
            name = entry.map.label or ",".join(entry.map.params)
            self.emit(f"__prof_add('map', {name!r}, __prof_now() - {timer})")

    def _interpreted(self, state, entry: MapEntry, params: List[str]) -> bool:
        """Whether a scope the vectorizer declined stays an interpreter
        closure, given the loop variables *params* its body sees: when it,
        or a scope nested in it, is ``CPU_Multicore`` in a multi-threaded
        build (the interpreter dispatches its chunks), or holds a node or
        memlet the loop emitters do not lower.  So no closure is ever
        emitted inside a loop."""
        if entry.map.schedule == ScheduleType.CPU_Multicore \
                and self.threads > 1:
            return True
        for node in self._order.get(entry, []):
            if isinstance(node, MapEntry):
                if self._interpreted(state, node,
                                     params + list(node.map.params)):
                    return True
            elif isinstance(node, AccessNode):
                names = {node.data}
                for _edge, src, dst in self._copies(state, node):
                    names.update((src, dst))
                if any(isinstance(self.sdfg.arrays.get(n), Stream)
                       for n in names):
                    return True
            elif not isinstance(node, (Tasklet, MatMul, Outer)) \
                    or not self._tasklet_inlineable(state, node, params):
                return True
        return False

    def _try_row_scope(self, state, entry: MapEntry, body: List[Node]) -> bool:
        """Emit *entry*'s scope as row code: the statements of its one
        tasklet, each run over all of the map's points at once (§17 rule
        4a).  Returns False, having emitted nothing, when a precondition
        fails: the connectors are whole-container dynamic memlets (indexed
        in the code, with the map parameters as the leading indices in map
        order and slices after them) or point reads that name no parameter
        and no container the tasklet writes."""
        if self.sanitize or len(body) != 1 or not isinstance(body[0], Tasklet):
            return False
        node, params = body[0], list(entry.map.params)
        arrays: Dict[str, str] = {}   # connector -> container
        scalars: Dict[str, Memlet] = {}
        edges = [(e, e.dst_conn) for e in state.in_edges(node)] \
            + [(e, e.src_conn) for e in state.out_edges(node)]
        for edge, conn in edges:
            memlet = edge.memlet
            if memlet.is_empty():
                continue
            desc = self.sdfg.arrays.get(memlet.data)
            if conn is None or memlet.wcr or isinstance(desc, Stream):
                return False
            if memlet.dynamic and isinstance(desc, Array) \
                    and self.whole(memlet.subset, desc) \
                    and not {s.name for s in desc.free_symbols} & set(params) \
                    and arrays.setdefault(conn, memlet.data) == memlet.data:
                continue
            if edge.dst is not node or memlet.dynamic or not (
                    isinstance(desc, Scalar) or memlet.subset.is_point() is True) \
                    or {s.name for s in memlet.free_symbols} & set(params):
                return False
            scalars[conn] = memlet
        free = list(self.sdfg.symbols) + list(self.sdfg.constants) \
            + self._loop_params
        rid = self._uid + 1  # taken only if the rule applies
        dims = entry.map.range.dims
        rewrite = _RowRewrite(
            params, arrays, scalars, free, self.sdfg.arrays,
            lambda data, j: self.dim_slice_code(self.sdfg.arrays[data], j,
                                                *dims[j]),
            f"__r{rid}_")
        try:
            stmts = rewrite.statements(ast.parse(node.code))
        except (_Decline, SyntaxError):
            return False
        if any(m.data in rewrite.written for m in scalars.values()):
            return False  # the loop re-reads a point of a container it writes
        conds = self._row_guard(entry)
        if conds is None:
            return False
        inputs = tuple(sorted(
            [(c, np.dtype(self.sdfg.arrays[d].dtype.nptype), False)
             for c, d in arrays.items()]
            + [(c, np.dtype(self.sdfg.arrays[m.data].dtype.nptype), True)
               for c, m in scalars.items()]))
        dtypes = _out_dtypes(rewrite.sample_code(node.code), inputs)
        self.uid()
        if conds:
            self.emit(f"if {' and '.join(conds)}:")
            self._indent += 1
        for conn, memlet in scalars.items():
            self.emit(f"__r{rid}_{conn} = {self.read_code(memlet)}")
        for n, (target, value, container) in enumerate(stmts):
            view = ast.unparse(target)
            call = _ufunc_call(value) if container is not None else None
            if call is not None and dtypes.get(f"__store{n}") \
                    == np.dtype(self.sdfg.arrays[container].dtype.nptype):
                args = ", ".join(ast.unparse(a) for a in call[1])
                self.emit(f"{call[0]}({args}, out={view})")
            else:
                # a whole container is assigned in place, never rebound
                self.emit(f"{view}{'[...]' if view == container else ''} = "
                          f"{ast.unparse(value)}")
        if scalars or rewrite.locals:
            self.emit("del " + ", ".join(f"__r{rid}_{name}" for name
                                         in [*scalars, *rewrite.locals]))
        if conds:
            self._indent -= 1
        return True

    @staticmethod
    def _row_guard(entry: MapEntry) -> Optional[List[str]]:
        """Conditions that the map's range is not empty (the loop would
        not run, while a reduction over empty rows raises), or None for a
        constant empty range or a step that is not a positive constant."""
        conds = []
        for b, e, s in entry.map.range.dims:
            if not isinstance(s, Integer) or s.value < 1:
                return None
            if isinstance(b, Integer) and isinstance(e, Integer):
                if dim_length(b.value, e.value, s.value) == 0:
                    return None
            elif s == 1:
                conds.append(f"({e - b + 1}) > 0")
            else:
                conds.append(f"dim_length(({b}), ({e}), ({s})) > 0")
        return conds

    def emit_loop_scope(self, state, entry: MapEntry, body: List[Node]) -> None:
        """Emit *entry*'s scope as a Python loop nest, one ``for`` per
        parameter, with the top-level emitters for its body in scope order;
        a nested scope goes through :meth:`emit_scope`, so it may still
        vectorize.  A loop variable named like a name of ``__run`` or of an
        enclosing loop is renamed throughout the nest."""
        start, indent = len(self.lines), self._indent
        params = list(entry.map.params)
        for p, (b, e, s) in zip(params, entry.map.range.dims):
            bounds = [str(e + 1)]
            if b != 0 or s != 1:
                bounds.insert(0, str(b))
            if s != 1:
                bounds.append(str(s))
            self.emit(f"for {p} in range({', '.join(bounds)}):")
            self._indent += 1
        self._loop_params.extend(params)
        self._allocate_in_loop(state, entry, params)
        body_start = len(self.lines)
        for node in body:
            if isinstance(node, AccessNode):
                self.emit_copies(state, node)
            elif isinstance(node, MapEntry):
                self.emit_scope(state, node, self._order.get(node, []))
            elif isinstance(node, Tasklet):
                self.emit_tasklet_inline(state, node)
            else:  # MatMul / Outer: the call of their CPU expansion
                out = next(e for e in state.out_edges(node) if e.src_conn == "_c")
                self.emit_tasklet_inline(state, node, mkl_code(node, out))
        if len(self.lines) == body_start:
            self.emit("pass")
        del self._loop_params[len(self._loop_params) - len(params):]
        self._indent = indent
        clash = [p for p in params if p in self.bound or p in self._loop_params]
        if clash:
            uid = self.uid()
            rename = {p: f"__p{uid}_{p}" for p in clash}
            base = "    " * indent
            tree = ast.parse("\n".join(line[len(base):]
                                       for line in self.lines[start:]))
            tree = _ScalarRewrite(rename).visit(tree)
            self.lines[start:] = [base + line for line in
                                  ast.unparse(tree).splitlines()]

    def _allocate_in_loop(self, state, entry: MapEntry,
                          params: List[str]) -> None:
        """(Re)allocate, at the top of the loop body, each transient the
        scope uses whose shape names one of *params* and no variable of a
        loop nested deeper."""
        names: set = set()
        inner: set = set()
        stack = [entry]
        while stack:
            scope = stack.pop()
            for node in self._order.get(scope, []):
                if isinstance(node, AccessNode):
                    names.add(node.data)
                elif isinstance(node, MapEntry):
                    inner.update(node.map.params)
                    stack.append(node)
                for edge in state.out_edges(node):
                    if not edge.memlet.is_empty():
                        names.add(edge.memlet.data)
        for name in sorted(names & self.dynamic_transients):
            desc = self.sdfg.arrays[name]
            shape_syms = {s.name for s in desc.free_symbols}
            if shape_syms.intersection(params) and not shape_syms & inner:
                self.emit_alloc(name)
                self.loop_allocated.add(name)

    def emit_alloc(self, name: str) -> None:
        """(Re)allocate transient *name* to its shape under the live
        symbols; storage of that shape already in ``__c`` is kept, as the
        interpreter keeps it."""
        shape = ", ".join(f"({s})" for s in self.sdfg.arrays[name].shape)
        self.emit(f"{name} = __c[{name!r}] = __alloc_shaped("
                  f"{name!r}, ({shape},), __c)")

    def _try_vector_scope(self, state, entry: MapEntry,
                          body: List[Node]) -> bool:
        """Emit *entry*'s scope as vectorized statements; *body* is its
        direct children in topological order (``SDFGState.scope_order``)."""
        params = list(entry.map.params)
        k = len(params)
        exit_ = entry.exit_node
        for node in body:
            if isinstance(node, Tasklet):
                continue
            if isinstance(node, AccessNode):
                desc = self.sdfg.arrays.get(node.data)
                if desc is None or not desc.transient or isinstance(desc, Stream):
                    return False
                continue
            return False  # nested maps, libraries, nested SDFGs

        # A CPU_Multicore scope becomes a chunk function only in a build with
        # more than one thread.  Its outermost bounds are then the chunk's,
        # so no access covers a container dimension along that parameter.
        parallel = (entry.map.schedule == ScheduleType.CPU_Multicore
                    and k >= 1 and self.threads > 1)
        ranges = {} if self.sanitize else {
            p: dim for j, (p, dim) in enumerate(zip(params, entry.map.range.dims))
            if not (parallel and j == 0)}

    # analysis of all scope memlets ------------------------------------
        plans: Dict[int, Dict] = {}
        for node in body:
            if not isinstance(node, Tasklet):
                continue
            tree = _vectorizable_code(node.code)
            if tree is None:
                return False
            # code referencing map parameters by name (e.g. index-dependent
            # arithmetic) cannot become a closed-form view expression
            code_names = {n.id for n in ast.walk(tree)
                          if isinstance(n, ast.Name)}
            if code_names & set(params):
                return False
            in_plan = {}
            for edge in state.in_edges(node):
                if edge.memlet.is_empty():
                    continue
                if edge.dst_conn is None:
                    return False
                src = edge.src
                if src is entry:
                    plan = self._view_plan(edge.memlet, params, ranges)
                    if plan is None:
                        return False
                    in_plan[edge.dst_conn] = ("view", plan)
                elif isinstance(src, AccessNode):
                    in_plan[edge.dst_conn] = ("local", src.data)
                elif isinstance(src, Tasklet):
                    in_plan[edge.dst_conn] = ("wire", (src, edge.src_conn))
                else:
                    return False
            out_plan = {}
            for edge in state.out_edges(node):
                if edge.memlet.is_empty():
                    continue
                if edge.src_conn is None:
                    return False
                dst = edge.dst
                if dst is exit_:
                    plan = self._store_plan(edge.memlet, params, ranges)
                    if plan is None:
                        return False
                    out_plan.setdefault(edge.src_conn, []).append(("store", plan))
                elif isinstance(dst, AccessNode):
                    out_plan.setdefault(edge.src_conn, []).append(("local", dst.data))
                elif isinstance(dst, Tasklet):
                    out_plan.setdefault(edge.src_conn, []).append(("wire", None))
                else:
                    return False
            plans[id(node)] = {"tree": tree, "in": in_plan, "out": out_plan}
        # access-node pass-throughs inside the scope must be point-like.  A
        # scope transient copied in from outside (MapEntry -> AccessNode)
        # loads its view; one copied out to the exit is left to the loop.
        loads: Dict[str, tuple] = {}
        for node in body:
            if not isinstance(node, AccessNode):
                continue
            for edge in state.in_edges(node):
                if edge.memlet.is_empty():
                    continue
                if edge.memlet.dynamic:
                    return False
                if edge.src is entry:
                    memlet = edge.memlet
                    if memlet.data == node.data or self.sdfg.arrays[
                            memlet.data].dtype != self.sdfg.arrays[node.data].dtype:
                        return False
                    plan = self._view_plan(memlet, params, ranges)
                    if plan is None:
                        return False
                    loads[node.data] = plan
            for edge in state.out_edges(node):
                if edge.memlet.is_empty():
                    continue
                if edge.memlet.dynamic or edge.dst is exit_:
                    return False

        # cross-store alias analysis: several stores into the same container
        # (through different connectors or tasklets) are only vectorizable
        # when element-wise execution order cannot matter.  The serial
        # semantics interleave the stores per iteration; the vectorized form
        # runs each store over the whole range, so aliasing subsets (e.g.
        # A[i] and A[i+1]) would become last-writer-wins.
        stores_by_data: Dict[str, List] = {}
        for plan in plans.values():
            for actions in plan["out"].values():
                for kind, payload in actions:
                    if kind == "store":
                        stores_by_data.setdefault(payload[0], []).append(payload)
        for data, plist in stores_by_data.items():
            if len(plist) < 2:
                continue
            wcrs = {p[4] for p in plist}
            if None not in wcrs and len(wcrs) == 1:
                continue  # all the same commutative WCR: order-free
            shapes = {(p[1], str(p[2]), tuple(p[3])) for p in plist}
            if len(shapes) == 1 and len(plist[0][3]) == k:
                # identical full-rank subsets: each element is touched by
                # exactly one iteration per store, in emission (= serial)
                # order — no cross-iteration aliasing possible
                continue
            return False

        # liveness in emission order: the last tasklet reading each tasklet
        # output (keyed (id(node), connector)) and the tasklets reading each
        # container through a view
        last_use: Dict[Tuple[int, str], int] = {}
        view_reads: Dict[str, List[int]] = {}
        local_src: Dict[str, Optional[Tuple[int, str]]] = dict.fromkeys(loads)
        for i, node in enumerate(body):
            plan = plans.get(id(node))
            if plan is None:
                continue
            for kind, payload in plan["in"].values():
                if kind == "view":
                    view_reads.setdefault(payload[0], []).append(i)
                elif kind == "local":
                    if payload not in local_src:
                        return False  # a scope transient nothing wrote
                    if local_src[payload] is not None:
                        last_use[local_src[payload]] = i
                else:
                    last_use[(id(payload[0]), payload[1])] = i
            for conn, actions in plan["out"].items():
                for kind, payload in actions:
                    if kind == "local":
                        local_src[payload] = (id(node), conn)

        # conflicted WCR stores under a CPU_Multicore schedule: the store
        # subset does not partition with the outermost parameter (scalar
        # accumulators, reductions over axis 0), so concurrent chunks must
        # accumulate into private identity-initialized buffers merged after
        # the join (see runtime.parallel).  Everything else writes the real
        # containers: race-free scheduling makes chunk writes disjoint.
        conflicted: Dict[str, str] = {}
        if parallel:
            for data, plist in stores_by_data.items():
                for p in plist:
                    if p[4] is not None and (p[1] == "scalar" or 0 not in p[3]):
                        conflicted[data] = p[4]

        # ------------------------------------------------------- emission
        # The body goes first: which bounds it reads, and whether it needs
        # the iteration shape and the empty-range guard, depend on it.
        sid = self.uid()
        shape_var = f"__shape{sid}"
        acc_var = f"__par_acc{sid}"
        # in a chunk function, conflicted WCR stores retarget to the
        # per-chunk accumulator dict
        target_map = {data: f"{acc_var}[{data!r}]" for data in conflicted}
        start = len(self.lines)
        self._indent += 2 if parallel else 1
        self._needs_guard = parallel
        full = frozenset(range(k))
        local_vars: Dict[str, str] = {}    # scope transient -> value var
        wire_vars: Dict[Tuple[int, str], str] = {}
        #: value var -> (dtype or None, canonical axes it spans or None)
        info: Dict[str, Tuple[Optional[np.dtype], Optional[frozenset]]] = {}
        #: scope-owned temporaries: [var, dtype, the value occupying it]
        pool: List[list] = []
        #: names that may hold arrays the scope allocated: released at its
        #: end, so later scopes' temporaries reuse their memory
        fresh: List[str] = []

        for i, node in enumerate(body):
            if isinstance(node, AccessNode):
                plan = loads.get(node.data)
                if plan is not None:
                    var = f"__ld{self.uid()}"
                    code = self._view_code(plan, sid, k)
                    if plan[1] == "array" and plan[0] in stores_by_data:
                        code += ".copy()"  # the scope overwrites its source
                        fresh.append(var)
                    self.emit(f"{var} = {code}")
                    local_vars[node.data] = var
                    info[var] = self._plan_info(plan)
                continue
            plan = plans[id(node)]
            tid = self.uid()
            rename: Dict[str, str] = {}
            for conn, (kind, payload) in plan["in"].items():
                var = f"__v{tid}_{conn}"
                if kind == "view":
                    if self.sanitize and payload[1] != "scalar":
                        self.emit(f"__guard_read({payload[0]!r}, {payload[0]}, "
                                  f"{self._plan_index_code(payload, sid)})")
                    self.emit(f"{var} = {self._view_code(payload, sid, k)}")
                    info[var] = self._plan_info(payload)
                elif kind == "local":
                    var = local_vars[payload]
                else:  # wire
                    var = wire_vars[(id(payload[0]), payload[1])]
                rename[conn] = var
            ins = tuple(sorted((conn, info[var][0], info[var][1] == frozenset())
                               for conn, var in rename.items()))
            dtypes = _out_dtypes(node.code, ins) \
                if all(dt is not None for _c, dt, _s in ins) else {}
            out_names = {}
            for conn in plan["out"]:
                out_var = f"__o{tid}_{conn}"
                rename[conn] = out_var
                out_names[conn] = out_var
                info[out_var] = (dtypes.get(conn), None)
            # locals
            tree = ast.parse(ast.unparse(plan["tree"]))
            for sub in ast.walk(tree):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) \
                        and sub.id not in rename:
                    rename[sub.id] = f"__l{tid}_{sub.id}"
            single = tree.body[0] if len(tree.body) == 1 else None
            conn = single.targets[0].id if isinstance(single, ast.Assign) else None
            tree = _VectorRewrite(rename).visit(tree)
            ast.fix_missing_locations(tree)
            written = None  # the store an out= call performs
            statement = None
            if conn in plan["out"]:
                statement, written = self._destination_call(
                    tree.body[0].value, out_names[conn], (id(node), conn),
                    plan["out"][conn], i, k, full, info, pool, last_use,
                    view_reads, stores_by_data, target_map, sid)
            if statement is not None:
                self.emit(statement)
                if written is None:
                    fresh.append(out_names[conn])
            else:
                for stmt in tree.body:
                    self.emit(ast.unparse(stmt))
                fresh.extend(n.id for n in ast.walk(tree)
                             if isinstance(n, ast.Name)
                             and isinstance(n.ctx, ast.Store))
            for conn, actions in plan["out"].items():
                for kind, payload in actions:
                    if kind == "store":
                        if payload is written:
                            continue
                        if self.sanitize:
                            self.emit(f"__guard_write({payload[0]!r}, "
                                      f"{payload[0]}, "
                                      f"{self._plan_index_code(payload, sid)}, "
                                      f"{out_names[conn]})")
                        self.emit(self._store_code(
                            payload, out_names[conn], sid, k, shape_var,
                            target=target_map.get(payload[0]),
                            direct=self._direct_store(payload, k, stores_by_data,
                                                      target_map)))
                    elif kind == "local":
                        local_vars[payload] = out_names[conn]
                    # wires resolved by consumers
            for conn in plan["out"]:
                wire_vars[(id(node), conn)] = out_names[conn]

        if fresh and not parallel:
            self.emit("del " + ", ".join(dict.fromkeys(fresh)))
        body_lines = self.lines[start:]
        del self.lines[start:]
        self._indent -= 2 if parallel else 1
        text = "\n".join(body_lines)
        guard = self._needs_guard or shape_var in text
        extents = self._covered_extents(params, plans, loads)
        shape = ", ".join(extents.get(j) or f"dim_length(__b{j}_{sid}, "
                          f"__e{j}_{sid}, __s{j}_{sid})" for j in range(k))
        shape = f"({shape}{',' if k == 1 else ''})"
        if guard:
            text += shape
        for j, (b, e, s) in enumerate(entry.map.range.dims):
            if parallel or f"__b{j}_{sid}" in text:
                self.emit(f"__b{j}_{sid} = ({b}); __e{j}_{sid} = ({e}); "
                          f"__s{j}_{sid} = ({s})")
        if parallel:
            # the scope body becomes a chunk function: the outermost bounds
            # are parameters, shadowing the outer names
            self.emit(f"def __par_body{sid}(__b0_{sid}, __e0_{sid}, "
                      f"{acc_var}):")
            self._indent += 1
        if guard:
            # empty iteration spaces skip the whole scope
            self.emit(f"{shape_var} = {shape}")
            self.emit(f"if 0 not in {shape_var}:")
            self.lines.extend(body_lines or ["    " * (self._indent + 1) + "pass"])
        else:
            self.lines.extend(line[4:] for line in body_lines)
        if parallel:
            self._indent -= 1  # close the chunk-function def
            from ..runtime.perfmodel import tasklet_flops

            flops = sum(tasklet_flops(n.code) for n in body
                        if isinstance(n, Tasklet)) or 1
            inner = " * ".join(
                f"dim_length(__b{i}_{sid}, __e{i}_{sid}, __s{i}_{sid})"
                for i in range(1, k)) or "1"
            spec = "{" + ", ".join(f"{d!r}: ({d}, {w!r})"
                                   for d, w in sorted(conflicted.items())) + "}"
            label = entry.map.label or ",".join(params)
            self.emit(f"__par_map(__par_body{sid}, __b0_{sid}, __e0_{sid}, "
                      f"__s0_{sid}, ({flops}) * ({inner}), {spec}, {label!r})")
        return True

    def _destination_call(self, value: ast.expr, out_var: str, key, actions,
                          i: int, k: int, full: frozenset, info, pool,
                          last_use, view_reads, stores_by_data, target_map,
                          sid: int):
        """The statement computing a single-statement tasklet's result into
        its destination, as ``(statement, store it performs)``, or
        ``(None, None)`` to keep the plain expression.

        A ufunc result goes ``out=`` its container when it is that
        container's only store in the scope, with identity axes and the
        container's dtype, and no view of the container is read after it;
        otherwise a full-shape result reuses a dead scope-owned temporary of
        its dtype.  Neither changes rounding."""
        names = [n.id for n in ast.walk(value) if isinstance(n, ast.Name)]
        axes = _union_axes(info[n][1] for n in names if n in info)
        dtype = info[out_var][0]
        info[out_var] = (dtype, axes)
        call = _ufunc_call(value)
        if call is None or dtype is None:
            return None, None
        func, args = call
        args = ", ".join(ast.unparse(a) for a in args)
        stores = [p for kind, p in actions if kind == "store"]
        if len(stores) == 1:
            store = stores[0]
            if self._direct_store(store, k, stores_by_data, target_map) \
                    and dtype == self.sdfg.arrays[store[0]].dtype.nptype \
                    and all(j <= i for j in view_reads.get(store[0], ())):
                dest = self._dst_view_code(store, sid)
                return f"{out_var} = {func}({args}, out={dest})", store
        if not k or axes != full:
            return None, None
        for buf in pool:
            if buf[1] == dtype and last_use.get(buf[2], -1) <= i:
                buf[2] = key
                return f"{out_var} = {func}({args}, out={buf[0]})", None
        pool.append([out_var, dtype, key])  # a fresh array the scope owns
        return None, None

    def _direct_store(self, plan, k: int, stores_by_data, target_map) -> bool:
        """Whether a store writes its destination view directly: the only
        non-WCR store into the container in this scope, with identity
        axes."""
        return (plan[1] == "array" and plan[4] is None
                and plan[3] == list(range(k)) and not self.sanitize
                and len(stores_by_data[plan[0]]) == 1
                and plan[0] not in target_map)

    def _covered_extents(self, params, plans, loads) -> Dict[int, str]:
        """Map parameter index -> ``X.shape[d]`` for every parameter whose
        range some access covers along container dimension *d*."""
        extents: Dict[int, str] = {}
        every = [payload for plan in plans.values()
                 for kind, payload in plan["in"].values() if kind == "view"]
        every += [payload for plan in plans.values()
                  for actions in plan["out"].values()
                  for kind, payload in actions if kind == "store"]
        every += list(loads.values())
        for plan in every:
            for dp in plan[2]:
                if dp[0] == "affine" and dp[4] is not None:
                    extents.setdefault(params.index(dp[1]),
                                       f"{plan[0]}.shape[{dp[4]}]")
        return extents

    def _plan_info(self, plan):
        """(dtype, canonical axes) of the value a view plan reads."""
        dtype = np.dtype(self.sdfg.arrays[plan[0]].dtype.nptype)
        return dtype, frozenset(plan[3])

    def _dim_plan(self, desc, d: int, begin, params: List[str], ranges):
        """One point dimension of a scope access: ``("const", index)`` or
        ``("affine", param, a, c, covered)``, where *covered* is the
        container dimension *d* when ``param`` ranges over all of it with
        ``a == 1, c == 0`` (the access is then ``:``), else None."""
        dec = affine_decompose(begin, params)
        if dec is None:
            return None
        param, a, c = dec
        if param is None:
            return ("const", begin)
        covered = d if (a == 1 and c == 0 and param in ranges
                        and d < len(desc.shape)
                        and self.covers(desc, d, *ranges[param])) else None
        return ("affine", param, a, c, covered)

    def _view_plan(self, memlet: Memlet, params: List[str], ranges):
        if memlet.dynamic:
            return None
        desc = self.sdfg.arrays[memlet.data]
        if isinstance(desc, Stream):
            return None
        if isinstance(desc, Scalar):
            return (memlet.data, "scalar", [], [])
        dim_plans = []
        axes = []
        seen_params = set()
        for d, (begin, end, step) in enumerate(memlet.subset.dims):
            if definitely_eq(begin, end) is not True:
                # range dims (array-valued connector): not vectorizable here
                return None
            dp = self._dim_plan(desc, d, begin, params, ranges)
            if dp is None:
                return None
            if dp[0] == "affine":
                if dp[1] in seen_params:
                    return None
                seen_params.add(dp[1])
                axes.append(params.index(dp[1]))
            dim_plans.append(dp)
        return (memlet.data, "array", dim_plans, axes)

    def _plan_parts(self, dim_plans, axes, sid: int,
                    covers: bool = True) -> List[str]:
        """Per-dimension index expressions shared by views, stores, and the
        sanitizer guards.  ``axes[i]`` is the canonical parameter index of
        the i-th affine dim.  With *covers*, a covered dimension is ``:``
        (subscript context only)."""
        parts = []
        affine_i = 0
        for dp in dim_plans:
            if dp[0] == "const":
                self._needs_guard = True
                parts.append(f"({dp[1]})")
                continue
            _, param, a, c, covered = dp
            j = axes[affine_i]
            affine_i += 1
            if covers and covered is not None:
                parts.append(":")
                continue
            self._needs_guard = True
            parts.append(f"make_slice(({a}), ({c}), __b{j}_{sid}, "
                         f"__e{j}_{sid}, __s{j}_{sid})")
        return parts

    def _plan_index_code(self, plan, sid: int) -> str:
        dim_plans, axes = plan[2], plan[3]
        if plan[1] == "scalar":
            return "(0,)"
        parts = self._plan_parts(dim_plans, axes, sid, covers=False)
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def _subscript(self, plan, sid: int) -> Optional[str]:
        """``[...]`` subscript of a plan's view, None for the bare name."""
        parts = self._plan_parts(plan[2], plan[3], sid)
        if all(p == ":" for p in parts):
            return None
        return f"[{', '.join(parts)}{',' if len(parts) == 1 else ''}]"

    def _view_code(self, plan, sid: int, k: int) -> str:
        data, kind, _dim_plans, axes = plan[:4]
        if kind == "scalar":
            return f"{data}[0]"
        view = data + (self._subscript(plan, sid) or "")
        if axes == list(range(k)):
            return view
        return f"align_axes({view}, {tuple(axes)}, {k})"

    def _dst_view_code(self, plan, sid: int, assign: bool = False) -> str:
        """A store's destination view (identity axes): the bare name for a
        whole container, ``X[...]`` when it is an assignment target."""
        sub = self._subscript(plan, sid)
        return plan[0] + (sub or ("[...]" if assign else ""))

    def _store_plan(self, memlet: Memlet, params: List[str], ranges):
        if memlet.dynamic:
            return None
        desc = self.sdfg.arrays[memlet.data]
        if isinstance(desc, Stream):
            return None
        if isinstance(desc, Scalar):
            if memlet.wcr is None and params:
                return None  # every iteration overwrites a scalar: race
            return (memlet.data, "scalar", [], [], memlet.wcr)
        dim_plans = []
        axes = []
        seen = set()
        for d, (begin, end, step) in enumerate(memlet.subset.dims):
            if definitely_eq(begin, end) is not True:
                return None
            dp = self._dim_plan(desc, d, begin, params, ranges)
            if dp is None:
                return None
            if dp[0] == "affine":
                if dp[1] in seen:
                    return None
                seen.add(dp[1])
                axes.append(params.index(dp[1]))
            dim_plans.append(dp)
        if memlet.wcr is None and len(axes) != len(params):
            return None  # overwrite race on missing parameters
        return (memlet.data, "array", dim_plans, axes, memlet.wcr)

    def _store_code(self, plan, value_var: str, sid: int, k: int,
                    shape_var: str, target: Optional[str] = None,
                    direct: bool = False) -> str:
        data, kind, dim_plans, axes, wcr = plan
        if direct:
            return f"{self._dst_view_code(plan, sid, assign=True)} = {value_var}"
        dst = target or data
        if kind == "scalar":
            idx = "(0,)"
            if wcr is None:
                return f"{dst}[0] = np.broadcast_to({value_var}, ()).item() " \
                       f"if np.ndim({value_var}) else {value_var}"
            return (f"wcr_store({dst}, {idx}, {value_var}, {wcr!r}, (), "
                    f"{shape_var})")
        parts = self._plan_parts(dim_plans, axes, sid, covers=False)
        idx = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        if wcr is None:
            return (f"store_aligned({dst}, {idx}, {value_var}, {tuple(axes)}, "
                    f"{shape_var})")
        return (f"wcr_store({dst}, {idx}, {value_var}, {wcr!r}, {tuple(axes)}, "
                f"{shape_var})")

    # ------------------------------------------------------------- copies
    @staticmethod
    def _copies(state, node: AccessNode):
        """The copies the interpreter performs when it visits *node*, as
        ``(edge, source, destination)`` container names: into it from
        another access node or from outside the enclosing scope (a
        ``MapEntry``, along the memlet path), and out of the scope (to a
        ``MapExit``)."""
        for edge in state.in_edges(node):
            if edge.memlet.is_empty():
                continue
            if isinstance(edge.src, AccessNode):
                yield edge, edge.src.data, node.data
            elif isinstance(edge.src, MapEntry):
                yield edge, state.memlet_path(edge)[0].src.data, node.data
        for edge in state.out_edges(node):
            if isinstance(edge.dst, MapExit) and not edge.memlet.is_empty():
                yield edge, node.data, state.memlet_path(edge)[-1].dst.data

    def emit_copies(self, state, node: AccessNode) -> None:
        for edge, src, dst in self._copies(state, node):
            self.emit_copy(state, edge, src, dst)

    def emit_copy(self, state, edge, src: str, dst: str) -> None:
        """Copy along *edge* from container *src* to container *dst*."""
        src_desc = self.sdfg.arrays[src]
        dst_desc = self.sdfg.arrays[dst]
        if isinstance(src_desc, Stream) or isinstance(dst_desc, Stream):
            self.node_fallback(state, edge.dst)
            return
        memlet = edge.memlet
        if memlet.data == src:
            src_subset, dst_subset = memlet.subset, memlet.other_subset
        else:
            src_subset, dst_subset = memlet.other_subset, memlet.subset
        src_code = (f"{src}[{self.subset_slices_code(src_subset, src_desc)}]"
                    if src_subset is not None else src)
        dst_code = (f"{dst}[{self.subset_slices_code(dst_subset, dst_desc)}]"
                    if dst_subset is not None else dst)
        uid = self.uid()
        if self.sanitize:
            if src_subset is not None and not isinstance(src_desc, Scalar):
                self.emit(f"__guard_read({src!r}, {src}, "
                          f"{self.subset_slices_code(src_subset, src_desc)})")
            if dst_subset is not None and not isinstance(dst_desc, Scalar):
                self.emit(f"__guard_read({dst!r}, {dst}, "
                          f"{self.subset_slices_code(dst_subset, dst_desc)})")
        self.emit(f"__cp{uid} = np.asarray({src_code})")
        target = f"__dst{uid}"
        self.emit(f"{target} = {dst_code}")
        if memlet.wcr == "sum":
            self.emit(f"{dst_code} = {target} + __cp{uid}.reshape({target}.shape)")
        elif memlet.wcr:
            self.emit(f"{dst_code} = np.{ {'prod': 'multiply', 'min': 'minimum', 'max': 'maximum'}.get(memlet.wcr, 'add') }"
                      f"({target}, __cp{uid}.reshape({target}.shape))")
        else:
            self.emit(f"{dst_code} = __cp{uid}.reshape({target}.shape)")

    # ------------------------------------------------------------- states
    def emit_state(self, state) -> None:
        # one scope analysis per state: every map scope takes its body from
        # the same topological order
        order = self._order = state.scope_order()
        self.loop_allocated = set()
        for node in order.get(None, []):
            if isinstance(node, AccessNode):
                self.emit_copies(state, node)
                continue
            if isinstance(node, Tasklet):
                if self._tasklet_inlineable(state, node):
                    self.emit_tasklet_inline(state, node)
                else:
                    self.node_fallback(state, node)
                continue
            if isinstance(node, MapEntry):
                self.emit_scope(state, node, order.get(node, []))
                continue
            if isinstance(node, (LibraryNode, NestedSDFG)):
                self.node_fallback(state, node)
                continue
            self.node_fallback(state, node)



def _scalar_deref(sdfg):
    """The rewrite making scalar containers referenced in interstate
    expressions read their single element (matching the interpreter's
    condition environment)."""
    names = [re.escape(name) for name, desc in sdfg.arrays.items()
             if isinstance(desc, Scalar)]
    if not names:
        return lambda expression: expression
    pattern = re.compile(rf"\b({'|'.join(names)})\b(?!\[)")
    return lambda expression: pattern.sub(r"\1[0]", expression)


def _containers_in_state(state) -> set:
    names = set()
    for node in state.data_nodes():
        names.add(node.data)
    for edge in state.edges():
        if not edge.memlet.is_empty():
            names.add(edge.memlet.data)
    return names


# ---------------------------------------------------------------------------
# Control-flow recovery
# ---------------------------------------------------------------------------

#: the exit of a region: the end of the run, or a loop's back edge or exit
_EXIT = -1


class _Unstructured(Exception):
    """The state graph is not a nest of chains, loops and branches."""


class _ControlFlow:
    """The loops and branches of a state graph, recovered for emission as
    Python control flow.  States are numbered as in
    ``sdfg.topological_states()``; the graph is read, never ``loop_info``.

    A *loop* is a state *h* that a back edge targets and that has exactly
    one out edge leaving its natural loop, to the *follow* state.  Its body
    is every state reachable from *h* without passing *h* or the follow,
    and only *h* may be entered from outside it.  A *branch* state's arms
    run to its immediate post-dominator in the innermost enclosing loop's
    body, where a back edge, an edge to the follow and the end of the run
    all reach the region's exit.  Each state is emitted at most once; a
    graph that needs more (irreducible or otherwise unstructured control
    flow) raises :class:`_Unstructured`.
    """

    def __init__(self, sdfg, states):
        index = {s: i for i, s in enumerate(states)}
        self.start = index.get(sdfg.start_state, 0)
        #: per state, its out edges in dispatch order, up to the first one
        #: that is always taken: ``(edge, destination)``
        self.out: List[List[tuple]] = []
        for state in states:
            edges = sdfg.out_edges(state)
            edges.sort(key=lambda e: e.data.is_unconditional())
            arms = []
            for edge in edges:
                arms.append((edge.data, index[edge.dst]))
                if not edge.data.condition:
                    break
            self.out.append(arms)
        # depth-first search from the start: reached states, predecessors
        # and back edges
        preds: Dict[int, List[int]] = {self.start: []}
        on_stack = {self.start: True}
        back: List[Tuple[int, int]] = []
        stack = [(self.start, iter(self.out[self.start]))]
        while stack:
            node, arms = stack[-1]
            for _edge, dst in arms:
                preds.setdefault(dst, []).append(node)
                if dst not in on_stack:
                    on_stack[dst] = True
                    stack.append((dst, iter(self.out[dst])))
                    break
                if on_stack[dst]:
                    back.append((node, dst))
            else:
                on_stack[node] = False
                stack.pop()
        self.reached = list(on_stack)
        #: loop header -> (body states, follow state)
        self.loops: Dict[int, Tuple[set, int]] = {}
        for h in dict.fromkeys(dst for _src, dst in back):
            natural = {h}
            work = [src for src, dst in back if dst == h]
            while work:
                x = work.pop()
                if x not in natural:
                    natural.add(x)
                    work.extend(preds[x])
            follows = {d for _e, d in self.out[h] if d not in natural}
            if len(follows) != 1:
                raise _Unstructured
            follow = follows.pop()
            body = {h}
            work = [d for _e, d in self.out[h]]
            while work:
                x = work.pop()
                if x not in body and x != follow:
                    body.add(x)
                    work.extend(d for _e, d in self.out[x])
            if self.start in body - {h} or any(
                    p not in body for x in body - {h} for p in preds[x]):
                raise _Unstructured  # entered other than through h
            self.loops[h] = (body, follow)
        self._pdoms: Dict[Optional[int], Dict[int, set]] = {}
        self._emitted: set = set()

    def plan(self) -> list:
        """The program as nested instructions: ``("state", k)``,
        ``("assign", edge)``, ``("loop", body)``, ``("if", arms,
        terminal)`` with ``arms = [(edge, block)]`` in dispatch order and
        *terminal* when no arm reaches a join, and the jumps
        ``("continue",)``, ``("break",)``, ``("return",)``."""
        return self._region(self.start, _EXIT, None)

    def _region(self, x: int, stop: int, loop: Optional[int]) -> list:
        """The instructions from state *x* up to *stop* inside *loop*."""
        block: list = []
        while x != stop:
            if loop is not None and x == loop:
                block.append(("continue",))
                return block
            if loop is not None and x == self.loops[loop][1]:
                block.append(("break",))
                return block
            if x in self._emitted:
                raise _Unstructured
            self._emitted.add(x)
            if x in self.loops:
                body = [("state", x)]
                if self._dispatch(x, x, body) is not None:
                    raise _Unstructured
                block.append(("loop", body))
                x = self.loops[x][1]
                continue
            block.append(("state", x))
            x = self._dispatch(x, loop, block)
            if x is None:
                return block
        return block

    def _dispatch(self, x: int, loop: Optional[int], block: list):
        """Append the transitions out of *x*; return the state control
        joins at, or None when every arm jumps."""
        arms = self.out[x]
        if not arms:
            block.append(("return",))
            return None
        if len(arms) == 1 and not arms[0][0].condition:
            block.append(("assign", arms[0][0]))
            return arms[0][1]
        join = self._ipdom(x, loop)
        block.append(("if", [(edge, [("assign", edge)]
                              + self._region(dst, join, loop))
                             for edge, dst in arms], join == _EXIT))
        return None if join == _EXIT else join

    def _ipdom(self, x: int, loop: Optional[int]) -> int:
        pdom = self._pdoms.get(loop)
        if pdom is None:
            pdom = self._pdoms[loop] = self._postdominators(loop)
        rest = pdom[x] - {x}
        for d in rest:
            if len(pdom[d]) == len(rest):
                return d
        raise _Unstructured  # no path from x leaves the region

    def _postdominators(self, loop: Optional[int]) -> Dict[int, set]:
        if loop is None:
            nodes, exits = self.reached, ()
        else:
            body, follow = self.loops[loop]
            nodes, exits = list(body), (loop, follow)
        succ = {x: [_EXIT if d in exits else d for _e, d in self.out[x]]
                or [_EXIT] for x in nodes}
        full = set(nodes) | {_EXIT}
        pdom = {x: full for x in nodes}
        pdom[_EXIT] = {_EXIT}
        changed = True
        while changed:
            changed = False
            for x in reversed(nodes):
                new = set.intersection(*(pdom[d] for d in succ[x])) | {x}
                if new != pdom[x]:
                    pdom[x] = new
                    changed = True
        return pdom

    def symbol_writes(self) -> Tuple[Dict[int, set], Dict[int, set]]:
        """Per reached state: the symbols its in edges assign, and the
        symbols every path to it has assigned."""
        assigned = {x: set() for x in self.reached}
        universe = set().union(*(edge.assignments for arms in self.out
                                 for edge, _d in arms))
        must = {x: set(universe) for x in self.reached}
        must[self.start] = set()
        changed = True
        while changed:
            changed = False
            for x in self.reached:
                for edge, d in self.out[x]:
                    assigned[d].update(edge.assignments)
                    new = must[d] & (must[x] | set(edge.assignments))
                    if new != must[d]:
                        must[d] = new
                        changed = True
        return assigned, must


#: comparison -> the one true exactly when it is false, on integers
_INVERSE = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


def _integer_expr(node: ast.expr, names: set, data: Dict[str, int]) -> bool:
    """Whether interstate expression *node* is an integer: an integer
    literal, a name in *names*, an element of a container in *data* (name
    -> rank) at integer indices, or ``+ - * // %`` of such."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Subscript):
        index = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        return isinstance(node.value, ast.Name) \
            and data.get(node.value.id) == len(index) \
            and all(_integer_expr(i, names, data) for i in index)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod)):
        return _integer_expr(node.left, names, data) \
            and _integer_expr(node.right, names, data)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _integer_expr(node.operand, names, data)
    return False


def _integer_names(sdfg) -> Tuple[set, Dict[str, int]]:
    """``(names, data)``: the names an interstate expression reads as
    integers, and the integer containers with their ranks.  The names are
    the integer scalar containers, the symbols no edge assigns (the calling
    convention binds them with ``int()``) and the symbols every assignment
    of which is an integer expression — assumed of all, then dropped until
    stable."""
    data = {name: len(desc.shape) for name, desc in sdfg.arrays.items()
            if np.issubdtype(desc.dtype.nptype, np.integer)}
    assigned: Dict[str, List[ast.expr]] = {}
    for edge in sdfg.edges():
        for sym, value in edge.data.assignments.items():
            try:
                assigned.setdefault(sym, []).append(
                    ast.parse(str(value), mode="eval").body)
            except SyntaxError:
                assigned.setdefault(sym, []).append(ast.Constant(None))
    names = set(sdfg.symbols) | set(assigned) | {
        name for name in data if isinstance(sdfg.arrays[name], Scalar)}
    changed = True
    while changed:
        changed = False
        for sym, values in assigned.items():
            if sym in names and not all(_integer_expr(v, names, data)
                                        for v in values):
                names.discard(sym)
                changed = True
    return names, data


def _jumps(block: list) -> bool:
    """Whether control never falls off the end of *block*."""
    last = block[-1] if block else ("",)
    return last[0] in ("continue", "break", "return") \
        or (last[0] == "if" and last[2])


def _empty(block: list) -> bool:
    """Whether *block* emits nothing."""
    return all(instr[0] == "assign" and not instr[1].assignments
               for instr in block)


def _size(block: list) -> int:
    """The number of states *block* emits."""
    n = 0
    for instr in block:
        if instr[0] == "state":
            n += 1
        elif instr[0] == "loop":
            n += _size(instr[1])
        elif instr[0] == "if":
            n += sum(_size(arm) for _edge, arm in instr[1])
    return n


class _Structured:
    """Renders a :class:`_ControlFlow` plan as the body of ``__run``.

    Each state is preceded by its boundary, made only when the call carries
    an execution context (after writing the symbols its in edges assign to
    ``__s``), and by its visit counter."""

    def __init__(self, sdfg, cf: _ControlFlow, states, bodies):
        self.deref = _scalar_deref(sdfg)
        self.states = states
        self.bodies = bodies
        self.assigned, self.must = cf.symbol_writes()
        self.sdfg = sdfg
        self.lines: List[str] = []

    @functools.cached_property
    def integers(self) -> Tuple[set, Dict[str, int]]:
        """:func:`_integer_names` of the graph, when a branch needs it."""
        return _integer_names(self.sdfg)

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def block(self, block: list, depth: int, tail: Optional[str]) -> None:
        """Emit *block*; *tail* is the jump that falling off its end
        amounts to (omitted when it is the block's last instruction)."""
        start = len(self.lines)
        for i, instr in enumerate(block):
            last = i == len(block) - 1
            kind = instr[0]
            if kind == "state":
                self.state(instr[1], depth)
            elif kind == "assign":
                self.assign(instr[1], depth)
            elif kind == "loop":
                self.emit(depth, "while True:")
                self.block(instr[1], depth + 1, "continue")
            elif kind == "if":
                self.branch(instr[1], depth, tail if last else None)
            elif not (last and kind == tail):
                self.emit(depth, kind)
        if len(self.lines) == start:
            self.emit(depth, "pass")

    def state(self, k: int, depth: int) -> None:
        syms = sorted(self.assigned[k])
        sync = "".join(f"__s[{s!r}] = {s}; " for s in syms
                       if s in self.must[k])
        maybe = [s for s in syms if s not in self.must[k]]
        call = f"__boundary(__sdfg, {k}, __c, __s)"
        if maybe:
            self.emit(depth, "if __ctx is not None:")
            for s in maybe:
                self.emit(depth + 1, f"if {s} is not __unset: __s[{s!r}] = {s}")
            self.emit(depth + 1, sync + call)
        else:
            self.emit(depth, f"if __ctx is not None: {sync}{call}")
        self.emit(depth, f"__n{k} += 1  # {self.states[k].label}")
        pad = "    " * depth
        self.lines.extend(pad + line for line in self.bodies[k])

    def assign(self, edge, depth: int) -> None:
        if edge.assignments:
            values = ", ".join(f"({self.deref(v)})"
                               for v in edge.assignments.values())
            self.emit(depth, f"{', '.join(edge.assignments)} = {values}")

    def branch(self, arms, depth: int, tail: Optional[str]) -> None:
        """Emit a state's conditional transitions in dispatch order; no arm
        taken ends the run."""
        conds = [self.deref(e.condition) if e.condition
                 else None for e, _arm in arms]
        blocks = [arm for _e, arm in arms]
        inverse = None
        if len(conds) == 2 and None not in conds and (
                conds[1] == f"not ({conds[0]})"
                or conds[0] == f"not ({conds[1]})"
                or self.opposite(arms[0][0].condition, arms[1][0].condition)):
            # the second arm runs exactly when the first does not
            if _empty(blocks[0]):
                self.emit(depth, f"if ({conds[1]}):")
                self.block(blocks[1], depth + 1, tail)
                return
            inverse, conds[1] = conds[1], None
        total = conds[-1] is None
        falls = [i for i, arm in enumerate(blocks) if not _jumps(arm)]
        if len(falls) > 1:
            self.chain(conds, blocks, depth, tail, total)
            return
        # one arm (the one falling through, else the largest) is emitted
        # unnested: the arms ahead of it jump, so plain `if`s dispatch them
        # as `elif`s would, and the arms after it go under its negation
        f = falls[0] if falls else max(range(len(blocks)),
                                       key=lambda i: _size(blocks[i]))
        for cond, arm in zip(conds[:f], blocks[:f]):
            self.emit(depth, f"if ({cond}):")
            self.block(arm, depth + 1, None)
        if conds[f] is not None and inverse is not None:
            self.emit(depth, f"if ({inverse}):")  # f is the first of the two
            self.block(blocks[1], depth + 1, None)
        elif conds[f] is not None:
            self.emit(depth, f"if not ({conds[f]}):")
            self.chain(conds[f + 1:], blocks[f + 1:], depth + 1, None, total)
        self.block(blocks[f], depth, tail)

    def opposite(self, first: str, second: str) -> bool:
        """Whether condition *second* is true exactly when *first* is
        false: inverse comparisons (``<``/``>=``, ``>``/``<=``,
        ``==``/``!=``) of the same two integer operands.  On floats a NaN
        makes both false, and then no arm is taken."""
        try:
            a, b = (ast.parse(c, mode="eval").body for c in (first, second))
        except SyntaxError:
            return False
        if not (isinstance(a, ast.Compare) and isinstance(b, ast.Compare)
                and len(a.ops) == len(b.ops) == 1
                and _INVERSE.get(type(a.ops[0])) is type(b.ops[0])):
            return False
        operands = [(a.left, b.left), (a.comparators[0], b.comparators[0])]
        return all(ast.dump(x) == ast.dump(y)
                   and _integer_expr(x, *self.integers) for x, y in operands)

    def chain(self, conds, blocks, depth: int, tail: Optional[str],
              total: bool) -> None:
        """``if``/``elif``/``else`` over the arms; ``else: return`` unless
        one of them is always taken."""
        for i, (cond, arm) in enumerate(zip(conds, blocks)):
            if cond is None:
                if i == 0:
                    self.block(arm, depth, tail)
                    return
                if _empty(arm):
                    return
                self.emit(depth, "else:")
            else:
                self.emit(depth, f"{'elif' if i else 'if'} ({cond}):")
            self.block(arm, depth + 1, tail)
        if not total:
            if not all(_jumps(arm) for arm in blocks):
                self.emit(depth, "else:")
                depth += 1
            self.emit(depth, "return")


# ---------------------------------------------------------------------------
# Module assembly
# ---------------------------------------------------------------------------

def _tuple(items) -> str:
    items = list(items)
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def generate_payload(sdfg, instrument: bool = False, sanitize: bool = False,
                     dispatcher: bool = False
                     ) -> Tuple[object, str, Dict[str, Tuple[int, int]]]:
    """Generate the specialized module for an SDFG.

    Returns ``(run_callable, source, closure_specs)``: the callable takes
    ``(containers, symbols, visits)`` and executes the program, adding its
    per-state visit counts to *visits*; *closure_specs* maps
    interpreter-fallback closure names to positional ``(state, node)``
    indices so :func:`rehydrate_module` can rebuild the callable from cached
    source without re-generating it.

    The state machine becomes Python control flow (:class:`_ControlFlow`);
    a graph whose control flow is not recovered, and any graph with
    ``dispatcher=True``, runs in a ``while __state`` dispatch loop instead,
    whose callable also takes a start state (a checkpoint resume).  Either
    way the module makes the state-boundary call
    (:func:`repro.runtime.context.boundary`) before each state visit when
    the call carries an execution context, and none when it does not.

    With ``instrument=True`` the module carries per-state and per-map-scope
    timing hooks that report to :mod:`repro.instrumentation`; with
    ``sanitize=True`` it carries index-bounds and NaN/Inf guard calls that
    report to :mod:`repro.sanitizer.guards`.
    """
    gen = _Generator(sdfg, instrument=instrument, sanitize=sanitize)
    states = sdfg.topological_states()
    cf = plan = None
    if not dispatcher:
        try:
            cf = _ControlFlow(sdfg, states)
            plan = cf.plan()
        except _Unstructured:
            plan = None

    lines = gen.lines
    lines.append("def __run(__c, __s, __visits, __start=None):"
                 if plan is None else "def __run(__c, __s, __visits):")
    # containers: transients with entry-known shapes allocate up front;
    # loop-symbol-dependent shapes (re)allocate in the states that use them.
    # A checkpoint resume passes pre-populated transients in __c — reuse
    # them instead of zero-allocating.
    dynamic_transients = gen.dynamic_transients
    entry_syms = set(sdfg.free_symbols)
    for name, desc in sdfg.arrays.items():
        if desc.transient:
            shape_syms = {s.name for s in desc.free_symbols}
            if shape_syms <= entry_syms:
                lines.append(
                    f"    {name} = __c[{name!r}] = ("
                    f"__c[{name!r}] if {name!r} in __c "
                    f"else __alloc({name!r}, __s))")
            else:
                dynamic_transients.add(name)
    for name, desc in sdfg.arrays.items():
        if not desc.transient:
            lines.append(f"    {name} = __c[{name!r}]")
    assigned = sorted({k for isedge in sdfg.edges()
                       for k in isedge.data.assignments})
    gen.bound.update(sdfg.arrays, sdfg.symbols, entry_syms, sdfg.constants,
                     assigned)
    # registered symbols plus free ones that only appear in map ranges or
    # memlet subsets (never registered through a shape); the structured
    # module binds every assigned symbol, to __unset until it is assigned
    for sym in sorted(set(sdfg.symbols) | entry_syms | set(assigned)):
        if plan is not None and sym in assigned:
            lines.append(f"    {sym} = __s.get({sym!r}, __unset)")
        else:
            lines.append(f"    if {sym!r} in __s: {sym} = __s[{sym!r}]")
    for name, value in sdfg.constants.items():
        lines.append(f"    {name} = __const[{name!r}]")

    # state bodies, at depth 0; containers sized by loop-carried symbols
    # are allocated on each visit, ahead of the state's body (a loop nest
    # allocates those its variables size)
    bodies: List[List[str]] = []
    gen._indent = 0
    for si, state in enumerate(states):
        start = len(lines)
        gen.emit_state(state)
        body = lines[start:]
        del lines[start:]
        if instrument:
            gen.emit(f"__st{si} = __prof_now()")
        for name in sorted(_containers_in_state(state) & dynamic_transients
                           - gen.loop_allocated):
            gen.emit_alloc(name)
        lines.extend(body)
        if instrument:
            gen.emit(f"__prof_add('state', {state.label!r}, "
                     f"__prof_now() - __st{si})")
        bodies.append(lines[start:])
        del lines[start:]

    if plan is None:
        _dispatch_loop(sdfg, states, bodies, lines)
    else:
        counts = _tuple(f"__n{k}" for k in range(len(states)))
        lines.append("    __ctx = __current()")
        lines.append("    " + " = ".join(f"__n{k}" for k in range(len(states)))
                     + " = 0")
        lines.append("    try:")
        out = _Structured(sdfg, cf, states, bodies)
        out.block(plan, 2, "return")
        lines.extend(out.lines)
        lines.append("    finally:")
        lines.append(f"        __finish(__visits, {counts}, __s, "
                     f"{_tuple(repr(s) for s in assigned)}, {_tuple(assigned)})")

    source = "\n".join(lines) + "\n"
    run = _exec_module(sdfg, source, gen.closures, instrument=instrument,
                       sanitize=sanitize)
    return run, source, _closure_specs(sdfg, gen.closure_nodes)


def _dispatch_loop(sdfg, states, bodies, lines: List[str]) -> None:
    """The ``while __state`` dispatcher: one boundary call and visit count
    per state visit, then the state's body and its transitions, each
    assignment written through to ``__s``."""
    index = {s: i for i, s in enumerate(states)}
    deref = _scalar_deref(sdfg)
    lines.append(f"    __state = {index.get(sdfg.start_state, 0)} "
                 "if __start is None else __start")
    lines.append("    while __state >= 0:")
    lines.append("        __boundary(__sdfg, __state, __c, __s)")
    lines.append("        __visits[__state] = __visits.get(__state, 0) + 1")
    for si, state in enumerate(states):
        lines.append(f"        if __state == {si}:  # {state.label}")
        lines.extend("            " + line for line in bodies[si] or ["pass"])
        # transitions (scalar containers are dereferenced to their value)
        out = sdfg.out_edges(state)
        out.sort(key=lambda e: e.data.is_unconditional())
        for isedge in out:
            cond = deref(isedge.data.condition or "True")
            lines.append(f"            if ({cond}):")
            for i, (k_, v_) in enumerate(isedge.data.assignments.items()):
                lines.append(
                    f"                __a{i} = ({deref(v_)})")
            for i, (k_, v_) in enumerate(isedge.data.assignments.items()):
                # write-through to the symbols dict keeps __s a faithful
                # image of the live loop symbols (checkpoint capture/resume)
                lines.append(f"                {k_} = __s[{k_!r}] = __a{i}")
            lines.append(f"                __state = {index[isedge.dst]}; continue")
        lines.append("            __state = -1; continue")


def rehydrate_module(sdfg, source: str, closure_specs: Dict[str, Sequence[int]],
                     instrument: bool = False, sanitize: bool = False):
    """Rebuild a module's ``run`` callable from cached *source* without
    re-running code generation.

    *sdfg* must be (a deserialized copy of) the SDFG the source was generated
    from; *closure_specs* maps interpreter-fallback closure names to
    ``(state_index, node_index)`` pairs (indices into ``sdfg.states()`` /
    ``state.nodes()``) recorded by :func:`generate_payload`.
    """
    closures: Dict[str, object] = {}
    states = sdfg.states()
    for name, (state_idx, node_idx) in (closure_specs or {}).items():
        state = states[state_idx]
        node = state.nodes()[node_idx]
        closures[name] = _make_node_runner(sdfg, state, node)
    return _exec_module(sdfg, source, closures, instrument=instrument,
                        sanitize=sanitize)


def _make_node_runner(sdfg, state, node):
    """An interpreter-fallback runner executing one node of one state."""
    from ..runtime import executor as ex

    orders: list = []  # the state's scope order, built on first use

    def runner(containers, env, _state=state, _node=node):
        symbols = {k: v for k, v in env.items()
                   if isinstance(v, (int, np.integer)) and k not in sdfg.arrays}
        ctx = ex._Context(sdfg, containers, symbols)
        if not orders:
            orders.append(_state.scope_order())
        ex._execute_level(ctx, _state, [_node], dict(symbols), orders[0])

    return runner


def _closure_specs(sdfg, closure_nodes: Dict[str, tuple]) -> Dict[str, Tuple[int, int]]:
    """Positional (state_index, node_index) form of the fallback closures,
    stable across serialize/deserialize round-trips."""
    states = sdfg.states()
    state_index = {s: i for i, s in enumerate(states)}
    specs: Dict[str, Tuple[int, int]] = {}
    for name, (state, node) in closure_nodes.items():
        specs[name] = (state_index[state], state.nodes().index(node))
    return specs


#: the value of a symbol the run has not assigned yet
_UNSET = object()


def _finish(visits, counts, symbols, names, values) -> None:
    """The exit of a structured module: add its per-state visit counts to
    *visits* and write the symbols it assigned to *symbols*."""
    for k, n in enumerate(counts):
        if n:
            visits[k] = visits.get(k, 0) + n
    for name, value in zip(names, values):
        if value is not _UNSET:
            symbols[name] = value


def _exec_module(sdfg, source: str, closures: Dict[str, object],
                 instrument: bool, sanitize: bool):
    """Exec generated *source* in its execution namespace; return ``__run``."""
    import math as _math

    from ..runtime.context import boundary, current
    from ..runtime.executor import allocate_container
    from ..runtime.parallel import parallel_map

    namespace: Dict[str, object] = {
        "__boundary": boundary,
        "__current": current,
        "__unset": _UNSET,
        "__finish": _finish,
        "__sdfg": sdfg,
        "__par_map": parallel_map,
        "np": np,
        "math": _math,
        "make_slice": make_slice,
        "align_axes": align_axes,
        "dim_length": dim_length,
        "store_aligned": store_aligned,
        "wcr_store": wcr_store,
        "Min": Min,
        "Max": Max,
        "__const": dict(sdfg.constants),
        "abs": abs, "min": min, "max": max, "int": int, "float": float,
        "bool": bool, "len": len, "range": range, "slice": slice,
    }
    namespace.update(closures)

    if instrument:
        import time as _time

        from .. import instrumentation as _instr

        def _prof_add(category, name, seconds):
            coll = _instr._ACTIVE
            if coll is not None:
                coll.add(category, name, seconds)

        namespace["__prof_now"] = _time.perf_counter
        namespace["__prof_add"] = _prof_add

    if sanitize:
        from ..sanitizer import guards as _sg

        namespace["__guard_read"] = _sg.guard_read
        namespace["__guard_write"] = _sg.guard_write

    namespace["__alloc"] = lambda name, symbols: allocate_container(
        sdfg.arrays[name], symbols)

    def _alloc_shaped(name, shape, containers):
        shape = tuple(int(s) for s in shape)
        existing = containers.get(name)
        if existing is not None and existing.shape == shape:
            return existing
        return np.zeros(shape, dtype=sdfg.arrays[name].dtype.nptype)

    namespace["__alloc_shaped"] = _alloc_shaped
    compiled = compile(source, f"<sdfg {sdfg.name}>", "exec")
    exec(compiled, namespace)
    return namespace["__run"]
