"""SDFG -> specialized Python module generation (the CPU backend, §3.3).

Where the paper's CPU backend emits C++, this backend emits a specialized
Python module: map scopes whose memlets are affine in the map parameters
become *vectorized NumPy expressions over views* (so fused scopes execute as
single array statements with no interpreter-per-element overhead), and
everything else falls back to the reference interpreter at node granularity.

The generated source is kept on the CompiledSDFG for inspection — it plays
the role of the generated .cpp file.
"""

from __future__ import annotations

import ast
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

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def emit(self, text: str) -> None:
        self.lines.append("    " * self._indent + text)

    # ------------------------------------------------------------ helpers
    def subset_slices_code(self, subset: Range, desc) -> str:
        """Python tuple-of-slices code for a symbolic subset."""
        if isinstance(desc, Scalar):
            return "(slice(0, 1, 1),)"
        dims = []
        for begin, end, step in subset.dims:
            if all(isinstance(x, Integer) for x in (begin, end, step)):
                # constant dims: bake the slice (make_slice handles empty
                # ranges and descending steps; a naive `end + 1` stop is
                # wrong for both)
                s = make_slice(1, 0, begin.value, end.value, step.value)
                dims.append(f"slice({s.start}, {s.stop}, {s.step})")
            else:
                dims.append(f"make_slice(1, 0, ({begin}), ({end}), ({step}))")
        return "(" + ", ".join(dims) + ("," if len(dims) == 1 else "") + ")"

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
        if memlet.subset.is_point() is True and not memlet.dynamic:
            idx = ", ".join(f"({b})" for b, _e, _s in memlet.subset.dims)
            return f"{memlet.data}[{idx}]"
        if memlet.subset == Range.from_shape(desc.shape) and not memlet.squeeze:
            return memlet.data
        view = f"{memlet.data}[{self.subset_slices_code(memlet.subset, desc)}]"
        if memlet.squeeze:
            view = f"np.squeeze({view}, axis={memlet.squeeze})"
        return view

    def write_stmt(self, memlet: Memlet, value_code: str) -> str:
        desc = self.sdfg.arrays[memlet.data]
        if isinstance(desc, Scalar):
            target = f"{memlet.data}[0]"
        elif memlet.subset.is_point() is True and not memlet.dynamic:
            idx = ", ".join(f"({b})" for b, _e, _s in memlet.subset.dims)
            target = f"{memlet.data}[{idx}]"
        elif memlet.subset == Range.from_shape(desc.shape) and memlet.dynamic:
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
    def emit_tasklet_inline(self, state, node: Tasklet) -> None:
        tid = self.uid()
        rename: Dict[str, str] = {}
        for edge in state.in_edges(node):
            if edge.memlet.is_empty() or edge.dst_conn is None:
                continue
            var = f"__t{tid}_{edge.dst_conn}"
            rename[edge.dst_conn] = var
            self.emit_read_guard(edge.memlet)
            self.emit(f"{var} = {self.read_code(edge.memlet)}")
        out_vars = {}
        for edge in state.out_edges(node):
            if edge.memlet.is_empty() or edge.src_conn is None:
                continue
            var = f"__t{tid}_{edge.src_conn}"
            rename.setdefault(edge.src_conn, var)
            out_vars[edge.src_conn] = rename[edge.src_conn]
        # rename locals too (avoid collisions across tasklets)
        tree = ast.parse(node.code)
        local_names = set()
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                local_names.add(sub.id)
            if isinstance(sub, ast.For):
                for t in ast.walk(sub.target):
                    if isinstance(t, ast.Name):
                        local_names.add(t.id)
        for name in local_names:
            rename.setdefault(name, f"__t{tid}_{name}")
        tree = _ScalarRewrite(rename).visit(tree)
        ast.fix_missing_locations(tree)
        for stmt in tree.body:
            for line in ast.unparse(stmt).splitlines():
                self.emit(line)
        for edge in state.out_edges(node):
            if edge.memlet.is_empty() or edge.src_conn is None:
                continue
            self.emit_write_guard(edge.memlet, out_vars[edge.src_conn])
            self.emit(self.write_stmt(edge.memlet, out_vars[edge.src_conn]))

    def _tasklet_inlineable(self, state, node: Tasklet) -> bool:
        for edge in list(state.in_edges(node)) + list(state.out_edges(node)):
            if edge.memlet.is_empty():
                continue
            desc = self.sdfg.arrays.get(edge.memlet.data)
            if desc is None or isinstance(desc, Stream):
                return False
            if edge.memlet.subset is not None \
                    and any(s.name.startswith("__")
                            and s.name not in self.sdfg.symbols
                            for s in edge.memlet.free_symbols):
                # references map parameters: not a top-level tasklet
                return False
        try:
            ast.parse(node.code)
        except SyntaxError:
            return False
        return True

    # ------------------------------------------------------------ map scopes
    def emit_scope(self, state, entry: MapEntry) -> None:
        if self.instrument:
            # only the vectorized path gets a generated timer: the fallback
            # path runs through the interpreter, whose own map hook records
            # the scope (avoiding a double count)
            uid = self.uid()
            name = entry.map.label or ",".join(entry.map.params)
            self.emit(f"__mt{uid} = __prof_now()")
            if self._try_vector_scope(state, entry):
                self.emit(f"__prof_add('map', {name!r}, "
                          f"__prof_now() - __mt{uid})")
            else:
                self.lines.pop()  # drop the unused timer start
                self.node_fallback(state, entry)
            return
        if not self._try_vector_scope(state, entry):
            self.node_fallback(state, entry)

    def _try_vector_scope(self, state, entry: MapEntry) -> bool:
        params = list(entry.map.params)
        k = len(params)
        exit_ = entry.exit_node
        body = [n for n in state.scope_children(entry) if n is not exit_]
        for node in body:
            if isinstance(node, Tasklet):
                continue
            if isinstance(node, AccessNode):
                desc = self.sdfg.arrays.get(node.data)
                if desc is None or not desc.transient or isinstance(desc, Stream):
                    return False
                continue
            return False  # nested maps, libraries, nested SDFGs

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
                    plan = self._view_plan(edge.memlet, params)
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
                    plan = self._store_plan(edge.memlet, params)
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
        # access-node pass-throughs inside the scope must be point-like
        for node in body:
            if isinstance(node, AccessNode):
                for edge in list(state.in_edges(node)) + list(state.out_edges(node)):
                    if edge.memlet.is_empty():
                        continue
                    if edge.memlet.dynamic:
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

        # conflicted WCR stores under a CPU_Multicore schedule: the store
        # subset does not partition with the outermost parameter (scalar
        # accumulators, reductions over axis 0), so concurrent chunks must
        # accumulate into private identity-initialized buffers merged after
        # the join (see runtime.parallel).  Everything else writes the real
        # containers: race-free scheduling makes chunk writes disjoint.
        parallel = (entry.map.schedule == ScheduleType.CPU_Multicore
                    and k >= 1)
        conflicted: Dict[str, str] = {}
        if parallel:
            for data, plist in stores_by_data.items():
                for p in plist:
                    if p[4] is not None and (p[1] == "scalar" or 0 not in p[3]):
                        conflicted[data] = p[4]

        # ------------------------------------------------------- emission
        sid = self.uid()
        for i, (b, e, s) in enumerate(entry.map.range.dims):
            self.emit(f"__b{i}_{sid} = ({b}); __e{i}_{sid} = ({e}); "
                      f"__s{i}_{sid} = ({s})")
        target_map: Dict[str, str] = {}
        if parallel:
            # the scope body becomes a chunk function: the outermost bounds
            # are parameters (shadowing the outer names, so every make_slice
            # on axis 0 selects the chunk's span) and conflicted WCR stores
            # retarget to the per-chunk accumulator dict
            acc_var = f"__par_acc{sid}"
            target_map = {data: f"{acc_var}[{data!r}]" for data in conflicted}
            self.emit(f"def __par_body{sid}(__b0_{sid}, __e0_{sid}, "
                      f"{acc_var}):")
            self._indent += 1
        shape_var = f"__shape{sid}"
        dims = ", ".join(f"dim_length(__b{i}_{sid}, __e{i}_{sid}, __s{i}_{sid})"
                         for i in range(k))
        self.emit(f"{shape_var} = ({dims}{',' if k == 1 else ''})")
        # guard: empty iteration spaces skip the whole scope
        self.emit(f"if 0 not in {shape_var}:")
        self._indent += 1

        local_vars: Dict[str, str] = {}    # scope transient -> value var
        wire_vars: Dict[Tuple[int, str], str] = {}

        for node in self._scope_topo(state, entry, body):
            if isinstance(node, AccessNode):
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
                elif kind == "local":
                    src_var = local_vars.get(payload)
                    if src_var is None:
                        self.emit(f"pass  # uninitialized scope transient {payload}")
                        src_var = "0"
                    var = src_var
                else:  # wire
                    var = wire_vars[(id(payload[0]), payload[1])]
                rename[conn] = var
            out_names = {}
            for conn in plan["out"]:
                out_var = f"__o{tid}_{conn}"
                rename[conn] = out_var
                out_names[conn] = out_var
            # locals
            tree = ast.parse(ast.unparse(plan["tree"]))
            for sub in ast.walk(tree):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) \
                        and sub.id not in rename:
                    rename[sub.id] = f"__l{tid}_{sub.id}"
            tree = _VectorRewrite(rename).visit(tree)
            ast.fix_missing_locations(tree)
            for stmt in tree.body:
                self.emit(ast.unparse(stmt))
            for conn, actions in plan["out"].items():
                for kind, payload in actions:
                    if kind == "store":
                        if self.sanitize:
                            self.emit(f"__guard_write({payload[0]!r}, "
                                      f"{payload[0]}, "
                                      f"{self._plan_index_code(payload, sid)}, "
                                      f"{out_names[conn]})")
                        self.emit(self._store_code(
                            payload, out_names[conn], sid, k, shape_var,
                            target=target_map.get(payload[0])))
                    elif kind == "local":
                        local_vars[payload] = out_names[conn]
                    # wires resolved by consumers
            for conn in plan["out"]:
                wire_vars[(id(node), conn)] = out_names[conn]

        self._indent -= 1
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

    def _scope_topo(self, state, entry, body) -> List[Node]:
        order = []
        body_set = set(body)
        for node in state.topological_nodes():
            if node in body_set:
                order.append(node)
        return order

    def _view_plan(self, memlet: Memlet, params: List[str]):
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
        for begin, end, step in memlet.subset.dims:
            if definitely_eq(begin, end) is True:
                dec = affine_decompose(begin, params)
                if dec is None:
                    return None
                param, a, c = dec
                if param is None:
                    dim_plans.append(("const", begin))
                else:
                    if param in seen_params:
                        return None
                    seen_params.add(param)
                    dim_plans.append(("affine", param, a, c))
                    axes.append(params.index(param))
            else:
                # range dims (array-valued connector): not vectorizable here
                return None
        return (memlet.data, "array", dim_plans, axes)

    def _plan_parts(self, dim_plans, axes, sid: int) -> List[str]:
        """Per-dimension index expressions shared by views, stores, and the
        sanitizer guards.  ``axes[i]`` is the canonical parameter index of
        the i-th affine dim."""
        parts = []
        affine_i = 0
        for dp in dim_plans:
            if dp[0] == "const":
                parts.append(f"({dp[1]})")
            else:
                _, param, a, c = dp
                j = axes[affine_i]
                affine_i += 1
                parts.append(f"make_slice(({a}), ({c}), __b{j}_{sid}, "
                             f"__e{j}_{sid}, __s{j}_{sid})")
        return parts

    def _plan_index_code(self, plan, sid: int) -> str:
        dim_plans, axes = plan[2], plan[3]
        if plan[1] == "scalar":
            return "(0,)"
        parts = self._plan_parts(dim_plans, axes, sid)
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def _view_code(self, plan, sid: int, k: int) -> str:
        data, kind, dim_plans, axes = plan
        if kind == "scalar":
            return f"{data}[0]"
        parts = self._plan_parts(dim_plans, axes, sid)
        view = f"{data}[{', '.join(parts)}{',' if len(parts) == 1 else ''}]" \
            if parts else data
        if axes == list(range(k)):
            return view
        return f"align_axes({view}, {tuple(axes)}, {k})"

    def _store_plan(self, memlet: Memlet, params: List[str]):
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
        for begin, end, step in memlet.subset.dims:
            if definitely_eq(begin, end) is not True:
                return None
            dec = affine_decompose(begin, params)
            if dec is None:
                return None
            param, a, c = dec
            if param is None:
                dim_plans.append(("const", begin))
            else:
                if param in seen:
                    return None
                seen.add(param)
                dim_plans.append(("affine", param, a, c))
                axes.append(params.index(param))
        if memlet.wcr is None and len(axes) != len(params):
            return None  # overwrite race on missing parameters
        return (memlet.data, "array", dim_plans, axes, memlet.wcr)

    def _store_code(self, plan, value_var: str, sid: int, k: int,
                    shape_var: str, target: Optional[str] = None) -> str:
        data, kind, dim_plans, axes, wcr = plan
        dst = target or data
        if kind == "scalar":
            idx = "(0,)"
            if wcr is None:
                return f"{dst}[0] = np.broadcast_to({value_var}, ()).item() " \
                       f"if np.ndim({value_var}) else {value_var}"
            return (f"wcr_store({dst}, {idx}, {value_var}, {wcr!r}, (), "
                    f"{shape_var})")
        parts = self._plan_parts(dim_plans, axes, sid)
        idx = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        if wcr is None:
            return (f"store_aligned({dst}, {idx}, {value_var}, {tuple(axes)}, "
                    f"{shape_var})")
        return (f"wcr_store({dst}, {idx}, {value_var}, {wcr!r}, {tuple(axes)}, "
                f"{shape_var})")

    # ------------------------------------------------------------- copies
    def emit_copy(self, state, edge) -> None:
        src_desc = self.sdfg.arrays[edge.src.data]
        dst_desc = self.sdfg.arrays[edge.dst.data]
        if isinstance(src_desc, Stream) or isinstance(dst_desc, Stream):
            self.node_fallback(state, edge.dst)
            return
        memlet = edge.memlet
        if memlet.data == edge.src.data:
            src_subset, dst_subset = memlet.subset, memlet.other_subset
        else:
            src_subset, dst_subset = memlet.other_subset, memlet.subset
        src_code = (f"{edge.src.data}[{self.subset_slices_code(src_subset, src_desc)}]"
                    if src_subset is not None else edge.src.data)
        dst_code = (f"{edge.dst.data}[{self.subset_slices_code(dst_subset, dst_desc)}]"
                    if dst_subset is not None else edge.dst.data)
        uid = self.uid()
        if self.sanitize:
            if src_subset is not None and not isinstance(src_desc, Scalar):
                self.emit(f"__guard_read({edge.src.data!r}, {edge.src.data}, "
                          f"{self.subset_slices_code(src_subset, src_desc)})")
            if dst_subset is not None and not isinstance(dst_desc, Scalar):
                self.emit(f"__guard_read({edge.dst.data!r}, {edge.dst.data}, "
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
        scope = state.scope_dict()
        for node in state.topological_nodes():
            if scope.get(node) is not None:
                continue  # handled by its scope
            if isinstance(node, MapExit):
                continue
            if isinstance(node, AccessNode):
                for edge in state.in_edges(node):
                    if isinstance(edge.src, AccessNode) and not edge.memlet.is_empty():
                        self.emit_copy(state, edge)
                continue
            if isinstance(node, Tasklet):
                if self._tasklet_inlineable(state, node):
                    self.emit_tasklet_inline(state, node)
                else:
                    self.node_fallback(state, node)
                continue
            if isinstance(node, MapEntry):
                self.emit_scope(state, node)
                continue
            if isinstance(node, (LibraryNode, NestedSDFG)):
                self.node_fallback(state, node)
                continue
            self.node_fallback(state, node)



def _deref_scalars(expression: str, sdfg) -> str:
    """Scalar containers referenced in interstate expressions read their
    single element (matching the interpreter's condition environment)."""
    import re as _re

    for name, desc in sdfg.arrays.items():
        if isinstance(desc, Scalar) and _re.search(rf"\b{_re.escape(name)}\b",
                                                   expression):
            expression = _re.sub(rf"\b{_re.escape(name)}\b(?!\[)",
                                 f"{name}[0]", expression)
    return expression


def _containers_in_state(state) -> set:
    names = set()
    for node in state.data_nodes():
        names.add(node.data)
    for edge in state.edges():
        if not edge.memlet.is_empty():
            names.add(edge.memlet.data)
    return names


def _build_scope_order(state):
    scope = state.scope_dict()
    order: Dict[Optional[MapEntry], List[Node]] = {}
    for node in state.topological_nodes():
        if isinstance(node, MapExit):
            continue
        order.setdefault(scope.get(node), []).append(node)
    return order


# ---------------------------------------------------------------------------
# Module assembly
# ---------------------------------------------------------------------------

def generate_payload(sdfg, instrument: bool = False, sanitize: bool = False
                     ) -> Tuple[object, str, Dict[str, Tuple[int, int]]]:
    """Generate the specialized module for an SDFG.

    Returns ``(run_callable, source, closure_specs)``: the callable takes
    ``(containers, symbols)`` and executes the program; *closure_specs* maps
    interpreter-fallback closure names to positional ``(state, node)``
    indices so :func:`rehydrate_module` can rebuild the callable from cached
    source without re-generating it.

    With ``instrument=True`` the module carries per-state and per-map-scope
    timing hooks that report to :mod:`repro.instrumentation`; with
    ``sanitize=True`` it carries index-bounds and NaN/Inf guard calls that
    report to :mod:`repro.sanitizer.guards`.  Every module makes one
    ``__boundary`` call per state visit
    (:func:`repro.runtime.context.boundary`), which is all that deadlines
    and checkpointing need of it.
    """
    gen = _Generator(sdfg, instrument=instrument, sanitize=sanitize)
    states = sdfg.topological_states()
    index = {s: i for i, s in enumerate(states)}

    lines = gen.lines
    lines.append("def __run(__c, __s, __visits=None, __start=None):")
    lines.append("    if __visits is None: __visits = {}")
    # containers: transients with entry-known shapes allocate up front;
    # loop-symbol-dependent shapes (re)allocate in the states that use them.
    # A checkpoint resume passes pre-populated transients in __c — reuse
    # them instead of zero-allocating.
    dynamic_transients = set()
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
    # registered symbols plus free ones that only appear in map ranges or
    # memlet subsets (never registered through a shape)
    for sym in sorted(set(sdfg.symbols) | set(sdfg.free_symbols)):
        lines.append(f"    if {sym!r} in __s: {sym} = __s[{sym!r}]")
    for name, value in sdfg.constants.items():
        lines.append(f"    {name} = __const[{name!r}]")

    lines.append(f"    __state = {index.get(sdfg.start_state, 0)} "
                 "if __start is None else __start")
    lines.append("    while __state >= 0:")
    # the state boundary: budget tick + checkpoint hook, one thread-local
    # read when the thread carries no execution context
    lines.append("        __boundary(__sdfg, __state, __c, __s)")
    lines.append("        __visits[__state] = __visits.get(__state, 0) + 1")
    for state in states:
        si = index[state]
        lines.append(f"        if __state == {si}:  # {state.label}")
        gen._indent = 3
        if instrument:
            gen.emit(f"__st{si} = __prof_now()")
        start = len(lines)
        for name in sorted(_containers_in_state(state) & dynamic_transients):
            shape = ", ".join(f"({s})" for s in sdfg.arrays[name].shape)
            gen.emit(f"{name} = __c[{name!r}] = __alloc_shaped("
                     f"{name!r}, ({shape},))")
        gen.emit_state(state)
        if len(lines) == start:
            lines.append("            pass")
        if instrument:
            gen.emit(f"__prof_add('state', {state.label!r}, "
                     f"__prof_now() - __st{si})")
        # transitions (scalar containers are dereferenced to their value)
        out = sdfg.out_edges(state)
        out.sort(key=lambda e: e.data.is_unconditional())
        for isedge in out:
            cond = _deref_scalars(isedge.data.condition or "True", sdfg)
            lines.append(f"            if ({cond}):")
            for i, (k_, v_) in enumerate(isedge.data.assignments.items()):
                lines.append(
                    f"                __a{i} = ({_deref_scalars(v_, sdfg)})")
            for i, (k_, v_) in enumerate(isedge.data.assignments.items()):
                # write-through to the symbols dict keeps __s a faithful
                # image of the live loop symbols (checkpoint capture/resume)
                lines.append(f"                {k_} = __s[{k_!r}] = __a{i}")
            lines.append(f"                __state = {index[isedge.dst]}; continue")
        lines.append("            __state = -1; continue")

    source = "\n".join(lines) + "\n"
    run = _exec_module(sdfg, source, gen.closures, instrument=instrument,
                       sanitize=sanitize)
    return run, source, _closure_specs(sdfg, gen.closure_nodes)


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

    def runner(containers, env, _state=state, _node=node):
        symbols = {k: v for k, v in env.items()
                   if isinstance(v, (int, np.integer)) and k not in sdfg.arrays}
        ctx = ex._Context(sdfg, containers, symbols)
        order = _build_scope_order(_state)
        ex._execute_level(ctx, _state, [_node], dict(symbols), order)

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


def _exec_module(sdfg, source: str, closures: Dict[str, object],
                 instrument: bool, sanitize: bool):
    """Exec generated *source* in its execution namespace; return ``__run``."""
    import math as _math

    from ..runtime.context import boundary
    from ..runtime.executor import allocate_container
    from ..runtime.parallel import parallel_map

    namespace: Dict[str, object] = {
        "__boundary": boundary,
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

    def _alloc_shaped(name, shape):
        desc = sdfg.arrays[name]
        return np.zeros(tuple(int(s) for s in shape), dtype=desc.dtype.nptype)

    namespace["__alloc_shaped"] = _alloc_shaped
    compiled = compile(source, f"<sdfg {sdfg.name}>", "exec")
    exec(compiled, namespace)
    return namespace["__run"]
