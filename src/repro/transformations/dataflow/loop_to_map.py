"""LoopToMap (§2.2): convert for-loops with independent iterations to maps.

Matches the guard/body/after state pattern produced by the frontend (the
frontend stashes ``loop_info`` metadata on guard states) where the body has
been coarsened to a single state.  Iteration independence is established
with symbolic affine analysis: for every container written in the body, the
subsets accessed at two distinct iteration values (``i`` and ``i + delta``
with ``delta > 0``) must be provably disjoint.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from ...ir.data import Scalar
from ...ir.interstate import InterstateEdge
from ...ir.memlet import Memlet
from ...ir.nodes import AccessNode, MapEntry, MapExit, make_map_scope
from ...symbolic import Expr, Integer, Range, Symbol, sympify
from ..base import Transformation
from .redundant_copy import _accessed_outside

__all__ = ["LoopToMap", "parse_symbolic_str"]


def parse_symbolic_str(text: str, sdfg) -> Optional[Expr]:
    """Parse an interstate expression string symbolically.

    Returns None when the expression references containers (data-dependent
    bounds) or uses non-affine constructs.
    """
    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError:
        return None

    def convert(node) -> Optional[Expr]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return Integer(node.value)
            return None
        if isinstance(node, ast.Name):
            if node.id in sdfg.arrays:
                return None  # data-dependent
            return Symbol(node.id, nonnegative=False)
        if isinstance(node, ast.BinOp):
            left = convert(node.left)
            right = convert(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.Mod):
                return left % right
            return None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = convert(node.operand)
            return -inner if inner is not None else None
        return None

    return convert(tree)


class LoopToMap(Transformation):
    """Turn a parallel for-loop (guard + single body state) into a map."""

    @classmethod
    def matches(cls, sdfg, **options):
        for guard in sdfg.states():
            info = getattr(guard, "loop_info", None)
            if info is None:
                continue
            match = cls._analyze(sdfg, guard, info)
            if match is not None:
                yield match

    @classmethod
    def _analyze(cls, sdfg, guard, info):
        ivar = info["ivar"]
        # structural validation: guard -> body (cond) and guard -> after
        out = sdfg.out_edges(guard)
        if len(out) != 2:
            return None
        body = info["body_first"]
        after = info["after"]
        if body not in sdfg.states() or after not in sdfg.states():
            return None
        body_out = sdfg.out_edges(body)
        if len(body_out) != 1 or body_out[0].dst is not guard:
            return None
        if ivar not in body_out[0].data.assignments:
            return None
        # single body state between guard and itself
        body_in = sdfg.in_edges(body)
        if len(body_in) != 1 or body_in[0].src is not guard:
            return None

        start = parse_symbolic_str(info["start"], sdfg)
        stop = parse_symbolic_str(info["stop"], sdfg)
        step = parse_symbolic_str(info["step"], sdfg)
        if start is None or stop is None or step is None:
            return None
        if not isinstance(step, Integer):
            return None  # require a constant step for the disjointness proof
        if info.get("cmp", "<") == "<":
            rng_dim = (start, stop - 1, step)
            if step.value <= 0:
                return None
        else:
            rng_dim = (start, stop + 1, step)
            if step.value >= 0:
                return None

        if not cls._iterations_independent(sdfg, body, ivar):
            return None
        return (guard, body, after, ivar, rng_dim)

    @classmethod
    def _iterations_independent(cls, sdfg, body, ivar: str) -> bool:
        reads: Dict[str, List[Range]] = {}
        writes: Dict[str, List[Range]] = {}

        def record(target, name, subset, dynamic):
            if dynamic or subset is None:
                target.setdefault(name, []).append(None)
            else:
                target.setdefault(name, []).append(subset)

        for edge in body.edges():
            memlet = edge.memlet
            if memlet.is_empty():
                continue
            if isinstance(edge.src, AccessNode) and isinstance(edge.dst, AccessNode):
                # copy edge: read of src, write of dst
                if memlet.data == edge.src.data:
                    record(reads, edge.src.data, memlet.subset, memlet.dynamic)
                    record(writes, edge.dst.data,
                           memlet.other_subset, memlet.dynamic)
                else:
                    record(reads, edge.src.data,
                           memlet.other_subset, memlet.dynamic)
                    record(writes, edge.dst.data, memlet.subset, memlet.dynamic)
                continue
            # outer (hull) edges at scope boundaries are imprecise; the
            # corresponding inner edges carry the exact per-point subsets
            if isinstance(edge.src, MapExit) and isinstance(edge.dst, AccessNode):
                continue
            if isinstance(edge.src, AccessNode) and isinstance(edge.dst, MapEntry):
                continue
            is_write = isinstance(edge.dst, AccessNode) or (
                isinstance(edge.dst, MapExit) and edge.dst_conn is not None
                and edge.dst_conn.startswith("IN_"))
            if is_write:
                record(writes, memlet.data, memlet.subset, memlet.dynamic)
            else:
                record(reads, memlet.data, memlet.subset, memlet.dynamic)

        # symbols that are stable across the two compared iterations: declared
        # SDFG symbols (sizes, outer loop variables).  Map parameters are
        # iteration-local and must be renamed independently on each side.
        stable = set(sdfg.symbols) | set(sdfg.arrays)
        alpha = Symbol("__lta", nonnegative=False)
        delta = Symbol("__ltd", positive=True)

        def side(subset: Range, offset, tag: str) -> Range:
            env = {ivar: alpha + offset}
            for sym in subset.free_symbols:
                if sym.name != ivar and sym.name not in stable:
                    env[sym.name] = Symbol(sym.name + tag, nonnegative=False)
            return subset.subs(env)

        for name, write_subsets in writes.items():
            desc = sdfg.arrays[name]
            # iteration-private transients (scratch space): no dependence
            if desc.transient and not _accessed_outside(sdfg, name, body):
                continue
            if isinstance(desc, Scalar):
                return False  # scalar accumulation across iterations
            if any(w is None for w in write_subsets):
                return False  # dynamic writes are unanalyzable
            others = write_subsets + reads.get(name, [])
            if any(a is None for a in others):
                return False
            for w in write_subsets:
                if ivar not in {s.name for s in w.free_symbols}:
                    return False  # same cells written every iteration
                for a in others:
                    if side(w, Integer(0), "__L").intersects(
                            side(a, delta, "__R")) is not False:
                        return False
                    if side(w, delta, "__L").intersects(
                            side(a, Integer(0), "__R")) is not False:
                        return False
        return True

    @classmethod
    def apply_match(cls, sdfg, match, **options) -> None:
        guard, body, after, ivar, rng_dim = match

        entry, exit_ = make_map_scope(f"loop_{ivar}", [ivar], Range([rng_dim]))
        body.add_node(entry)
        body.add_node(exit_)

        sources = [n for n in body.data_nodes() if body.in_degree(n) == 0
                   and body.out_degree(n) > 0]
        sinks = [n for n in body.data_nodes() if body.out_degree(n) == 0
                 and body.in_degree(n) > 0]

        for node in sources:
            desc = sdfg.arrays[node.data]
            in_conn = f"IN_{node.data}"
            out_conn = f"OUT_{node.data}"
            if in_conn not in entry.in_connectors:
                entry.add_in_connector(in_conn)
                entry.add_out_connector(out_conn)
                outer = (Memlet(node.data, Range.from_string("0"))
                         if isinstance(desc, Scalar)
                         else Memlet.from_array(node.data, desc))
                body.add_edge(node, None, entry, in_conn, outer)
            for edge in body.out_edges(node):
                if edge.dst is entry:
                    continue
                body.add_edge(entry, out_conn, edge.dst, edge.dst_conn, edge.memlet)
                body.remove_edge(edge)

        for node in sinks:
            desc = sdfg.arrays[node.data]
            in_conn = f"IN_{node.data}"
            out_conn = f"OUT_{node.data}"
            if out_conn not in exit_.out_connectors:
                exit_.add_in_connector(in_conn)
                exit_.add_out_connector(out_conn)
                outer = (Memlet(node.data, Range.from_string("0"))
                         if isinstance(desc, Scalar)
                         else Memlet.from_array(node.data, desc))
                body.add_edge(exit_, out_conn, node, None, outer)
            for edge in body.in_edges(node):
                if edge.src is exit_:
                    continue
                body.add_edge(edge.src, edge.src_conn, exit_, in_conn, edge.memlet)
                body.remove_edge(edge)

        # maps must have dataflow through them: degenerate case of an empty
        # body (nothing to do) is handled by connecting entry to exit
        if body.out_degree(entry) == 0:
            body.add_nedge(entry, exit_, Memlet.empty())

        # rewire control flow: predecessors of the guard go straight to the
        # (now-parallel) body; the body continues to the after-state
        for edge in sdfg.in_edges(guard):
            if edge.src is body:
                sdfg.remove_edge(edge)
                continue
            assignments = {k: v for k, v in edge.data.assignments.items()
                           if k != ivar}
            sdfg.add_edge(edge.src, body,
                          InterstateEdge(edge.data.condition, assignments))
            sdfg.remove_edge(edge)
        for edge in sdfg.out_edges(guard):
            sdfg.remove_edge(edge)
        sdfg.add_edge(body, after, InterstateEdge())
        if sdfg.start_state is guard:
            sdfg.start_state = body
        sdfg.remove_state(guard)
        if hasattr(body, "loop_info"):
            del body.loop_info
