"""Graph cleanup transformations used by the coarsening pass:

* :class:`EmptyStateRemoval` — drop states with no nodes and trivial control
  flow.
* :class:`DegenerateMapRemoval` — remove size-1 maps (§3.1 (1)), substituting
  the parameter value into the scope's memlets and tasklet code.
* :class:`DeadDataflowElimination` — remove computations whose results are
  never observed (transient written, never read, not an argument) and
  access nodes that only carry ordering edges yet order nothing.
"""

from __future__ import annotations

import re
from typing import Dict

from ...ir.memlet import Memlet
from ...ir.nodes import AccessNode, MapEntry, MapExit, Tasklet
from ...symbolic import Integer, definitely_eq
from ..base import Transformation

__all__ = ["EmptyStateRemoval", "DegenerateMapRemoval", "DeadDataflowElimination"]


class EmptyStateRemoval(Transformation):
    """Remove empty states whose in/out edges can be merged."""

    @classmethod
    def matches(cls, sdfg, **options):
        for state in sdfg.states():
            if state.number_of_nodes() > 0:
                continue
            out = sdfg.out_edges(state)
            ins = sdfg.in_edges(state)
            if len(out) != 1 or not out[0].data.is_unconditional():
                continue
            if out[0].dst is state:
                continue
            if state is sdfg.start_state and (out[0].data.assignments or not ins):
                # keep a start state that performs initial assignments
                if not out[0].data.assignments and not ins:
                    yield (state, out[0])
                continue
            # merging requires composing edge conditions/assignments; only
            # safe when one side is trivial
            if out[0].data.assignments and any(not e.data.is_unconditional()
                                               or e.data.assignments
                                               for e in ins):
                continue
            yield (state, out[0])

    @classmethod
    def apply_match(cls, sdfg, match, **options) -> None:
        from ...ir.interstate import InterstateEdge

        state, out_edge = match
        successor = out_edge.dst
        for in_edge in sdfg.in_edges(state):
            assignments = dict(in_edge.data.assignments)
            assignments.update(out_edge.data.assignments)
            sdfg.add_edge(in_edge.src, successor,
                          InterstateEdge(in_edge.data.condition, assignments))
            sdfg.remove_edge(in_edge)
        if sdfg.start_state is state:
            sdfg.start_state = successor
            # preserve initial assignments by turning them into a fresh edge
            if out_edge.data.assignments and not sdfg.in_edges(state):
                init = sdfg.add_state("init_assign")
                sdfg.add_edge(init, successor, out_edge.data.clone())
                sdfg.start_state = init
        from .state_fusion import _update_loop_refs

        _update_loop_refs(sdfg, state, successor)
        sdfg.remove_state(state)


class DegenerateMapRemoval(Transformation):
    """Remove maps whose every dimension has exactly one iteration."""

    @classmethod
    def matches(cls, sdfg, **options):
        for state in sdfg.states():
            for node in state.nodes():
                if not isinstance(node, MapEntry):
                    continue
                if all(definitely_eq(b, e) is True for b, e, _ in node.map.range.dims):
                    yield (state, node)

    @classmethod
    def apply_match(cls, sdfg, match, **options) -> None:
        state, entry = match
        exit_ = entry.exit_node
        values = {p: b for p, (b, _e, _s) in zip(entry.map.params,
                                                 entry.map.range.dims)}

        # substitute parameter values in all scope memlets and tasklet code
        body = state.scope_subgraph_nodes(entry)
        for node in body:
            for edge in state.out_edges(node) + state.in_edges(node):
                if not edge.memlet.is_empty():
                    new_memlet = edge.memlet.subs(values)
                    state.add_edge(edge.src, edge.src_conn, edge.dst,
                                   edge.dst_conn, new_memlet)
                    state.remove_edge(edge)
            if isinstance(node, Tasklet):
                prelude = "\n".join(f"{p} = {v}" for p, v in values.items()
                                    if re.search(rf"\b{re.escape(p)}\b", node.code))
                if prelude:
                    node.code = prelude + "\n" + node.code

        # reconnect through-edges: IN_x -> OUT_x on entry; exit likewise
        for in_edge in state.in_edges(entry):
            conn = in_edge.dst_conn
            if conn and conn.startswith("IN_"):
                out_conn = "OUT_" + conn[3:]
                for out_edge in state.out_edges(entry):
                    if out_edge.src_conn == out_conn:
                        state.add_edge(in_edge.src, in_edge.src_conn,
                                       out_edge.dst, out_edge.dst_conn,
                                       out_edge.memlet.subs(values))
            elif conn is None:
                for out_edge in state.out_edges(entry):
                    if out_edge.src_conn is None:
                        state.add_edge(in_edge.src, None, out_edge.dst,
                                       out_edge.dst_conn,
                                       out_edge.memlet.subs(values))
        for out_edge in state.out_edges(exit_):
            conn = out_edge.src_conn
            if conn and conn.startswith("OUT_"):
                in_conn = "IN_" + conn[4:]
                for in_edge in state.in_edges(exit_):
                    if in_edge.dst_conn == in_conn:
                        # the inner memlet carries the precise write subset
                        state.add_edge(in_edge.src, in_edge.src_conn,
                                       out_edge.dst, out_edge.dst_conn,
                                       in_edge.memlet.subs(values))
        state.remove_node(entry)
        state.remove_node(exit_)


class DeadDataflowElimination(Transformation):
    """Remove writes to transients that are never subsequently read, and
    source/sink access nodes whose every edge is an empty (ordering-only)
    memlet: such a node lies on no path between two other nodes, so it
    orders nothing, but it keeps its container alive and allocated.

    A match is a list of ``(state, access node, producers)`` removals: all
    the ordering-only nodes of the graph at once, or one dead write."""

    @classmethod
    def matches(cls, sdfg, **options):
        read_names = set()
        orderless = []
        for state in sdfg.states():
            for node in state.data_nodes():
                reads = state.out_degree(node) > 0
                # a source or a sink, but not an isolated node
                if reads != (state.in_degree(node) > 0) and all(
                        e.memlet.is_empty() for e in
                        (state.out_edges if reads else state.in_edges)(node)):
                    orderless.append((state, node, []))
                elif reads:
                    read_names.add(node.data)
        if orderless:
            yield orderless
        for isedge in sdfg.edges():
            read_names |= isedge.data.free_symbols
        for state in sdfg.states():
            for node in state.data_nodes():
                desc = sdfg.arrays.get(node.data)
                if desc is None or not desc.transient:
                    continue
                if node.data.startswith("__return"):
                    continue
                if node.data in read_names:
                    continue
                if state.out_degree(node) != 0 or state.in_degree(node) == 0:
                    continue
                # only remove cheap producers (tasklets outside scopes)
                producers = state.predecessors(node)
                if all(isinstance(p, Tasklet) and state.entry_node_of(p) is None
                       and state.out_degree(p) == 1 and state.in_degree(p) == 0
                       for p in producers):
                    yield [(state, node, producers)]

    @classmethod
    def apply_match(cls, sdfg, match, **options) -> None:
        from .redundant_copy import _delete_if_unused

        for state, node, producers in match:
            for producer in producers:
                state.remove_node(producer)
            state.remove_node(node)
            _delete_if_unused(sdfg, node.data)
