"""Greedy subgraph fusion (§3.1 (2)).

Fuses two map scopes in the same state connected through an intermediate
transient access node, when the consumer reads exactly the element the
producer wrote at the matching iteration point (symbolic set check on
memlets: "the data consumed is a subset of the data produced").  Chains of
element-wise operations collapse into single scopes — the paper's main
source of CPU/GPU speedups over per-statement frameworks.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ...ir.data import Scalar
from ...ir.memlet import Memlet
from ...ir.nodes import AccessNode, MapEntry, MapExit, Tasklet
from ...symbolic import Range, Symbol
from ..base import Transformation

__all__ = ["GreedySubgraphFusion"]


def _param_match(first: MapEntry, second: MapEntry) -> Optional[Dict[str, str]]:
    """Map second's parameters onto first's when the iteration spaces are
    equal (identically ordered or permuted)."""
    r1, r2 = first.map.range, second.map.range
    if r1.ndim != r2.ndim:
        return None
    # identity order first
    if all(d1 == d2 for d1, d2 in zip(r1.dims, r2.dims)):
        return dict(zip(second.map.params, first.map.params))
    # greedy permutation matching
    available = list(range(r1.ndim))
    mapping: Dict[str, str] = {}
    for j, dim2 in enumerate(r2.dims):
        found = None
        for i in available:
            if r1.dims[i] == dim2:
                found = i
                break
        if found is None:
            return None
        available.remove(found)
        mapping[second.map.params[j]] = first.map.params[found]
    return mapping


def _rename_subset(subset: Range, mapping: Dict[str, str]) -> Range:
    env = {old: Symbol(new, nonnegative=False) for old, new in mapping.items()}
    return subset.subs(env)


def _rename_code(code: str, mapping: Dict[str, str]) -> str:
    for old, new in mapping.items():
        if old != new:
            code = re.sub(rf"\b{re.escape(old)}\b", new, code)
    return code


class GreedySubgraphFusion(Transformation):
    """Fuse producer/consumer maps sharing their iteration space."""

    @classmethod
    def matches(cls, sdfg, **options):
        for state in sdfg.states():
            scope = state.scope_dict()
            for node in state.data_nodes():
                desc = sdfg.arrays.get(node.data)
                if desc is None or not desc.transient or isinstance(desc, Scalar):
                    continue
                if scope.get(node) is not None:
                    continue
                producers = [e for e in state.in_edges(node)
                             if isinstance(e.src, MapExit)]
                consumers = [e for e in state.out_edges(node)
                             if isinstance(e.dst, MapEntry)]
                if len(producers) != 1 or not consumers:
                    continue
                exit1 = producers[0].src
                entry1 = exit1.entry_node
                for consumer_edge in consumers:
                    entry2 = consumer_edge.dst
                    if entry2 is entry1:
                        continue
                    match = cls._check(sdfg, state, node, entry1, exit1,
                                       entry2, scope)
                    if match is not None:
                        yield match
                        break  # re-match after application

    @classmethod
    def _check(cls, sdfg, state, t_node, entry1, exit1, entry2, scope):
        mapping = _param_match(entry1, entry2)
        if mapping is None:
            return None
        exit2 = entry2.exit_node
        t_name = t_node.data

        # fusing must not create a cycle: no other input of scope 2 may be
        # reachable from scope 1 (directly or through other computations)
        downstream = state.descendants(exit1)
        for edge in state.in_edges(entry2):
            if not isinstance(edge.src, AccessNode):
                return None
            if edge.src.data != t_name and edge.src in downstream:
                return None

        # producer inner writes of T, keyed by (renamed) subset
        produced: Dict[str, Tuple] = {}
        for edge in state.in_edges(exit1):
            if edge.memlet.is_empty() or edge.memlet.data != t_name:
                continue
            if edge.memlet.wcr is not None or edge.memlet.dynamic:
                return None
            if not isinstance(edge.src, Tasklet):
                return None
            produced[str(edge.memlet.subset)] = (edge.src, edge.src_conn,
                                                 edge.memlet)

        if not produced:
            return None

        # consumer inner reads of T must each match a produced point
        wires = []
        for edge in state.out_edges(entry2):
            if edge.memlet.is_empty() or edge.memlet.data != t_name:
                continue
            if edge.memlet.dynamic:
                return None
            renamed = _rename_subset(edge.memlet.subset, mapping)
            key = str(renamed)
            if key not in produced:
                return None  # reads an element another iteration produced
            wires.append((edge, produced[key]))
        if not wires:
            return None

        # all scope-2 body nodes must be tasklets or scalar transients
        body2 = [n for n, s in scope.items() if s is entry2]
        for node in body2:
            if isinstance(node, (Tasklet, MapExit)):
                continue
            if isinstance(node, AccessNode):
                desc = sdfg.arrays.get(node.data)
                if desc is not None and desc.transient:
                    continue
            return None
        return (state, t_node, entry1, exit1, entry2, exit2, mapping, wires)

    @classmethod
    def apply_match(cls, sdfg, match, **options) -> None:
        state, t_node, entry1, exit1, entry2, exit2, mapping, wires = match
        t_name = t_node.data

        # move scope-2 body nodes into scope 1 by rewiring boundaries
        scope = state.scope_dict()
        body2 = [n for n, s in scope.items() if s is entry2 and n is not exit2]

        # rename map parameters in scope-2 memlets and tasklet code
        for node in body2:
            if isinstance(node, Tasklet):
                node.code = _rename_code(node.code, mapping)
            for edge in state.out_edges(node):
                if not edge.memlet.is_empty():
                    new_memlet = edge.memlet.clone()
                    new_memlet.subset = _rename_subset(edge.memlet.subset, mapping)
                    state.add_edge(edge.src, edge.src_conn, edge.dst,
                                   edge.dst_conn, new_memlet)
                    state.remove_edge(edge)

        # (1) T reads -> direct wires from producer tasklets through scalar
        # transients
        for consumer_edge, (ptask, pconn, pmemlet) in wires:
            elem = sdfg.temp_data_name("__fused")
            sdfg.add_scalar(elem, sdfg.arrays[t_name].dtype, transient=True)
            elem_node = state.add_access(elem)
            state.add_edge(ptask, pconn, elem_node, None,
                           Memlet(elem, Range.from_string("0")))
            state.add_edge(elem_node, None, consumer_edge.dst,
                           consumer_edge.dst_conn,
                           Memlet(elem, Range.from_string("0")))
            state.remove_edge(consumer_edge)

        # (2) other inputs of entry2: route through entry1
        for edge in state.in_edges(entry2):
            if edge.src.data == t_name if isinstance(edge.src, AccessNode) else False:
                state.remove_edge(edge)
                continue
            conn_base = edge.dst_conn[3:] if edge.dst_conn else None
            if conn_base is None:
                # an ordering edge (StateFusion's WAW/WAR on a container
                # scope 2 writes): the fused scope must still wait for its
                # source, which _check proved is not downstream of scope 1
                if not state.edges_between(edge.src, entry1):
                    state.add_nedge(edge.src, entry1, Memlet.empty())
                state.remove_edge(edge)
                continue
            in_conn = f"IN_{conn_base}"
            out_conn = f"OUT_{conn_base}"
            if in_conn not in entry1.in_connectors:
                entry1.add_in_connector(in_conn)
                entry1.add_out_connector(out_conn)
                state.add_edge(edge.src, edge.src_conn, entry1, in_conn,
                               edge.memlet)
            # inner consumers of this connector
            for inner in state.out_edges(entry2):
                if inner.src_conn == out_conn:
                    new_memlet = inner.memlet.clone()
                    if not new_memlet.is_empty():
                        new_memlet.subset = _rename_subset(new_memlet.subset,
                                                           mapping)
                    state.add_edge(entry1, out_conn, inner.dst, inner.dst_conn,
                                   new_memlet)
                    state.remove_edge(inner)
            state.remove_edge(edge)
        # no-input consumers (constant maps): keep body roots attached
        for inner in state.out_edges(entry2):
            if inner.src_conn is None:
                state.add_nedge(entry1, inner.dst, Memlet.empty())
                state.remove_edge(inner)

        # (3) outputs of exit2: route through exit1 (connector named after
        # the container to avoid collisions with renamed transients)
        for edge in state.in_edges(exit2):
            conn_base = edge.memlet.data if not edge.memlet.is_empty() \
                else (edge.dst_conn[3:] if edge.dst_conn else None)
            if conn_base is None:
                state.add_nedge(edge.src, exit1, Memlet.empty())
                state.remove_edge(edge)
                continue
            in_conn = f"IN_{conn_base}"
            out_conn = f"OUT_{conn_base}"
            new_memlet = edge.memlet.clone()
            if not new_memlet.is_empty():
                new_memlet.subset = _rename_subset(new_memlet.subset, mapping)
            if in_conn not in exit1.in_connectors:
                exit1.add_in_connector(in_conn)
                exit1.add_out_connector(out_conn)
                for drain in state.out_edges(exit2):
                    if not drain.memlet.is_empty() \
                            and drain.memlet.data == edge.memlet.data:
                        state.add_edge(exit1, out_conn, drain.dst,
                                       drain.dst_conn, drain.memlet)
            state.add_edge(edge.src, edge.src_conn, exit1, in_conn, new_memlet)
            state.remove_edge(edge)

        # ... and whatever had to wait for scope 2 (a later writer of a
        # container it reads) now waits for the fused scope
        for edge in state.out_edges(exit2):
            if edge.memlet.is_empty() \
                    and not state.edges_between(exit1, edge.dst):
                state.add_nedge(exit1, edge.dst, Memlet.empty())

        state.remove_node(entry2)
        state.remove_node(exit2)

        # (4) the intermediate transient: if nothing else reads it, drop the
        # producer's write as well
        if state.out_degree(t_node) == 0:
            still_needed = False
            for st in sdfg.states():
                for n in st.data_nodes():
                    if n.data == t_name and (st is not state or n is not t_node):
                        still_needed = True
            if not still_needed:
                # remove exit1's connector edges for T
                for edge in list(state.in_edges(exit1)):
                    if edge.memlet.data == t_name:
                        state.remove_edge(edge)
                for edge in list(state.out_edges(exit1)):
                    if edge.memlet.data == t_name:
                        state.remove_edge(edge)
                used_in = {e.dst_conn for e in state.in_edges(exit1)}
                used_out = {e.src_conn for e in state.out_edges(exit1)}
                exit1.in_connectors &= used_in
                exit1.out_connectors &= used_out
                if t_node in state and state.in_degree(t_node) == 0 \
                        and state.out_degree(t_node) == 0:
                    state.remove_node(t_node)
                from .redundant_copy import _delete_if_unused

                _delete_if_unused(sdfg, t_name)