"""State fusion (§2.4): merge consecutive states when no data race results.

The transformation matches two states connected by a single unconditional,
assignment-free edge where the predecessor has one successor and the
successor one predecessor.  Access nodes pointing to the same memory are
fused; otherwise ordering (dependency) edges are inserted, so
read-after-write and write-after-read hazards across the old state boundary
are preserved by graph structure.
"""

from __future__ import annotations

from typing import Dict, List

from ...ir.memlet import Memlet
from ...ir.nodes import AccessNode
from ..base import Transformation

__all__ = ["StateFusion"]


class StateFusion(Transformation):
    """Fuse state B into its unique predecessor A."""

    @classmethod
    def matches(cls, sdfg, **options):
        for edge in list(sdfg.edges()):
            first, second = edge.src, edge.dst
            if first is second:
                continue
            if not edge.data.is_unconditional() or edge.data.assignments:
                continue
            if len(sdfg.out_edges(first)) != 1:
                continue
            if len(sdfg.in_edges(second)) != 1:
                continue
            yield (first, second, edge)

    @classmethod
    def apply_match(cls, sdfg, match, **options) -> None:
        first, second, edge = match

        # topologically-last access node per container in the first state
        last_access: Dict[str, AccessNode] = {}
        order = list(first.topological_nodes())
        for node in order:
            if isinstance(node, AccessNode):
                last_access[node.data] = node

        # move nodes and edges of the second state into the first
        second_nodes = second.nodes()
        second_edges = second.edges()
        for node in second_nodes:
            first.add_node(node)
        for e in second_edges:
            first.add_edge(e.src, e.src_conn, e.dst, e.dst_conn, e.memlet)

        # merge or order access nodes of shared containers
        sources_in_second = [n for n in second_nodes
                             if isinstance(n, AccessNode)
                             and second.in_degree(n) == 0]
        for node in sources_in_second:
            anchor = last_access.get(node.data)
            if anchor is None:
                continue
            if anchor is node:
                continue
            # redirect the reads of the second state to the anchor
            for e in first.out_edges(node):
                first.add_edge(anchor, e.src_conn, e.dst, e.dst_conn, e.memlet)
                first.remove_edge(e)
            first.remove_node(node)

        # write-after-read / write-after-write ordering: computations of the
        # second state that write a shared container must run after the first
        # state's accesses of it.  Dependency edges must target the *writing
        # code node's scope root* (ordering the access node alone would not
        # delay the computation that performs the write).
        from ...ir.nodes import MapEntry, MapExit

        def writer_roots(access_node):
            roots = []
            for e in first.in_edges(access_node):
                producer = e.src
                if isinstance(producer, MapExit):
                    roots.append(producer.entry_node)
                elif isinstance(producer, AccessNode):
                    # a copy runs when its destination is visited
                    roots.append(access_node)
                else:
                    roots.append(producer)
            return roots

        moved = set(second_nodes)
        for node in second_nodes:
            if not isinstance(node, AccessNode) or node not in first:
                continue
            if first.in_degree(node) == 0:
                continue
            anchor = last_access.get(node.data)
            if anchor is None or anchor is node:
                continue
            # first-state consumers of the anchor (whole scopes must finish)
            consumers = []
            for e in first.out_edges(anchor):
                if e.dst in moved:
                    continue
                consumer = e.dst
                if isinstance(consumer, MapEntry):
                    consumer = consumer.exit_node
                consumers.append(consumer)
            for root in writer_roots(node):
                if root not in moved:
                    continue  # producer already lived in the first state
                for src in consumers + [anchor]:
                    if src is root or src in moved:
                        continue
                    if first.edges_between(src, root) or (
                            root is node and node in first.descendants(src)):
                        continue  # already ordered (a copy by any path)
                    first.add_nedge(src, root, Memlet.empty())

        # rewire interstate edges
        sdfg.remove_edge(edge)
        for e in sdfg.out_edges(second):
            sdfg.add_edge(first, e.dst, e.data)
            sdfg.remove_edge(e)
        # transfer loop metadata if present
        if hasattr(second, "loop_info") and not hasattr(first, "loop_info"):
            first.loop_info = second.loop_info  # type: ignore[attr-defined]
        _update_loop_refs(sdfg, second, first)
        sdfg.remove_state(second)


def _update_loop_refs(sdfg, old_state, new_state) -> None:
    """Keep loop_info metadata valid when a state is removed/merged."""
    for state in sdfg.states():
        info = getattr(state, "loop_info", None)
        if info is None:
            continue
        if info.get("body_first") is old_state:
            info["body_first"] = new_state
        if info.get("after") is old_state:
            info["after"] = new_state
