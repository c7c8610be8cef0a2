"""SDFG states: acyclic dataflow multigraphs.

A state contains pure dataflow (third tenet: control flow lives on the
interstate edges, not here).  Nodes are access nodes, tasklets, map scopes,
library nodes and nested SDFGs; edges carry memlets between connectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import networkx as nx

from ..symbolic import Range
from .memlet import Memlet
from .nodes import (
    AccessNode,
    CodeNode,
    LibraryNode,
    Map,
    MapEntry,
    MapExit,
    NestedSDFG,
    Node,
    ScheduleType,
    Tasklet,
    make_map_scope,
)

__all__ = ["Edge", "SDFGState"]


@dataclass(frozen=True)
class Edge:
    """A dataflow edge: (src.src_conn) --memlet--> (dst.dst_conn)."""

    src: Node
    src_conn: Optional[str]
    dst: Node
    dst_conn: Optional[str]
    memlet: Memlet
    key: int

    @property
    def data(self) -> Memlet:
        return self.memlet

    def __repr__(self) -> str:
        sc = f".{self.src_conn}" if self.src_conn else ""
        dc = f".{self.dst_conn}" if self.dst_conn else ""
        return f"{self.src!r}{sc} -> {self.dst!r}{dc} [{self.memlet!r}]"


class SDFGState:
    """One state of an SDFG: a directed acyclic multigraph of dataflow."""

    def __init__(self, label: str, sdfg=None):
        self.label = label
        self.sdfg = sdfg
        self._graph = nx.MultiDiGraph()

    # -- nodes -------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        self._graph.add_node(node)
        return node

    def remove_node(self, node: Node) -> None:
        self._graph.remove_node(node)

    def nodes(self) -> List[Node]:
        return list(self._graph.nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._graph

    def number_of_nodes(self) -> int:
        return self._graph.number_of_nodes()

    def number_of_edges(self) -> int:
        return self._graph.number_of_edges()

    # -- edges -------------------------------------------------------------
    def add_edge(self, src: Node, src_conn: Optional[str], dst: Node,
                 dst_conn: Optional[str], memlet: Memlet) -> Edge:
        for node in (src, dst):
            if node not in self._graph:
                self._graph.add_node(node)
        key = self._graph.add_edge(src, dst, src_conn=src_conn, dst_conn=dst_conn,
                                   memlet=memlet)
        return Edge(src, src_conn, dst, dst_conn, memlet, key)

    def add_nedge(self, src: Node, dst: Node, memlet: Optional[Memlet] = None) -> Edge:
        """Edge without connectors (access-to-access copies, dependencies)."""
        return self.add_edge(src, None, dst, None, memlet or Memlet.empty())

    def remove_edge(self, edge: Edge) -> None:
        self._graph.remove_edge(edge.src, edge.dst, key=edge.key)

    def _wrap(self, u: Node, v: Node, key: int, attrs: dict) -> Edge:
        return Edge(u, attrs["src_conn"], v, attrs["dst_conn"], attrs["memlet"], key)

    def edges(self) -> List[Edge]:
        return [self._wrap(u, v, k, d) for u, v, k, d in self._graph.edges(keys=True, data=True)]

    def in_edges(self, node: Node) -> List[Edge]:
        return [self._wrap(u, v, k, d)
                for u, v, k, d in self._graph.in_edges(node, keys=True, data=True)]

    def out_edges(self, node: Node) -> List[Edge]:
        return [self._wrap(u, v, k, d)
                for u, v, k, d in self._graph.out_edges(node, keys=True, data=True)]

    def edges_between(self, src: Node, dst: Node) -> List[Edge]:
        if not self._graph.has_edge(src, dst):
            return []
        return [self._wrap(src, dst, k, d)
                for k, d in self._graph[src][dst].items()]

    def in_degree(self, node: Node) -> int:
        return self._graph.in_degree(node)

    def out_degree(self, node: Node) -> int:
        return self._graph.out_degree(node)

    def predecessors(self, node: Node) -> List[Node]:
        return list(self._graph.predecessors(node))

    def successors(self, node: Node) -> List[Node]:
        return list(self._graph.successors(node))

    # -- convenience constructors -------------------------------------------
    def add_access(self, data: str) -> AccessNode:
        return self.add_node(AccessNode(data))

    add_read = add_access
    add_write = add_access

    def add_tasklet(self, label: str, inputs: Iterable[str], outputs: Iterable[str],
                    code: str) -> Tasklet:
        return self.add_node(Tasklet(label, inputs, outputs, code))

    def add_map(self, label: str, params: Sequence[str], rng: Union[Range, str],
                schedule: ScheduleType = ScheduleType.Default) -> Tuple[MapEntry, MapExit]:
        if isinstance(rng, str):
            rng = Range.from_string(rng)
        entry, exit_ = make_map_scope(label, params, rng, schedule)
        self.add_node(entry)
        self.add_node(exit_)
        return entry, exit_

    def add_mapped_tasklet(
        self,
        label: str,
        map_ranges: Dict[str, Union[str, tuple]],
        inputs: Dict[str, Memlet],
        code: str,
        outputs: Dict[str, Memlet],
        input_nodes: Optional[Dict[str, AccessNode]] = None,
        output_nodes: Optional[Dict[str, AccessNode]] = None,
        schedule: ScheduleType = ScheduleType.Default,
    ) -> Tuple[Tasklet, MapEntry, MapExit]:
        """Create ``access -> map_entry -> tasklet -> map_exit -> access``
        with routed memlets — the canonical element-wise operation subgraph.
        """
        params = list(map_ranges)
        dims = []
        for param in params:
            rng = map_ranges[param]
            if isinstance(rng, str):
                dims.append(Range.from_string(rng).dims[0])
            else:
                dims.append(rng)
        entry, exit_ = self.add_map(label, params, Range(dims), schedule)
        tasklet = self.add_tasklet(label, inputs.keys(), outputs.keys(), code)

        input_nodes = dict(input_nodes or {})
        output_nodes = dict(output_nodes or {})

        if not inputs:
            self.add_nedge(entry, tasklet)
        for conn, memlet in inputs.items():
            outer = input_nodes.get(memlet.data)
            if outer is None:
                outer = self.add_access(memlet.data)
                input_nodes[memlet.data] = outer
            in_conn = f"IN_{memlet.data}"
            out_conn = f"OUT_{memlet.data}"
            if in_conn not in entry.in_connectors:
                entry.add_in_connector(in_conn)
                entry.add_out_connector(out_conn)
                # Outer memlet: hull over the map range is computed by
                # propagation; start with the full container subset.
                desc = self.sdfg.arrays[memlet.data] if self.sdfg else None
                outer_subset = Range.from_shape(desc.shape) if desc is not None else memlet.subset
                self.add_edge(outer, None, entry, in_conn,
                              Memlet(memlet.data, outer_subset))
            self.add_edge(entry, out_conn, tasklet, conn, memlet)

        if not outputs:
            self.add_nedge(tasklet, exit_)
        for conn, memlet in outputs.items():
            outer = output_nodes.get(memlet.data)
            if outer is None:
                outer = self.add_access(memlet.data)
                output_nodes[memlet.data] = outer
            in_conn = f"IN_{memlet.data}"
            out_conn = f"OUT_{memlet.data}"
            if out_conn not in exit_.out_connectors:
                exit_.add_in_connector(in_conn)
                exit_.add_out_connector(out_conn)
                desc = self.sdfg.arrays[memlet.data] if self.sdfg else None
                outer_subset = Range.from_shape(desc.shape) if desc is not None else memlet.subset
                self.add_edge(exit_, out_conn, outer, None,
                              Memlet(memlet.data, outer_subset, wcr=memlet.wcr))
            self.add_edge(tasklet, conn, exit_, in_conn, memlet)
        return tasklet, entry, exit_

    def add_nested_sdfg(self, sdfg, label: str, inputs: Iterable[str],
                        outputs: Iterable[str],
                        symbol_mapping: Optional[dict] = None) -> NestedSDFG:
        node = NestedSDFG(label, sdfg, inputs, outputs, symbol_mapping)
        sdfg.parent = self
        return self.add_node(node)

    # -- queries -------------------------------------------------------------
    def data_nodes(self) -> List[AccessNode]:
        return [n for n in self.nodes() if isinstance(n, AccessNode)]

    def topological_nodes(self) -> Iterator[Node]:
        return nx.topological_sort(self._graph)

    def descendants(self, node: Node) -> set:
        """All nodes reachable from *node* (excluding itself)."""
        return nx.descendants(self._graph, node)

    def is_acyclic(self) -> bool:
        return nx.is_directed_acyclic_graph(self._graph)

    def scope_dict(self, order: Optional[List[Node]] = None
                   ) -> Dict[Node, Optional[MapEntry]]:
        """Map each node to its innermost enclosing MapEntry (None = top).

        By convention a MapExit's scope is its own MapEntry (i.e. the exit is
        *inside* the scope), matching DaCe.  *order* is a topological order
        of the state's nodes the caller already holds.
        """
        scope: Dict[Node, Optional[MapEntry]] = {}
        for node in (self.topological_nodes() if order is None else order):
            if isinstance(node, MapExit):
                scope[node] = node.entry_node
                continue
            parents = self.predecessors(node)
            if not parents:
                scope[node] = None
                continue
            parent = parents[0]
            if isinstance(parent, MapEntry):
                scope[node] = parent
            elif isinstance(parent, MapExit):
                # node follows a closed scope: it lives where that map lives
                scope[node] = scope.get(parent.entry_node, None)
            else:
                scope[node] = scope.get(parent, None)
        return scope

    def scope_order(self) -> Dict[Optional[MapEntry], List[Node]]:
        """Each scope's direct children in one topological order, MapExits
        left out (a scope's writes happen at its producing nodes); the top
        level is keyed ``None``.  One topological sort for the whole state,
        shared by both backends."""
        topo = list(self.topological_nodes())
        scope = self.scope_dict(topo)
        order: Dict[Optional[MapEntry], List[Node]] = {}
        for node in topo:
            if not isinstance(node, MapExit):
                order.setdefault(scope[node], []).append(node)
        return order

    def scope_children(self, entry: Optional[MapEntry]) -> List[Node]:
        """All nodes whose innermost scope is *entry*."""
        sd = self.scope_dict()
        return [n for n, s in sd.items() if s is entry]

    def scope_subgraph_nodes(self, entry: MapEntry) -> List[Node]:
        """All nodes strictly inside a map scope, including nested scopes and
        the exit node, excluding the entry itself."""
        result: List[Node] = []
        stack = list(self.successors(entry))
        seen = {entry}
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            result.append(node)
            if node is entry.exit_node:
                continue
            stack.extend(self.successors(node))
        return result

    def entry_node_of(self, node: Node) -> Optional[MapEntry]:
        return self.scope_dict().get(node)

    def memlet_path(self, edge: Edge) -> List[Edge]:
        """Follow a memlet through map entry/exit connector pairs to get the
        full path from the outermost source to the innermost destination."""
        path = [edge]
        # walk backwards through matching IN_/OUT_ connectors
        current = edge
        while isinstance(current.src, (MapEntry, MapExit)) and current.src_conn \
                and current.src_conn.startswith("OUT_"):
            conn = "IN_" + current.src_conn[4:]
            upstream = [e for e in self.in_edges(current.src) if e.dst_conn == conn]
            if not upstream:
                break
            current = upstream[0]
            path.insert(0, current)
        current = edge
        while isinstance(current.dst, (MapEntry, MapExit)) and current.dst_conn \
                and current.dst_conn.startswith("IN_"):
            conn = "OUT_" + current.dst_conn[3:]
            downstream = [e for e in self.out_edges(current.dst) if e.src_conn == conn]
            if not downstream:
                break
            current = downstream[0]
            path.append(current)
        return path

    def __repr__(self) -> str:
        return (f"SDFGState({self.label!r}, {self.number_of_nodes()} nodes, "
                f"{self.number_of_edges()} edges)")

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        node_list = self.nodes()
        index = {node: i for i, node in enumerate(node_list)}
        return {
            "label": self.label,
            "nodes": [n.to_json() for n in node_list],
            "edges": [
                {
                    "src": index[e.src],
                    "src_conn": e.src_conn,
                    "dst": index[e.dst],
                    "dst_conn": e.dst_conn,
                    "memlet": e.memlet.to_json(),
                }
                for e in self.edges()
            ],
        }
