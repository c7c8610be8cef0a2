"""The Stateful Dataflow multiGraph (SDFG).

An SDFG is a state machine whose states are dataflow multigraphs.  It owns
the data-descriptor dictionary, the free symbols, and the interstate control
flow, and is the unit of validation, transformation, compilation, and
execution.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from ..dtypes import typeclass
from ..symbolic import Expr, Symbol, sympify
from .data import Array, Data, Scalar, Stream, StorageType
from .interstate import InterstateEdge
from .nodes import AccessNode, LibraryNode, MapEntry, NestedSDFG
from .state import SDFGState

__all__ = ["SDFG", "InterstateEdgeView"]


class InterstateEdgeView:
    """A (src_state, edge, dst_state) triple."""

    __slots__ = ("src", "dst", "data", "key")

    def __init__(self, src: SDFGState, dst: SDFGState, data: InterstateEdge, key: int):
        self.src = src
        self.dst = dst
        self.data = data
        self.key = key

    def __repr__(self) -> str:
        return f"{self.src.label} -> {self.dst.label} [{self.data!r}]"


class SDFG:
    """A named stateful dataflow multigraph."""

    def __init__(self, name: str):
        self.name = name
        self.arrays: Dict[str, Data] = {}
        self.symbols: Dict[str, Symbol] = {}
        #: constants available to tasklets (e.g. numpy module functions)
        self.constants: Dict[str, object] = {}
        self._graph = nx.MultiDiGraph()
        self.start_state: Optional[SDFGState] = None
        #: ordered argument names for calling convention (non-transients + symbols)
        self.arg_names: List[str] = []
        self.parent: Optional[SDFGState] = None  # state containing us, if nested
        self._state_counter = 0

    # -- data descriptors ----------------------------------------------------
    def _check_name(self, name: str) -> None:
        if name in self.arrays:
            raise NameError(f"container {name!r} already exists in SDFG {self.name!r}")
        if not name.isidentifier():
            raise NameError(f"container name {name!r} is not a valid identifier")

    def add_array(self, name: str, shape: Sequence, dtype: typeclass,
                  transient: bool = False,
                  storage: StorageType = StorageType.Default) -> Array:
        self._check_name(name)
        desc = Array(dtype, shape, transient=transient, storage=storage)
        self.arrays[name] = desc
        self._register_shape_symbols(desc)
        return desc

    def add_transient(self, name: str, shape: Sequence, dtype: typeclass,
                      storage: StorageType = StorageType.Default) -> Array:
        return self.add_array(name, shape, dtype, transient=True, storage=storage)

    def add_scalar(self, name: str, dtype: typeclass, transient: bool = False) -> Scalar:
        self._check_name(name)
        desc = Scalar(dtype, transient=transient)
        self.arrays[name] = desc
        return desc

    def add_stream(self, name: str, dtype: typeclass, buffer_size: int = 0,
                   shape: Sequence = (1,)) -> Stream:
        self._check_name(name)
        desc = Stream(dtype, shape=shape, buffer_size=buffer_size, transient=True)
        self.arrays[name] = desc
        return desc

    def add_datadesc(self, name: str, desc: Data) -> Data:
        self._check_name(name)
        self.arrays[name] = desc
        self._register_shape_symbols(desc)
        return desc

    def _register_shape_symbols(self, desc: Data) -> None:
        for sym in desc.free_symbols:
            self.symbols.setdefault(sym.name, sym)

    def add_symbol(self, name: str, positive: bool = True) -> Symbol:
        sym = self.symbols.get(name)
        if sym is None:
            sym = Symbol(name, nonnegative=True, positive=positive)
            self.symbols[name] = sym
        return sym

    def temp_data_name(self, prefix: str = "__tmp") -> str:
        i = 0
        while f"{prefix}{i}" in self.arrays:
            i += 1
        return f"{prefix}{i}"

    # -- states ----------------------------------------------------------------
    def add_state(self, label: Optional[str] = None, is_start_state: bool = False) -> SDFGState:
        if label is None:
            label = f"state_{self._state_counter}"
        self._state_counter += 1
        base = label
        existing = {s.label for s in self.states()}
        i = 0
        while label in existing:
            i += 1
            label = f"{base}_{i}"
        state = SDFGState(label, sdfg=self)
        self._graph.add_node(state)
        if is_start_state or self.start_state is None:
            self.start_state = state
        return state

    def add_state_after(self, state: SDFGState, label: Optional[str] = None) -> SDFGState:
        """Insert a new state after *state*, rerouting its out-edges."""
        new_state = self.add_state(label)
        for edge in self.out_edges(state):
            self.add_edge(new_state, edge.dst, edge.data.clone())
            self.remove_edge(edge)
        self.add_edge(state, new_state, InterstateEdge())
        return new_state

    def add_state_before(self, state: SDFGState, label: Optional[str] = None) -> SDFGState:
        new_state = self.add_state(label)
        for edge in self.in_edges(state):
            self.add_edge(edge.src, new_state, edge.data.clone())
            self.remove_edge(edge)
        self.add_edge(new_state, state, InterstateEdge())
        if self.start_state is state:
            self.start_state = new_state
        return new_state

    def remove_state(self, state: SDFGState) -> None:
        self._graph.remove_node(state)
        if self.start_state is state:
            remaining = self.states()
            self.start_state = remaining[0] if remaining else None

    def states(self) -> List[SDFGState]:
        return list(self._graph.nodes)

    def number_of_states(self) -> int:
        return self._graph.number_of_nodes()

    # -- interstate edges --------------------------------------------------------
    def add_edge(self, src: SDFGState, dst: SDFGState,
                 edge: Optional[InterstateEdge] = None) -> InterstateEdgeView:
        edge = edge or InterstateEdge()
        key = self._graph.add_edge(src, dst, data=edge)
        return InterstateEdgeView(src, dst, edge, key)

    def remove_edge(self, edge: InterstateEdgeView) -> None:
        self._graph.remove_edge(edge.src, edge.dst, key=edge.key)

    def edges(self) -> List[InterstateEdgeView]:
        return [InterstateEdgeView(u, v, d["data"], k)
                for u, v, k, d in self._graph.edges(keys=True, data=True)]

    def in_edges(self, state: SDFGState) -> List[InterstateEdgeView]:
        return [InterstateEdgeView(u, v, d["data"], k)
                for u, v, k, d in self._graph.in_edges(state, keys=True, data=True)]

    def out_edges(self, state: SDFGState) -> List[InterstateEdgeView]:
        return [InterstateEdgeView(u, v, d["data"], k)
                for u, v, k, d in self._graph.out_edges(state, keys=True, data=True)]

    def predecessors(self, state: SDFGState) -> List[SDFGState]:
        return list(self._graph.predecessors(state))

    def successors(self, state: SDFGState) -> List[SDFGState]:
        return list(self._graph.successors(state))

    def topological_states(self) -> List[SDFGState]:
        if nx.is_directed_acyclic_graph(self._graph):
            return list(nx.topological_sort(self._graph))
        # Control-flow graphs with loops: BFS order from the start state.
        order: List[SDFGState] = []
        seen: Set[SDFGState] = set()
        queue = [self.start_state] if self.start_state else []
        while queue:
            state = queue.pop(0)
            if state in seen or state is None:
                continue
            seen.add(state)
            order.append(state)
            queue.extend(self.successors(state))
        order.extend(s for s in self.states() if s not in seen)
        return order

    # -- arguments ---------------------------------------------------------------
    def arglist(self) -> Dict[str, Data]:
        """Non-transient containers, in calling-convention order."""
        if self.arg_names:
            return {name: self.arrays[name] for name in self.arg_names
                    if name in self.arrays and not self.arrays[name].transient}
        return {name: desc for name, desc in sorted(self.arrays.items())
                if not desc.transient}

    @property
    def free_symbols(self) -> Set[str]:
        """Symbols that must be provided externally (not defined by shapes of
        arguments or interstate assignments)."""
        used: Set[str] = set()
        defined = set(self.arrays)
        for desc in self.arrays.values():
            used |= {s.name for s in desc.free_symbols}
        for state in self.states():
            for edge in state.edges():
                used |= {s.name for s in edge.memlet.free_symbols}
            for node in state.nodes():
                if isinstance(node, MapEntry):
                    used |= {s.name for s in node.map.range.free_symbols}
                    # map parameters are bound inside scopes
                    defined |= set(node.map.params)
        for isedge in self.edges():
            used |= isedge.data.free_symbols
            defined |= set(isedge.data.assignments)
        return used - defined

    # -- traversal helpers ----------------------------------------------------
    def all_nodes_recursive(self):
        """Yield (node, state) pairs, descending into nested SDFGs."""
        for state in self.states():
            for node in state.nodes():
                yield node, state
                if isinstance(node, NestedSDFG):
                    yield from node.sdfg.all_nodes_recursive()

    def library_nodes(self) -> List[Tuple[LibraryNode, SDFGState]]:
        return [(n, s) for n, s in self.all_nodes_recursive()
                if isinstance(n, LibraryNode)]

    def expand_library_nodes(self, implementation: Optional[str] = None,
                             device: str = "CPU") -> int:
        """Expand all library nodes using *implementation* or the per-device
        priority list (§3.2).  Returns the number of expanded nodes."""
        count = 0
        while True:
            nodes = [(n, s) for n, s in self.library_nodes()
                     if s.scope_dict().get(n) is None]
            if not nodes:
                break
            for node, state in nodes:
                impl = implementation
                if impl is None:
                    priorities = type(node).default_priority.get(
                        device, list(type(node).implementations))
                    impl = next(
                        (p for p in priorities if p in type(node).implementations),
                        None)
                owner = state.sdfg if state.sdfg is not None else self
                node.expand(owner, state, impl)
                count += 1
        return count

    # -- transformation / optimization entry points --------------------------
    def apply(self, transformation, **options) -> int:
        """Apply a transformation class or instance everywhere it matches.
        Returns the number of applications."""
        from ..transformations.base import apply_transformation

        return apply_transformation(self, transformation, **options)

    def simplify(self, report=None) -> int:
        """Run the dataflow-coarsening pass (§2.4, the -O1 analogue)."""
        from ..transformations.pipeline import simplify_pass

        return simplify_pass(self, report=report)

    def auto_optimize(self, device: str = "CPU", report=None) -> "SDFG":
        from ..autoopt import auto_optimize

        return auto_optimize(self, device=device, report=report)

    def validate(self) -> None:
        from .validation import validate_sdfg

        validate_sdfg(self)

    # -- compilation / execution ------------------------------------------------
    def compile(self, device: str = "CPU"):
        from ..codegen import compile_sdfg

        return compile_sdfg(self, device=device)

    def __call__(self, *args, **kwargs):
        """Execute through the reference interpreter (convenience)."""
        from ..runtime.executor import run_sdfg

        return run_sdfg(self, *args, **kwargs)

    def clone(self) -> "SDFG":
        return copy.deepcopy(self)

    # -- io ------------------------------------------------------------------
    def to_json(self) -> dict:
        states = self.states()
        index = {s: i for i, s in enumerate(states)}
        return {
            "name": self.name,
            "arrays": {name: desc.to_json() for name, desc in self.arrays.items()},
            "symbols": sorted(self.symbols),
            "arg_names": list(self.arg_names),
            "states": [s.to_json() for s in states],
            "start_state": index[self.start_state] if self.start_state else None,
            "edges": [
                {"src": index[e.src], "dst": index[e.dst], "data": e.data.to_json()}
                for e in self.edges()
            ],
        }

    def save(self, path: str) -> None:
        import json

        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    def __repr__(self) -> str:
        return (f"SDFG({self.name!r}, {self.number_of_states()} states, "
                f"{len(self.arrays)} containers)")
