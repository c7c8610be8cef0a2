"""SDFG JSON deserialization (serialization lives on the IR classes)."""

from __future__ import annotations

import json
from typing import Dict

from .data import Data
from .interstate import InterstateEdge
from .memlet import Memlet
from .nodes import (
    AccessNode,
    LibraryNode,
    NestedSDFG,
    Node,
    ScheduleType,
    Tasklet,
    make_map_scope,
)
from .sdfg import SDFG
from .state import SDFGState
from ..symbolic import Range

__all__ = ["canonical_json", "sdfg_from_json", "state_from_json"]


def canonical_json(sdfg: SDFG) -> str:
    """The one SDFG → text function (``to_json``, sorted keys, no
    whitespace): structurally identical graphs give identical text whatever
    order their containers were added in.  The content hash and the rollback
    snapshot both use it; ``sdfg_from_json(json.loads(text))`` inverts it."""
    return json.dumps(sdfg.to_json(), sort_keys=True, separators=(",", ":"))


def _parse_symbol_mapping(obj: Dict[str, str]) -> Dict[str, object]:
    """Parse serialized nested-SDFG symbol bindings back to expressions.

    Values were stringified on serialization; anything the expression parser
    cannot digest stays a string (the executor resolves bare names in the
    outer environment at call time).
    """
    mapping: Dict[str, object] = {}
    for name, text in obj.items():
        try:
            mapping[name] = Range.from_string(str(text)).dims[0][0]
        except Exception:
            mapping[name] = text
    return mapping


def _library_node_from_json(kind: str, node_obj: dict):
    """Reconstruct an unexpanded library node (MatMul/Outer/Reduce/...).

    The concrete classes live in :mod:`repro.library`, which imports this
    package — resolve them lazily to avoid a circular import.
    """
    import repro.library  # noqa: F401  (registers the node classes)

    cls = LibraryNode.concrete_subclasses().get(kind)
    if cls is None:
        return None
    return cls.from_json(node_obj)


def sdfg_from_json(obj: dict) -> SDFG:
    sdfg = SDFG(obj["name"])
    for name, desc_obj in obj["arrays"].items():
        sdfg.add_datadesc(name, Data.from_json(desc_obj))
    for sym in obj.get("symbols", []):
        sdfg.add_symbol(sym)
    sdfg.arg_names = list(obj.get("arg_names", []))
    states = []
    for state_obj in obj["states"]:
        state = sdfg.add_state(state_obj["label"])
        state_from_json(state, state_obj)
        states.append(state)
    start = obj.get("start_state")
    if start is not None:
        sdfg.start_state = states[start]
    for edge_obj in obj.get("edges", []):
        sdfg.add_edge(states[edge_obj["src"]], states[edge_obj["dst"]],
                      InterstateEdge.from_json(edge_obj["data"]))
    return sdfg


def state_from_json(state: SDFGState, obj: dict) -> SDFGState:
    nodes: Dict[int, Node] = {}
    pending_exits = {}
    for i, node_obj in enumerate(obj["nodes"]):
        kind = node_obj["kind"]
        if kind == "AccessNode":
            node = AccessNode(node_obj["data"])
        elif kind == "Tasklet":
            node = Tasklet(node_obj["label"], node_obj["inputs"],
                           node_obj["outputs"], node_obj["code"])
        elif kind == "MapEntry":
            entry, exit_ = make_map_scope(
                node_obj["label"], node_obj["params"],
                Range.from_string(node_obj["range"]),
                ScheduleType(node_obj.get("schedule", "Default")))
            entry.map.collapse = node_obj.get("collapse", 1)
            tile_sizes = node_obj.get("tile_sizes")
            entry.map.tile_sizes = tuple(tile_sizes) if tile_sizes else None
            pending_exits[node_obj["label"]] = (entry, exit_)
            node = entry
        elif kind == "MapExit":
            entry, exit_ = pending_exits[node_obj["label"]]
            node = exit_
        elif kind == "NestedSDFG":
            node = NestedSDFG(node_obj["label"],
                              sdfg_from_json(node_obj["sdfg"]),
                              node_obj["inputs"], node_obj["outputs"],
                              symbol_mapping=_parse_symbol_mapping(
                                  node_obj.get("symbol_mapping", {})))
        else:
            node = _library_node_from_json(kind, node_obj)
            if node is None:
                raise ValueError(
                    f"cannot deserialize node kind {kind!r} (not a known "
                    f"library node class)")
        nodes[i] = node
        state.add_node(node)
    for edge_obj in obj["edges"]:
        src = nodes[edge_obj["src"]]
        dst = nodes[edge_obj["dst"]]
        if edge_obj["src_conn"]:
            src.add_out_connector(edge_obj["src_conn"])
        if edge_obj["dst_conn"]:
            dst.add_in_connector(edge_obj["dst_conn"])
        state.add_edge(src, edge_obj["src_conn"], dst, edge_obj["dst_conn"],
                       Memlet.from_json(edge_obj["memlet"]))
    return state
