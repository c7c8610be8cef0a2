"""Redundant copy removal (§2.4).

The -O0 frontend materializes every slice read and subset store through a
transient copy.  After state fusion these copies sit in the same state as
their consumers/producers and can be eliminated by *composing subsets*:

* :class:`RedundantReadCopy`: ``X --copy--> T`` where transient ``T`` is only
  read afterwards; every edge referencing ``T`` is rewritten to reference
  ``X`` through the composed subset and readers are rewired to the ``X``
  access node (view semantics, "native to the SDFG" per the paper).
* :class:`RedundantWriteCopy`: a computation writes transient ``T`` in full
  and ``T --copy--> Y[S]`` is its only use; the computation writes ``Y``
  directly through the composed subset.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...ir.data import Scalar, Stream
from ...ir.memlet import Memlet
from ...ir.nodes import AccessNode
from ...symbolic import Integer, Range, definitely_eq
from ..base import Transformation

__all__ = ["RedundantReadCopy", "RedundantWriteCopy", "compose_through_copy"]


def compose_through_copy(copy_subset: Range, inner_subset: Range) -> Optional[Range]:
    """Compose a ``T``-relative subset through the copy ``X[copy_subset] -> T``.

    ``T``'s dimensions correspond to the non-degenerate dimensions of
    ``copy_subset`` when ranks differ (integer-indexed dims were squeezed),
    or one-to-one when ranks match.  Returns None when undecidable.
    """
    if copy_subset.ndim == inner_subset.ndim:
        nondegenerate = [True] * copy_subset.ndim
    else:
        nondegenerate = [definitely_eq(b, e) is not True
                         for b, e, _ in copy_subset.dims]
        if sum(nondegenerate) != inner_subset.ndim:
            return None
    dims = []
    squeeze = []
    inner_iter = iter(inner_subset.dims)
    for axis, ((begin, _end, step), keep) in enumerate(
            zip(copy_subset.dims, nondegenerate)):
        if not keep:
            dims.append((begin, begin, Integer(1)))
            squeeze.append(axis)
            continue
        ib, ie, istep = next(inner_iter)
        dims.append((begin + ib * step, begin + ie * step, istep * step))
    return Range(dims), tuple(squeeze)


def _write_nodes(sdfg, name: str) -> List[Tuple]:
    """(state, access node) pairs where *name* is written."""
    out = []
    for st in sdfg.states():
        for node in st.data_nodes():
            if node.data == name and st.in_degree(node) > 0:
                out.append((st, node))
    return out


def _accessed_outside(sdfg, name: str, state) -> bool:
    for st in sdfg.states():
        if st is state:
            continue
        for node in st.data_nodes():
            if node.data == name:
                return True
    return False


def _delete_if_unused(sdfg, name: str) -> None:
    if not any(n.data == name for st in sdfg.states() for n in st.data_nodes()):
        if name in sdfg.arrays and sdfg.arrays[name].transient:
            del sdfg.arrays[name]


def _readers_precede_writers(state, t_nodes) -> bool:
    """StateFusion makes later writers of ``X`` wait for the copy ``X -> T``
    (empty ``T -> writer`` edges).  Reading ``X`` in place of ``T`` is only
    sound when every reader of ``T`` already runs before each such writer;
    any other reader needs the old contents, so the copy has to stay."""
    out_edges = [e for t in t_nodes for e in state.out_edges(t)]
    readers = [e.dst for e in out_edges if not e.memlet.is_empty()]
    return all(e.dst in state.descendants(reader) for reader in readers
               for e in out_edges if e.memlet.is_empty())


class RedundantReadCopy(Transformation):
    """Eliminate ``X -> T`` copies whose transient target is only read."""

    @classmethod
    def matches(cls, sdfg, **options):
        for state in sdfg.states():
            for edge in state.edges():
                if not (isinstance(edge.src, AccessNode)
                        and isinstance(edge.dst, AccessNode)):
                    continue
                memlet = edge.memlet
                if memlet.is_empty() or memlet.wcr:
                    continue
                src_name, dst_name = edge.src.data, edge.dst.data
                if memlet.data != src_name or src_name == dst_name:
                    continue
                dst_desc = sdfg.arrays.get(dst_name)
                src_desc = sdfg.arrays.get(src_name)
                if dst_desc is None or not dst_desc.transient:
                    continue
                if dst_name.startswith("__return"):
                    continue  # return containers are observed by the caller
                if isinstance(dst_desc, Stream) or isinstance(src_desc, Stream):
                    continue
                # the copy must cover the whole destination
                if not isinstance(dst_desc, Scalar) and memlet.other_subset is not None:
                    if memlet.other_subset != Range.from_shape(dst_desc.shape):
                        continue
                writers = _write_nodes(sdfg, dst_name)
                if len(writers) != 1 or writers[0][1] is not edge.dst:
                    continue
                if _accessed_outside(sdfg, dst_name, state):
                    continue
                if not _readers_precede_writers(
                        state, [n for n in state.data_nodes()
                                if n.data == dst_name]):
                    continue
                yield (state, edge)

    @classmethod
    def apply_match(cls, sdfg, match, **options) -> None:
        state, copy_edge = match
        src_node = copy_edge.src
        src_name, dst_name = src_node.data, copy_edge.dst.data
        copy_subset = copy_edge.memlet.subset
        dst_desc = sdfg.arrays[dst_name]
        src_desc = sdfg.arrays[src_name]
        scalar_target = isinstance(dst_desc, Scalar)

        # plan: rewrite every edge whose memlet references T
        plan = []
        for edge in state.edges():
            if edge == copy_edge or edge.memlet.data != dst_name:
                continue
            if edge.memlet.squeeze:
                return  # already composed through a squeezing copy
            if scalar_target:
                composed, squeeze = copy_subset, ()
            else:
                result = compose_through_copy(copy_subset, edge.memlet.subset)
                if result is None:
                    return  # cannot rewrite; leave the copy in place
                composed, squeeze = result
            new_memlet = Memlet(src_name, composed, wcr=edge.memlet.wcr,
                                other_subset=edge.memlet.other_subset,
                                dynamic=edge.memlet.dynamic,
                                squeeze=squeeze or None)
            plan.append((edge, new_memlet))

        t_nodes = [n for n in state.data_nodes() if n.data == dst_name]
        for edge, new_memlet in plan:
            src = src_node if edge.src in t_nodes else edge.src
            dst = edge.dst
            state.add_edge(src, edge.src_conn, dst, edge.dst_conn, new_memlet)
            state.remove_edge(edge)
        state.remove_edge(copy_edge)
        for t_node in t_nodes:
            if t_node in state and state.in_degree(t_node) == 0 \
                    and state.out_degree(t_node) == 0:
                state.remove_node(t_node)
        _delete_if_unused(sdfg, dst_name)


class RedundantWriteCopy(Transformation):
    """Fold ``T --copy--> Y[S]`` into the computation producing transient T."""

    @classmethod
    def matches(cls, sdfg, **options):
        for state in sdfg.states():
            for edge in state.edges():
                if not (isinstance(edge.src, AccessNode)
                        and isinstance(edge.dst, AccessNode)):
                    continue
                memlet = edge.memlet
                if memlet.is_empty() or memlet.wcr:
                    continue
                src_name, dst_name = edge.src.data, edge.dst.data
                if src_name == dst_name:
                    continue
                src_desc = sdfg.arrays.get(src_name)
                dst_desc = sdfg.arrays.get(dst_name)
                if src_desc is None or not src_desc.transient:
                    continue
                if isinstance(src_desc, (Stream, Scalar)) \
                        or isinstance(dst_desc, Stream):
                    continue
                # source subset of the copy must cover all of T
                src_subset = (memlet.subset if memlet.data == src_name
                              else memlet.other_subset)
                dst_subset = (memlet.other_subset if memlet.data == src_name
                              else memlet.subset)
                if src_subset is not None \
                        and src_subset != Range.from_shape(src_desc.shape):
                    continue
                if dst_subset is None:
                    continue
                # T is written exactly once (in this state) and read only by
                # this copy
                writers = _write_nodes(sdfg, src_name)
                if len(writers) != 1 or writers[0][0] is not state \
                        or writers[0][1] is not edge.src:
                    continue
                if _accessed_outside(sdfg, src_name, state):
                    continue
                reads = [e for st in sdfg.states() for n in st.data_nodes()
                         if n.data == src_name for e in st.out_edges(n)]
                if len(reads) != 1:
                    continue
                yield (state, edge, dst_subset)

    @classmethod
    def apply_match(cls, sdfg, match, **options) -> None:
        state, copy_edge, dst_subset = match
        t_node = copy_edge.src
        y_node = copy_edge.dst
        t_name, y_name = t_node.data, y_node.data
        y_desc = sdfg.arrays[y_name]

        # rewrite every edge that references T to write Y through dst_subset
        plan = []
        for edge in state.edges():
            if edge == copy_edge or edge.memlet.data != t_name:
                continue
            if edge.memlet.wcr is not None:
                # WCR accumulates into the (zero-initialized) transient;
                # folding into Y would accumulate into stale data
                return
            if edge.memlet.squeeze:
                return
            if isinstance(y_desc, Scalar):
                composed: Optional[Range] = dst_subset
            else:
                result = compose_through_copy(dst_subset, edge.memlet.subset)
                if result is None:
                    return
                composed = result[0]
            plan.append((edge, Memlet(y_name, composed, wcr=edge.memlet.wcr,
                                      dynamic=edge.memlet.dynamic)))

        for edge, new_memlet in plan:
            dst = y_node if edge.dst is t_node else edge.dst
            src = y_node if edge.src is t_node else edge.src
            state.add_edge(src, edge.src_conn, dst, edge.dst_conn, new_memlet)
            state.remove_edge(edge)
        state.remove_edge(copy_edge)
        if t_node in state and state.in_degree(t_node) == 0 \
                and state.out_degree(t_node) == 0:
            state.remove_node(t_node)
        _delete_if_unused(sdfg, t_name)
