"""BLAS library nodes: MatMul (gemm/gemv/dot by rank) and Outer.

``A @ B`` in annotated Python becomes a :class:`MatMul` node (the paper's
*MatMul* library node).  Expansions: ``MKL``/``cuBLAS`` fast-library tasklets,
``native`` SDFG subgraph (map + WCR), ``FPGA_streamed`` (handled by the FPGA
model), and ``PBLAS`` (distributed; see repro.library.pblas).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..ir.memlet import Memlet
from ..ir.nodes import LibraryNode
from ..symbolic import Range
from .registry import register_expansion, set_priority

__all__ = ["MatMul", "Outer", "mkl_code"]


class MatMul(LibraryNode):
    """Matrix-matrix, matrix-vector, or vector-vector product by input rank.

    Connectors: ``_a``, ``_b`` (inputs) and ``_c`` (output).
    """

    implementations: Dict[str, object] = {}
    default_priority: Dict[str, list] = {}

    def __init__(self, label: str = "MatMul"):
        super().__init__(label, inputs=("_a", "_b"), outputs=("_c",))

    def compute(self, inputs, env):
        a = np.asarray(inputs["_a"])
        b = np.asarray(inputs["_b"])
        return {"_c": a @ b}

    def flop_count(self, env) -> int:
        # 2*M*N*K for matmul; degrade gracefully by rank
        a_shape, b_shape = env.get("_a_shape"), env.get("_b_shape")
        if not a_shape or not b_shape:
            return 0
        if len(a_shape) == 2 and len(b_shape) == 2:
            return 2 * a_shape[0] * a_shape[1] * b_shape[1]
        if len(a_shape) == 2 and len(b_shape) == 1:
            return 2 * a_shape[0] * a_shape[1]
        if len(a_shape) == 1 and len(b_shape) == 2:
            return 2 * b_shape[0] * b_shape[1]
        return 2 * a_shape[0]


class Outer(LibraryNode):
    """Outer product ``np.outer`` (used by gemver/bicg-style kernels)."""

    implementations: Dict[str, object] = {}
    default_priority: Dict[str, list] = {}

    def __init__(self, label: str = "Outer"):
        super().__init__(label, inputs=("_a", "_b"), outputs=("_c",))

    def compute(self, inputs, env):
        return {"_c": np.outer(inputs["_a"], inputs["_b"])}

    def flop_count(self, env) -> int:
        a_shape, b_shape = env.get("_a_shape"), env.get("_b_shape")
        if not a_shape or not b_shape:
            return 0
        return a_shape[0] * b_shape[0]


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

def _io_edges(state, node):
    ins = {e.dst_conn: e for e in state.in_edges(node) if e.dst_conn}
    outs = {e.src_conn: e for e in state.out_edges(node) if e.src_conn}
    return ins, outs


def _scalarize_if_point(code: str, out_edge, var: str) -> str:
    """Collapse a library tasklet's result to a scalar when the output
    memlet is a single point.

    A fast-library call can produce a size-1 *array* (e.g. a per-axis
    reduction of a keepdims result) while the write target is one element;
    NumPy refuses ``dst[i] = array([x])``, so the tasklet must hand the
    backend a scalar.
    """
    subset = out_edge.memlet.subset
    if subset is not None and subset.is_point() is True:
        code += f"\n{var} = np.asarray({var}).item()"
    return code


def mkl_code(node: LibraryNode, out_edge) -> str:
    """The tasklet code of a MatMul/Outer node's CPU (MKL) expansion, given
    its ``_c`` output edge: the code generator emits the same call for a
    node it lowers in place."""
    call = "np.outer" if isinstance(node, Outer) else "np.matmul"
    return _scalarize_if_point(f"_c = {call}(_a, _b)", out_edge, "_c")


@register_expansion(MatMul, "MKL")
def _expand_matmul_mkl(node: MatMul, sdfg, state):
    """Fast-library call: a tasklet invoking the optimized BLAS (NumPy/MKL)."""
    ins, outs = _io_edges(state, node)
    code = mkl_code(node, outs["_c"])
    tasklet = state.add_tasklet(f"{node.label}_mkl", {"_a", "_b"}, {"_c"}, code)
    state.add_edge(ins["_a"].src, ins["_a"].src_conn, tasklet, "_a", ins["_a"].memlet)
    state.add_edge(ins["_b"].src, ins["_b"].src_conn, tasklet, "_b", ins["_b"].memlet)
    state.add_edge(tasklet, "_c", outs["_c"].dst, outs["_c"].dst_conn, outs["_c"].memlet)
    state.remove_node(node)
    return tasklet


# cuBLAS behaves identically at the functional level; the GPU device model
# recognizes the implementation tag for cost accounting.
register_expansion(MatMul, "cuBLAS")(_expand_matmul_mkl.__wrapped__
                                     if hasattr(_expand_matmul_mkl, "__wrapped__")
                                     else _expand_matmul_mkl)


@register_expansion(MatMul, "native")
def _expand_matmul_native(node: MatMul, sdfg, state):
    """Native SDFG subgraph: triple map with WCR accumulation (Fig. 5)."""
    ins, outs = _io_edges(state, node)
    a_name = ins["_a"].memlet.data
    b_name = ins["_b"].memlet.data
    c_name = outs["_c"].memlet.data
    a_desc = sdfg.arrays[a_name]
    b_desc = sdfg.arrays[b_name]
    c_desc = sdfg.arrays[c_name]

    if a_desc.ndim == 2 and b_desc.ndim == 2:
        m, k = a_desc.shape
        _, n = b_desc.shape
        rng = Range([(0, m - 1, 1), (0, n - 1, 1), (0, k - 1, 1)])
        params = ("__i", "__j", "__k")
        in_memlets = {
            "__a": Memlet(a_name, Range.from_string("__i, __k")),
            "__b": Memlet(b_name, Range.from_string("__k, __j")),
        }
        out_memlet = Memlet(c_name, Range.from_string("__i, __j"), wcr="sum")
    elif a_desc.ndim == 2 and b_desc.ndim == 1:
        m, k = a_desc.shape
        rng = Range([(0, m - 1, 1), (0, k - 1, 1)])
        params = ("__i", "__k")
        in_memlets = {
            "__a": Memlet(a_name, Range.from_string("__i, __k")),
            "__b": Memlet(b_name, Range.from_string("__k")),
        }
        out_memlet = Memlet(c_name, Range.from_string("__i"), wcr="sum")
    elif a_desc.ndim == 1 and b_desc.ndim == 2:
        k, n = b_desc.shape
        rng = Range([(0, n - 1, 1), (0, k - 1, 1)])
        params = ("__j", "__k")
        in_memlets = {
            "__a": Memlet(a_name, Range.from_string("__k")),
            "__b": Memlet(b_name, Range.from_string("__k, __j")),
        }
        out_memlet = Memlet(c_name, Range.from_string("__j"), wcr="sum")
    else:  # dot product
        (k,) = a_desc.shape
        rng = Range([(0, k - 1, 1)])
        params = ("__k",)
        in_memlets = {
            "__a": Memlet(a_name, Range.from_string("__k")),
            "__b": Memlet(b_name, Range.from_string("__k")),
        }
        out_memlet = Memlet(c_name, Range.from_string("0") if c_desc.ndim
                            else Range.from_string("0"), wcr="sum")

    dims = {p: rng.dims[i] for i, p in enumerate(params)}
    tasklet, entry, exit_ = state.add_mapped_tasklet(
        f"{node.label}_native", dims, in_memlets, "__out = __a * __b",
        {"__out": out_memlet},
        input_nodes={a_name: ins["_a"].src if ins["_a"].src_conn is None else None,
                     b_name: ins["_b"].src if ins["_b"].src_conn is None else None},
        output_nodes={c_name: outs["_c"].dst if outs["_c"].dst_conn is None else None},
    )
    _prepend_wcr_init(sdfg, state, c_name, entry)
    state.remove_node(node)
    return tasklet


def _identity_literal(value) -> str:
    """A Python source literal for a WCR identity value (tasklet code runs
    under plain ``eval`` semantics, so bare ``inf`` would be a NameError)."""
    import math as _math

    import numpy as _np

    if isinstance(value, (bool, _np.bool_)):
        return repr(bool(value))
    if isinstance(value, (float, _np.floating)):
        v = float(value)
        if _math.isinf(v):
            return 'float("inf")' if v > 0 else 'float("-inf")'
        return repr(v)
    return repr(int(value))


def _prepend_wcr_init(sdfg, state, out_name: str, wcr_entry, identity=0,
                      wcr=None):
    """Write the WCR identity into the accumulation target before a WCR map
    (an ordering edge keeps the initialization ahead of the accumulation).

    When *wcr* is given the identity is derived from the output dtype via
    :func:`repro.runtime.wcr.wcr_identity` (integer min/max have no infinity;
    logical reductions initialize to True/False), overriding *identity*.
    """
    from ..ir.data import Scalar as _Scalar
    from ..runtime.wcr import wcr_identity

    desc = sdfg.arrays[out_name]
    init_node = state.add_access(out_name)
    if wcr is not None:
        identity = wcr_identity(wcr, desc.dtype.nptype)
    elif desc.dtype.is_float:
        identity = float(identity)
    value = _identity_literal(identity)
    if isinstance(desc, _Scalar):
        tasklet = state.add_tasklet("init_acc", set(), {"__out"},
                                    f"__out = {value}")
        state.add_edge(tasklet, "__out", init_node, None,
                       Memlet(out_name, Range.from_string("0")))
    else:
        params = {f"__z{i}": (0, s - 1, 1) for i, s in enumerate(desc.shape)}
        idx = ", ".join(f"__z{i}" for i in range(desc.ndim))
        state.add_mapped_tasklet(
            "init_acc", params, {}, f"__out = {value}",
            {"__out": Memlet(out_name, Range.from_string(idx))},
            output_nodes={out_name: init_node})
    state.add_nedge(init_node, wcr_entry, Memlet.empty())


@register_expansion(Outer, "native")
def _expand_outer_native(node: Outer, sdfg, state):
    ins, outs = _io_edges(state, node)
    a_name = ins["_a"].memlet.data
    b_name = ins["_b"].memlet.data
    c_name = outs["_c"].memlet.data
    m = sdfg.arrays[a_name].shape[0]
    n = sdfg.arrays[b_name].shape[0]
    tasklet, entry, exit_ = state.add_mapped_tasklet(
        f"{node.label}_native",
        {"__i": (0, m - 1, 1), "__j": (0, n - 1, 1)},
        {"__a": Memlet(a_name, Range.from_string("__i")),
         "__b": Memlet(b_name, Range.from_string("__j"))},
        "__out = __a * __b",
        {"__out": Memlet(c_name, Range.from_string("__i, __j"))},
        input_nodes={a_name: ins["_a"].src if ins["_a"].src_conn is None else None,
                     b_name: ins["_b"].src if ins["_b"].src_conn is None else None},
        output_nodes={c_name: outs["_c"].dst if outs["_c"].dst_conn is None else None},
    )
    state.remove_node(node)
    return tasklet


@register_expansion(Outer, "MKL")
def _expand_outer_mkl(node: Outer, sdfg, state):
    ins, outs = _io_edges(state, node)
    code = mkl_code(node, outs["_c"])
    tasklet = state.add_tasklet(f"{node.label}_mkl", {"_a", "_b"}, {"_c"}, code)
    state.add_edge(ins["_a"].src, ins["_a"].src_conn, tasklet, "_a", ins["_a"].memlet)
    state.add_edge(ins["_b"].src, ins["_b"].src_conn, tasklet, "_b", ins["_b"].memlet)
    state.add_edge(tasklet, "_c", outs["_c"].dst, outs["_c"].dst_conn, outs["_c"].memlet)
    state.remove_node(node)
    return tasklet


set_priority(MatMul, "CPU", ["MKL", "native"])
set_priority(MatMul, "GPU", ["cuBLAS", "native"])
set_priority(MatMul, "FPGA", ["native"])
set_priority(Outer, "CPU", ["MKL", "native"])
set_priority(Outer, "GPU", ["native"])
set_priority(Outer, "FPGA", ["native"])
