"""Seeded, deterministic program generator for the differential fuzzer.

Every case is a *paired* pair of sources rendered from one statement IR:

* ``fuzz_prog`` — a ``@repro.program``-decoratable function using the
  data-centric dialect (``repro.map`` scopes, annotated arguments);
* ``fuzz_ref``  — the same computation as plain Python/NumPy (``range``
  loops instead of maps, ``.copy()`` after view-producing calls so the
  reference has the frontend's value semantics).

Rendering both functions from the same IR guarantees they agree by
construction; any cross-tier disagreement observed by the runner is
therefore a bug in the pipeline, not in the generator.  The grammar only
emits constructs the frontend documents as supported (elementwise ufuncs,
reductions with ``axis``/``keepdims``, slicing including negative steps,
``matmul``/``outer``/``transpose``/``flip``, map scopes with permuted /
flipped / mixed-constant stores, WCR accumulation, triangular ``0:i``
ranges, scalar symbols) — a frontend rejection of a generated program is
itself a finding.

Array extents are *size variables* (``n0``, ``n1``, …) resolved at render
time, so the shrinker can reduce shapes without re-deriving statement
legality.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["ArraySpec", "GenCase", "generate_case", "render_module"]

SizeRef = Union[str, int]

#: candidate map-parameter names; deliberately overlaps the module-global
#: name pool so the fuzzer exercises name-shadowing paths in the frontend
PARAM_NAMES = ["i", "j", "k", "m"]
GLOBAL_NAMES = ["j", "k"]


def _resolve(ref: SizeRef, sizes: Dict[str, int]) -> int:
    return sizes[ref] if isinstance(ref, str) else int(ref)


def _resolve_dims(dims: Sequence[SizeRef], sizes: Dict[str, int]) -> Tuple[int, ...]:
    return tuple(_resolve(d, sizes) for d in dims)


@dataclass
class ArraySpec:
    """One container: a function argument or (for allocs) a local temp."""

    name: str
    dims: Tuple[SizeRef, ...]
    dtype: str = "float64"

    def shape(self, sizes: Dict[str, int]) -> Tuple[int, ...]:
        return _resolve_dims(self.dims, sizes)

    def annotation(self, sizes: Dict[str, int]) -> str:
        if not self.dims:
            return f"repro.{self.dtype}"
        inner = ", ".join(str(d) for d in self.shape(sizes))
        return f"repro.{self.dtype}[{inner}]"


# ---------------------------------------------------------------------------
# Statement IR
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    dest: Optional[str] = None

    @property
    def defs(self) -> Tuple[str, ...]:
        return (self.dest,) if self.dest else ()

    @property
    def uses(self) -> Tuple[str, ...]:
        return ()

    def out_dims(self) -> Optional[Tuple[SizeRef, ...]]:
        return None

    def prog_lines(self, sizes: Dict[str, int]) -> List[str]:
        raise NotImplementedError

    def ref_lines(self, sizes: Dict[str, int]) -> List[str]:
        return self.prog_lines(sizes)


@dataclass
class AllocStmt(Stmt):
    """``t = np.zeros((...))`` — identical in both renderings."""

    dims: Tuple[SizeRef, ...] = ()
    dtype: str = "float64"

    def out_dims(self):
        return self.dims

    def prog_lines(self, sizes):
        shape = ", ".join(str(s) for s in _resolve_dims(self.dims, sizes))
        return [f"{self.dest} = np.zeros(({shape},), dtype=np.{self.dtype})"]


@dataclass
class EwiseStmt(Stmt):
    """Elementwise expression over same-shape operands (and scalars)."""

    template: str = "{0}"
    operands: Tuple[str, ...] = ()
    dims: Tuple[SizeRef, ...] = ()

    @property
    def uses(self):
        return self.operands

    def out_dims(self):
        return self.dims

    def prog_lines(self, sizes):
        return [f"{self.dest} = {self.template.format(*self.operands)}"]


@dataclass
class ReduceStmt(Stmt):
    """``np.sum``-family reduction, free-function or method form."""

    src: str = ""
    op: str = "sum"           # sum | prod | min | max | mean
    axis: Optional[int] = None
    keepdims: bool = False
    method: bool = False      # A.sum(axis) vs np.sum(A, axis=axis)
    src_dims: Tuple[SizeRef, ...] = ()

    @property
    def uses(self):
        return (self.src,)

    def out_dims(self):
        if self.axis is None:
            if self.keepdims:
                return tuple(1 for _ in self.src_dims)
            return ()
        ax = self.axis % len(self.src_dims)
        if self.keepdims:
            return tuple(1 if d == ax else dim
                         for d, dim in enumerate(self.src_dims))
        return tuple(dim for d, dim in enumerate(self.src_dims) if d != ax)

    def prog_lines(self, sizes):
        if self.method:
            arg = "" if self.axis is None else str(self.axis)
            return [f"{self.dest} = {self.src}.{self.op}({arg})"]
        parts = [self.src]
        if self.axis is not None:
            parts.append(f"axis={self.axis}")
        if self.keepdims:
            parts.append("keepdims=True")
        return [f"{self.dest} = np.{self.op}({', '.join(parts)})"]


@dataclass
class SliceStmt(Stmt):
    """1-D slice; the reference copies to match frontend value semantics."""

    src: str = ""
    mode: str = "asc"  # asc | asc2 | desc | rev
    size: SizeRef = 0  # extent of src

    @property
    def uses(self):
        return (self.src,)

    def out_dims(self):
        # lengths as literal ints are resolved at render; keep symbolic-ish
        return ("__slice__",)  # opaque: slice temps only feed reductions

    def _slice_text(self, sizes):
        n = _resolve(self.size, sizes)
        return {
            "asc": f"[1:{n}]",
            "asc2": f"[0:{n}:2]",
            "desc": f"[{n - 1}:0:-1]",
            "rev": "[::-1]",
        }[self.mode]

    def prog_lines(self, sizes):
        return [f"{self.dest} = {self.src}{self._slice_text(sizes)}"]

    def ref_lines(self, sizes):
        return [f"{self.dest} = {self.src}{self._slice_text(sizes)}.copy()"]


@dataclass
class CallStmt(Stmt):
    """matmul / outer / transpose / flip."""

    kind: str = "matmul"
    srcs: Tuple[str, ...] = ()
    dims: Tuple[SizeRef, ...] = ()

    @property
    def uses(self):
        return self.srcs

    def out_dims(self):
        return self.dims

    def prog_lines(self, sizes):
        if self.kind == "matmul":
            return [f"{self.dest} = {self.srcs[0]} @ {self.srcs[1]}"]
        if self.kind == "outer":
            return [f"{self.dest} = np.outer({self.srcs[0]}, {self.srcs[1]})"]
        if self.kind == "transpose":
            return [f"{self.dest} = np.transpose({self.srcs[0]})"]
        if self.kind == "flip":
            return [f"{self.dest} = np.flip({self.srcs[0]})"]
        raise ValueError(self.kind)

    def ref_lines(self, sizes):
        lines = self.prog_lines(sizes)
        if self.kind in ("transpose", "flip"):
            return [lines[0] + ".copy()"]
        return lines


@dataclass
class MapStmt(Stmt):
    """A ``repro.map`` scope storing into *out* (an argument or alloc)."""

    out: str = ""
    params: Tuple[str, ...] = ()
    bounds: Tuple[SizeRef, ...] = ()          # param p_k in [0, bounds[k])
    # store index: ("param", k) -> params[k]; ("flip", k, size) -> size-1-p;
    # ("const", c) -> literal
    store: Tuple[Tuple, ...] = ()
    reads: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()  # (array, param order)
    rhs_template: str = "{0} * 2.0"
    wcr: bool = False

    @property
    def defs(self):
        return ()

    @property
    def uses(self):
        return (self.out,) + tuple(a for a, _ in self.reads)

    def _store_idx(self, sizes) -> str:
        parts = []
        for entry in self.store:
            if entry[0] == "param":
                parts.append(self.params[entry[1]])
            elif entry[0] == "flip":
                n = _resolve(entry[2], sizes)
                parts.append(f"{n - 1} - {self.params[entry[1]]}")
            else:
                parts.append(str(entry[1]))
        return ", ".join(parts)

    def _rhs(self) -> str:
        read_exprs = [f"{a}[{', '.join(self.params[k] for k in order)}]"
                      for a, order in self.reads]
        return self.rhs_template.format(*read_exprs)

    def _body(self, sizes) -> str:
        op = "+=" if self.wcr else "="
        return f"{self.out}[{self._store_idx(sizes)}] {op} {self._rhs()}"

    def prog_lines(self, sizes):
        rng = ", ".join(f"0:{_resolve(b, sizes)}" for b in self.bounds)
        head = f"for {', '.join(self.params)} in repro.map[{rng}]:"
        return [head, f"    {self._body(sizes)}"]

    def ref_lines(self, sizes):
        lines = []
        for depth, (p, b) in enumerate(zip(self.params, self.bounds)):
            lines.append("    " * depth
                         + f"for {p} in range({_resolve(b, sizes)}):")
        lines.append("    " * len(self.params) + self._body(sizes))
        return lines


@dataclass
class TriMapStmt(Stmt):
    """Triangular iteration: a range loop whose trip count bounds an inner
    map — the inner range is empty for small loop indices."""

    out: str = ""
    size: SizeRef = 0       # square extent
    delta: int = 0          # inner map runs 0 : t - delta
    reads: Tuple[str, ...] = ()   # 2-D (size, size) arrays
    rhs_template: str = "{0} * 2.0"
    one_d: bool = False     # True: OUT[p] += rhs  (OUT is 1-D); else OUT[t, p] = rhs

    @property
    def defs(self):
        return ()

    @property
    def uses(self):
        return (self.out,) + self.reads

    def _body(self) -> str:
        reads = [f"{a}[it, p]" for a in self.reads]
        rhs = self.rhs_template.format(*reads)
        if self.one_d:
            return f"{self.out}[p] += {rhs}"
        return f"{self.out}[it, p] = {rhs}"

    def _upper(self) -> str:
        return "it" if self.delta == 0 else f"it - {self.delta}"

    def prog_lines(self, sizes):
        n = _resolve(self.size, sizes)
        return [f"for it in range({n}):",
                f"    for p in repro.map[0:{self._upper()}]:",
                f"        {self._body()}"]

    def ref_lines(self, sizes):
        n = _resolve(self.size, sizes)
        return [f"for it in range({n}):",
                f"    for p in range(max(0, {self._upper()})):",
                f"        {self._body()}"]


@dataclass
class AccStmt(Stmt):
    """Scalar WCR accumulation over a map, stored into a sink element."""

    acc: str = "acc0"
    params: Tuple[str, ...] = ()
    bounds: Tuple[SizeRef, ...] = ()
    reads: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    rhs_template: str = "{0}"
    sink: str = ""          # 2-D array receiving acc at [0, 0]

    @property
    def defs(self):
        return ()

    @property
    def uses(self):
        return (self.sink,) + tuple(a for a, _ in self.reads)

    def _rhs(self) -> str:
        read_exprs = [f"{a}[{', '.join(self.params[k] for k in order)}]"
                      for a, order in self.reads]
        return self.rhs_template.format(*read_exprs)

    def prog_lines(self, sizes):
        rng = ", ".join(f"0:{_resolve(b, sizes)}" for b in self.bounds)
        return [f"{self.acc} = 0.0",
                f"for {', '.join(self.params)} in repro.map[{rng}]:",
                f"    {self.acc} += {self._rhs()}",
                f"{self.sink}[0, 0] = {self.acc}"]

    def ref_lines(self, sizes):
        lines = [f"{self.acc} = 0.0"]
        for depth, (p, b) in enumerate(zip(self.params, self.bounds)):
            lines.append("    " * depth
                         + f"for {p} in range({_resolve(b, sizes)}):")
        lines.append("    " * len(self.params) + f"{self.acc} += {self._rhs()}")
        lines.append(f"{self.sink}[0, 0] = {self.acc}")
        return lines


@dataclass
class RowMapStmt(Stmt):
    """A row-wise map over 3-D arrays (softmax's shape): per point ``(i,
    j)`` a whole-row reduction *red*, an element-wise *chain* of the row
    minus it, normalised by the chain's row sum, stored into *out*.  With
    *cross* the map skips the last ``i`` and every point also reads that
    row of *out*, which no point writes — a read of a written container at
    another row, which the row lowering must decline."""

    out: str = ""
    src: str = ""
    params: Tuple[str, ...] = ()
    bounds: Tuple[SizeRef, ...] = ()
    red: str = "max"
    chain: str = "np.exp({0})"
    cross: bool = False

    @property
    def defs(self):
        return ()

    @property
    def uses(self):
        return (self.out, self.src)

    def _extents(self, sizes) -> List[int]:
        extents = [_resolve(b, sizes) for b in self.bounds]
        if self.cross:
            extents[0] -= 1
        return extents

    def _body(self, sizes) -> List[str]:
        i, j = self.params
        row = f"{self.src}[{i}, {j}, :]"
        value = "rowe / np.sum(rowe)"
        if self.cross:
            value += f" + {self.out}[{_resolve(self.bounds[0], sizes) - 1}, {j}, :]"
        return [f"rowm = np.{self.red}({row})",
                f"rowe = {self.chain.format(f'{row} - rowm')}",
                f"{self.out}[{i}, {j}, :] = {value}"]

    def prog_lines(self, sizes):
        rng = ", ".join(f"0:{n}" for n in self._extents(sizes))
        return [f"for {', '.join(self.params)} in repro.map[{rng}]:"] \
            + ["    " + line for line in self._body(sizes)]

    def ref_lines(self, sizes):
        lines = []
        for depth, (p, n) in enumerate(zip(self.params, self._extents(sizes))):
            lines.append("    " * depth + f"for {p} in range({n}):")
        return lines + ["    " * len(self.params) + line
                        for line in self._body(sizes)]


@dataclass
class ReturnStmt(Stmt):
    value: str = ""           # name, or "" -> np.sum(fallback)
    fallback: str = "A"

    @property
    def defs(self):
        return ()

    @property
    def uses(self):
        return (self.value or self.fallback,)

    def prog_lines(self, sizes):
        if self.value:
            return [f"return {self.value}"]
        return [f"return np.sum({self.fallback})"]


# ---------------------------------------------------------------------------
# Case container
# ---------------------------------------------------------------------------

@dataclass
class GenCase:
    """A generated case: sizes, arguments, module globals and statements."""

    seed: int
    sizes: Dict[str, int] = field(default_factory=dict)
    args: List[ArraySpec] = field(default_factory=list)
    globals: Dict[str, int] = field(default_factory=dict)
    stmts: List[Stmt] = field(default_factory=list)
    note: str = ""

    def clone(self) -> "GenCase":
        return copy.deepcopy(self)

    def arg_names(self) -> List[str]:
        return [a.name for a in self.args]

    def is_valid(self) -> bool:
        """Def-before-use over temps (arguments are always defined)."""
        defined = set(self.arg_names()) | set(self.globals)
        for stmt in self.stmts:
            for use in stmt.uses:
                if use not in defined:
                    return False
            defined.update(stmt.defs)
        return True


def render_module(case: GenCase) -> str:
    """Full module text: globals, ``fuzz_prog`` and ``fuzz_ref``."""
    sizes = case.sizes
    lines = [f'"""Auto-generated fuzz case (repro-fuzz), seed={case.seed}."""',
             "import numpy as np", "import repro", ""]
    for name, value in sorted(case.globals.items()):
        lines.append(f"{name} = {value}")
    if case.globals:
        lines.append("")

    sig = ", ".join(f"{a.name}: {a.annotation(sizes)}" for a in case.args)
    lines.append(f"def fuzz_prog({sig}):")
    body = [ln for stmt in case.stmts for ln in stmt.prog_lines(sizes)]
    lines.extend("    " + ln for ln in (body or ["pass"]))
    lines.append("")

    ref_sig = ", ".join(a.name for a in case.args)
    lines.append(f"def fuzz_ref({ref_sig}):")
    ref_body = [ln for stmt in case.stmts for ln in stmt.ref_lines(sizes)]
    lines.extend("    " + ln for ln in (ref_body or ["pass"]))
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

_EWISE_BINARY = [
    "{0} * 2.0 + {1}",
    "np.maximum({0}, 0.5) - {1} * 0.25",
    "np.where({0} > 0.5, {0}, -{1})",
    "np.minimum({0}, {1}) + 0.125",
    "({0} + {1}) * 0.5",
]
_EWISE_UNARY = [
    "np.sqrt(np.abs({0}))",
    "np.exp(-{0})",
    "{0} * {0} + 1.0",
    "-{0} + 2.0",
]
_MAP_RHS = ["{0} * 2.0", "{0} + {1}", "{0} * {1} + 0.5", "{0} - 0.25"]
_ACC_RHS = ["{0} * {1}", "{0} + {1}", "{0}"]
_REDUCE_OPS = ["sum", "min", "max", "prod", "mean"]
#: element-wise steps of a row map's chain: each is positive whatever its
#: input, so the row sum it is normalised by stays away from zero
_ROW_CHAIN = ["np.exp({0})", "np.sqrt(np.abs({0})) + 1.0", "{0} * {0} + 0.5",
              "1.0 / (1.0 + np.exp({0}))", "np.log1p(np.abs({0})) + 0.25"]


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(f"repro-fuzz-{seed}")
        self.seed = seed
        self.tmp = 0
        self.acc = 0

    def fresh(self) -> str:
        name = f"t{self.tmp}"
        self.tmp += 1
        return name

    def build(self) -> GenCase:
        rng = self.rng
        sizes = {"n0": rng.randint(2, 6), "n1": rng.randint(2, 6),
                 "n2": rng.randint(2, 5)}
        args = [
            ArraySpec("A", ("n0", "n1")),
            ArraySpec("B", ("n0", "n1")),
            ArraySpec("C", ("n1", "n0")),
            ArraySpec("D", ("n0", "n0")),
            ArraySpec("u", ("n1",)),
            ArraySpec("v", ("n1",)),
            ArraySpec("w", ("n0",)),
        ]
        if rng.random() < 0.4:
            args.append(ArraySpec("E", ("n1", "n2")))
        if rng.random() < 0.3:
            args.append(ArraySpec("s", ()))
        for spec in args:
            if spec.dims and rng.random() < 0.15:
                spec.dtype = "float32"

        case = GenCase(seed=self.seed, sizes=sizes, args=args)
        if rng.random() < 0.25:
            # a module-level tuning constant whose name may collide with a
            # map parameter — exercises frontend name-resolution order
            case.globals[rng.choice(GLOBAL_NAMES)] = rng.randint(0, 1)

        # dims -> available array names (args + temps as they appear)
        pools: Dict[Tuple[SizeRef, ...], List[str]] = {}
        for spec in args:
            if spec.dims:
                pools.setdefault(spec.dims, []).append(spec.name)
        scalars = [a.name for a in args if not a.dims]
        last_array: Optional[str] = None

        def register(name: str, dims: Optional[Tuple[SizeRef, ...]]):
            nonlocal last_array
            if dims is None:
                return
            if dims and "__slice__" not in dims:
                pools.setdefault(dims, []).append(name)
            last_array = name

        makers = [self._ewise, self._reduce, self._slice, self._call,
                  self._map, self._trimap, self._acc]
        weights = [3, 3, 1, 2, 3, 1, 1]
        n_stmts = rng.randint(3, 7)
        for _ in range(n_stmts):
            maker = rng.choices(makers, weights)[0]
            made = maker(case, pools, scalars)
            if made is None:
                continue
            stmt = made
            case.stmts.append(stmt)
            if stmt.dest:
                register(stmt.dest, stmt.out_dims())

        self._rowmap(case)
        ret_candidates = [s.dest for s in case.stmts
                          if s.dest and s.out_dims() is not None]
        if ret_candidates and rng.random() < 0.8:
            case.stmts.append(ReturnStmt(value=rng.choice(ret_candidates)))
        else:
            case.stmts.append(ReturnStmt(value="", fallback="A"))
        return case

    # -- statement makers --------------------------------------------------
    def _pick_pool(self, pools, rank=None, min_len=1):
        cands = [(dims, names) for dims, names in pools.items()
                 if len(names) >= min_len
                 and (rank is None or len(dims) == rank)]
        if not cands:
            return None
        return self.rng.choice(cands)

    def _ewise(self, case, pools, scalars):
        rng = self.rng
        picked = self._pick_pool(pools)
        if picked is None:
            return None
        dims, names = picked
        if len(names) >= 2 and rng.random() < 0.7:
            template = rng.choice(_EWISE_BINARY)
            operands = (rng.choice(names), rng.choice(names))
        else:
            template = rng.choice(_EWISE_UNARY)
            operands = (rng.choice(names),)
        if scalars and rng.random() < 0.3:
            template = f"({template}) * {{{len(operands)}}}"
            operands = operands + (scalars[0],)
        return EwiseStmt(dest=self.fresh(), template=template,
                         operands=operands, dims=dims)

    def _reduce(self, case, pools, scalars):
        rng = self.rng
        picked = self._pick_pool(pools)
        if picked is None:
            return None
        dims, names = picked
        src = rng.choice(names)
        rank = len(dims)
        axis: Optional[int] = None
        if rank and rng.random() < 0.8:
            axis = rng.randrange(rank)
            if rng.random() < 0.4:
                axis -= rank  # negative form
        keepdims = axis is not None and rng.random() < 0.2
        method = not keepdims and rng.random() < 0.3
        op = rng.choice(_REDUCE_OPS)
        if method and op == "mean":
            op = "sum"
        if op == "prod" and rank == 2:
            op = "sum"  # avoid overflow-ish magnitudes on big products? floats in [0,1): prod fine, keep variety on 1-D
        return ReduceStmt(dest=self.fresh(), src=src, op=op, axis=axis,
                          keepdims=keepdims, method=method, src_dims=dims)

    def _slice(self, case, pools, scalars):
        rng = self.rng
        picked = self._pick_pool(pools, rank=1)
        if picked is None:
            return None
        dims, names = picked
        mode = rng.choice(["asc", "asc2", "desc", "rev"])
        return SliceStmt(dest=self.fresh(), src=rng.choice(names),
                         mode=mode, size=dims[0])

    def _call(self, case, pools, scalars):
        rng = self.rng
        kind = rng.choice(["matmul", "outer", "transpose", "flip"])
        if kind == "matmul":
            a = self._pick_pool(pools, rank=2)
            if a is None:
                return None
            (d0, d1), names = a
            b = pools.get((d1, d0))
            if not b:
                return None
            return CallStmt(dest=self.fresh(), kind=kind,
                            srcs=(rng.choice(names), rng.choice(b)),
                            dims=(d0, d0))
        if kind == "outer":
            a = self._pick_pool(pools, rank=1)
            if a is None:
                return None
            dims, names = a
            return CallStmt(dest=self.fresh(), kind=kind,
                            srcs=(rng.choice(names), rng.choice(names)),
                            dims=(dims[0], dims[0]))
        if kind == "transpose":
            a = self._pick_pool(pools, rank=2)
            if a is None:
                return None
            dims, names = a
            return CallStmt(dest=self.fresh(), kind=kind,
                            srcs=(rng.choice(names),), dims=(dims[1], dims[0]))
        a = self._pick_pool(pools, rank=1)
        if a is None:
            return None
        dims, names = a
        return CallStmt(dest=self.fresh(), kind="flip",
                        srcs=(rng.choice(names),), dims=dims)

    def _map(self, case, pools, scalars):
        rng = self.rng
        picked = self._pick_pool(pools, rank=2)
        if picked is None:
            return None
        out_dims, out_names = picked
        out = rng.choice(out_names)
        a, b = out_dims
        params = tuple(rng.sample(PARAM_NAMES, 2))
        pattern = rng.choice(["direct", "swap", "flip"])
        if pattern == "direct":
            bounds, store = (a, b), (("param", 0), ("param", 1))
            read_order = {(a, b): (0, 1), (b, a): (1, 0)}
        elif pattern == "swap":
            bounds, store = (b, a), (("param", 1), ("param", 0))
            read_order = {(a, b): (1, 0), (b, a): (0, 1)}
        else:
            bounds, store = (a, b), (("flip", 0, a), ("param", 1))
            read_order = {(a, b): (0, 1), (b, a): (1, 0)}
        reads = []
        for dims, order in read_order.items():
            names = [n for n in pools.get(dims, ()) if n != out]
            if names:
                reads.append((rng.choice(names), order))
        if not reads:
            return None
        rng.shuffle(reads)
        reads = tuple(reads[:2])
        template = rng.choice(_MAP_RHS[:2] if len(reads) == 1 else _MAP_RHS)
        if len(reads) == 1:
            template = template.replace("{1}", "{0}")
        return MapStmt(out=out, params=params, bounds=bounds, store=store,
                       reads=reads, rhs_template=template,
                       wcr=False)

    def _trimap(self, case, pools, scalars):
        rng = self.rng
        square = None
        for dims, names in pools.items():
            if len(dims) == 2 and dims[0] == dims[1]:
                square = (dims, names)
        if square is None:
            return None
        (n, _), names = square
        reads = [x for x in names]
        one_d = rng.random() < 0.4 and pools.get((n,))
        if one_d:
            out = rng.choice(pools[(n,)])
            srcs = tuple(rng.sample(reads, 1))
        else:
            out = rng.choice(names)
            srcs = tuple(rng.sample([x for x in reads if x != out] or reads, 1))
            if out in srcs:
                return None
        return TriMapStmt(out=out, size=n, delta=rng.choice([0, 1]),
                          reads=srcs, rhs_template=rng.choice(_MAP_RHS[:2]).replace("{1}", "{0}"),
                          one_d=bool(one_d))

    def _rowmap(self, case):
        """Insert a :class:`RowMapStmt` over two 3-D arguments of its own
        into some cases, drawing from a stream of its own so every other
        draw of a case is unchanged."""
        rng = random.Random(f"repro-fuzz-row-{self.seed}")
        if rng.random() >= 0.3:
            return
        dims = ("n0", "n1", "n2")
        src = ArraySpec("X3", dims,
                        "float32" if rng.random() < 0.2 else "float64")
        case.args += [src, ArraySpec("O3", dims)]
        chain = "{0}"
        for _ in range(rng.randint(1, 2)):
            chain = rng.choice(_ROW_CHAIN).format(chain)
        stmt = RowMapStmt(out="O3", src="X3",
                          params=tuple(rng.sample(PARAM_NAMES, 2)),
                          bounds=dims[:2],
                          red=rng.choice(["max", "min", "sum"]), chain=chain,
                          cross=rng.random() < 0.25)
        case.stmts.insert(rng.randint(0, len(case.stmts)), stmt)

    def _acc(self, case, pools, scalars):
        rng = self.rng
        picked = self._pick_pool(pools, rank=2)
        if picked is None:
            return None
        dims, names = picked
        a, b = dims
        params = tuple(rng.sample(PARAM_NAMES, 2))
        sinks = [n for n in names]
        sink = rng.choice(sinks)
        read_names = [n for n in names if n != sink]
        if not read_names:
            return None
        r1 = rng.choice(read_names)
        r2 = rng.choice(read_names)
        template = rng.choice(_ACC_RHS)
        n_reads = template.count("{")
        reads = tuple([(r1, (0, 1)), (r2, (0, 1))][:n_reads])
        name = f"acc{self.acc}"
        self.acc += 1
        return AccStmt(acc=name, params=params, bounds=(a, b), reads=reads,
                       rhs_template=template, sink=sink)


def generate_case(seed: int) -> GenCase:
    """Deterministically generate one case from *seed*."""
    return _Gen(seed).build()
